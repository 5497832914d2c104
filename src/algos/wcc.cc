#include "src/algos/wcc.h"

#include "src/algos/dispatch.h"
#include "src/algos/functors.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {

WccResult RunWcc(GraphHandle& handle, const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  WccResult result;
  const VertexId n = handle.num_vertices();
  result.label.resize(n);
  Timer total;
  obs::ScopedPhase phase(obs::Phase::kAlgorithm);
  obs::TraceSession trace(result.stats.trace, "wcc", config.layout, config.direction,
                          config.sync);
  VertexMap(n, [&](VertexId v) { result.label[v] = v; });

  if (config.layout == Layout::kAdjacency || config.layout == Layout::kCompressed) {
    // Frontier-driven label propagation over the (symmetrized) adjacency
    // lists — plain or chunk-compressed: only re-labeled vertices propagate
    // next round.
    WccFunctor func{result.label.data()};
    RunFrontierRounds(handle, config, ctx, Frontier::All(n), func, result.stats, trace);
  } else {
    // Edge array / grid: full scans updating *both* endpoints per stored
    // edge (no symmetrization needed), iterated to fixpoint.
    VertexId* label = result.label.data();
    std::atomic<bool> changed{true};
    auto relax = [label, &changed](VertexId a, VertexId b, float /*w*/) {
      const VertexId la = AtomicLoad(&label[a]);
      const VertexId lb = AtomicLoad(&label[b]);
      if (la < lb) {
        if (AtomicMin(&label[b], la)) {
          changed.store(true, std::memory_order_relaxed);
        }
      } else if (lb < la) {
        if (AtomicMin(&label[a], lb)) {
          changed.store(true, std::memory_order_relaxed);
        }
      }
    };
    while (changed.load(std::memory_order_relaxed)) {
      changed.store(false, std::memory_order_relaxed);
      Timer iteration;
      trace.BeginIteration(n, /*frontier_sparse=*/false);
      if (config.layout == Layout::kEdgeArray) {
        ScanEdgeArray(handle.edges(), relax);
      } else {
        ScanGridRowMajor(handle.grid(), config.balance, relax);
      }
      trace.EndIteration(config.direction);
      result.stats.per_iteration_seconds.push_back(iteration.Seconds());
      ++result.stats.iterations;
    }
  }
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
