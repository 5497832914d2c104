#include "src/algos/wcc.h"

#include <utility>

#include "src/algos/dispatch.h"
#include "src/algos/functors.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Root of v's union-find tree, halving the path on the way up. Links hang a
// root under a smaller root and halving swaps a parent for its smaller
// grandparent, so parent[x] <= x holds throughout and every value a thread
// reads is an ancestor. Halving by CAS keeps a non-root's parent
// decreasing: a stale halving cannot overwrite a newer one, nor the root
// the flattening pass stored.
VertexId FindRoot(VertexId* parent, VertexId v) {
  while (true) {
    const VertexId p = AtomicLoad(&parent[v]);
    if (p == v) {
      return v;
    }
    const VertexId grandparent = AtomicLoad(&parent[p]);
    if (grandparent != p) {
      AtomicCas(&parent[v], p, grandparent);
    }
    v = grandparent;
  }
}

}  // namespace

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

  if (config.layout == Layout::kAdjacency) {
    // Frontier-driven label propagation over the (symmetrized) adjacency
    // lists: only re-labeled vertices propagate next round.
    WccFunctor func{result.label.data()};
    RunFrontierRounds(handle, config, ctx, Frontier::All(n), func, result.stats, trace);
  } else {
    // Edge array / grid: one concurrent union-find pass over the stored
    // edges (no symmetrization needed), the labels serving as parents. Each
    // edge links the larger of its endpoints' roots under the smaller one,
    // retrying if another thread relinked that root first. One find per
    // vertex then flattens each tree onto its root: the component's
    // smallest id, under any thread schedule.
    VertexId* parent = result.label.data();
    auto unite = [parent](VertexId a, VertexId b, float /*w*/) {
      if (AtomicLoad(&parent[a]) == AtomicLoad(&parent[b])) {
        return;  // same parent, same tree: no finds needed
      }
      while (true) {
        a = FindRoot(parent, a);
        b = FindRoot(parent, b);
        if (a == b) {
          return;
        }
        if (a < b) {
          std::swap(a, b);
        }
        if (AtomicCas(&parent[a], a, b)) {
          return;
        }
      }
    };
    Timer iteration;
    trace.BeginIteration(n, /*frontier_sparse=*/false);
    if (config.layout == Layout::kEdgeArray) {
      ScanEdgeArray(handle.edges(), unite);
    } else {
      ScanGridRowMajor(handle.grid(), config.balance, unite);
    }
    VertexMap(n, [parent](VertexId v) { AtomicStore(&parent[v], FindRoot(parent, v)); });
    trace.EndIteration(config.direction);
    result.stats.per_iteration_seconds.push_back(iteration.Seconds());
    result.stats.iterations = 1;
  }
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
