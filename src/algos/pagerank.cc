#include "src/algos/pagerank.h"

#include "src/algos/dispatch.h"
#include "src/graph/stats.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/atomics.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Push-side rank accumulation: next[dst] += contrib[src].
struct RankAccumulator {
  float* next;
  const float* contrib;
  void Update(VertexId src, VertexId dst, float /*w*/) { next[dst] += contrib[src]; }
  void UpdateAtomic(VertexId src, VertexId dst, float /*w*/) {
    AtomicAdd(&next[dst], contrib[src]);
  }
};

}  // namespace

PagerankResult RunPagerank(GraphHandle& handle, const PagerankOptions& options,
                           const RunConfig& config, ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  PagerankResult result;
  const VertexId n = handle.num_vertices();
  if (n == 0) {
    return result;
  }

  Timer total;
  obs::ScopedPhase phase(obs::Phase::kAlgorithm);
  obs::TraceSession trace(result.stats.trace, "pagerank", config.layout, config.direction,
                          config.sync);
  // Out-degrees are part of the algorithm phase: the edge-array layout has
  // no pre-processing, so everything it needs beyond the raw input counts
  // as computation (consistent with the paper's 0.0s pre-processing rows).
  std::vector<uint32_t> degree;
  if (handle.has_out_csr() && config.layout == Layout::kAdjacency) {
    degree.resize(n);
    const Csr& out = handle.out_csr();
    VertexMap(n, [&](VertexId v) { degree[v] = out.Degree(v); });
  } else {
    degree = OutDegrees(handle.edges());
  }

  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  std::vector<float> contrib(n, 0.0f);
  std::vector<float> next(n, 0.0f);
  const float base_teleport = (1.0f - options.damping) / static_cast<float>(n);

  for (int iter = 0; iter < options.iterations; ++iter) {
    Timer iteration;
    trace.BeginIteration(n, /*frontier_sparse=*/false);
    // Per-vertex contribution; dangling vertices spread their mass uniformly.
    // The deterministic reduction keeps the dangling mass — and therefore the
    // whole rank sequence — bit-identical across pool sizes.
    double dangling = ParallelReduceSumDeterministic<double>(0, static_cast<int64_t>(n),
                                                             [&](int64_t v) {
      if (degree[static_cast<size_t>(v)] == 0) {
        return static_cast<double>(rank[static_cast<size_t>(v)]);
      }
      contrib[static_cast<size_t>(v)] = rank[static_cast<size_t>(v)] /
                                        static_cast<float>(degree[static_cast<size_t>(v)]);
      return 0.0;
    });
    VertexMap(n, [&](VertexId v) {
      if (degree[v] == 0) {
        contrib[v] = 0.0f;
      }
      next[v] = 0.0f;
    });

    // Pull gathers each destination's in-neighbors in stored order.
    RankAccumulator acc{next.data(), contrib.data()};
    DenseScan(handle, config, acc, [&](VertexId dst, auto&& in_edges) {
      float sum = 0.0f;
      in_edges([&](VertexId src, float /*w*/) { sum += contrib[src]; });
      next[dst] = sum;
    });

    const float teleport = base_teleport + options.damping *
                                               static_cast<float>(dangling) /
                                               static_cast<float>(n);
    VertexMap(n, [&](VertexId v) { next[v] = teleport + options.damping * next[v]; });
    rank.swap(next);
    trace.EndIteration(config.direction);
    result.stats.per_iteration_seconds.push_back(iteration.Seconds());
    ++result.stats.iterations;
  }

  result.rank = std::move(rank);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
