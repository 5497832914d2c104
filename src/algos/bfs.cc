#include "src/algos/bfs.h"

#include "src/algos/dispatch.h"
#include "src/algos/functors.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace egraph {

BfsResult RunBfs(GraphHandle& handle, VertexId source, const RunConfig& config,
                 ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  BfsResult result;
  const VertexId n = handle.num_vertices();
  result.parent.assign(n, kInvalidVertex);
  if (source >= n) {
    return result;
  }

  Timer total;
  obs::ScopedPhase phase(obs::Phase::kAlgorithm);
  obs::TraceSession trace(result.stats.trace, "bfs", config.layout, config.direction,
                          config.sync);
  result.parent[source] = source;
  BfsFunctor func{result.parent.data()};
  RunFrontierRounds(handle, config, ctx, Frontier::Single(n, source), func, result.stats, trace);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
