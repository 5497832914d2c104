#include "src/algos/sssp.h"

#include <limits>

#include "src/algos/dispatch.h"
#include "src/algos/functors.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace egraph {

SsspResult RunSssp(GraphHandle& handle, VertexId source, const RunConfig& config,
                   ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  SsspResult result;
  const VertexId n = handle.num_vertices();
  result.dist.assign(n, std::numeric_limits<float>::infinity());
  if (source >= n) {
    return result;
  }

  Timer total;
  obs::ScopedPhase phase(obs::Phase::kAlgorithm);
  obs::TraceSession trace(result.stats.trace, "sssp", config.layout, config.direction,
                          config.sync);
  result.dist[source] = 0.0f;
  SsspFunctor func{result.dist.data()};
  RunFrontierRounds(handle, config, ctx, Frontier::Single(n, source), func, result.stats, trace);
  result.stats.algorithm_seconds = total.Seconds();
  return result;
}

}  // namespace egraph
