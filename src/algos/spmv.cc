#include "src/algos/spmv.h"

#include "src/algos/dispatch.h"
#include "src/util/atomics.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Push-side product accumulation: y[dst] += w * x[src].
struct ProductAccumulator {
  float* y;
  const float* x;
  void Update(VertexId src, VertexId dst, float w) { y[dst] += w * x[src]; }
  void UpdateAtomic(VertexId src, VertexId dst, float w) { AtomicAdd(&y[dst], w * x[src]); }
};

}  // namespace

SpmvResult RunSpmv(GraphHandle& handle, const std::vector<float>& x, const RunConfig& config,
                   ExecutionContext& ctx) {
  ExecutionContext::Scope exec_scope(ctx);
  PrepareForRun(handle, config);
  SpmvResult result;
  const VertexId n = handle.num_vertices();
  result.y.assign(n, 0.0f);
  float* y = result.y.data();
  const float* xv = x.data();

  Timer total;
  ProductAccumulator acc{y, xv};
  DenseScan(handle, config, acc, [&](VertexId dst, auto&& in_edges) {
    float sum = 0.0f;
    in_edges([&](VertexId src, float w) { sum += w * xv[src]; });
    y[dst] = sum;
  });
  result.stats.iterations = 1;
  result.stats.algorithm_seconds = total.Seconds();
  result.stats.per_iteration_seconds.push_back(result.stats.algorithm_seconds);
  return result;
}

}  // namespace egraph
