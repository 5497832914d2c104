// The algorithm layer's single way onto the engine: every RunConfig
// (layout x direction x sync x balance) maps to a kernel here and nowhere
// else, so the algorithms themselves hold no layout switch.
//
//   EdgeMap(handle, config, ctx, frontier, func)
//       One frontier round of an edge functor (contract in
//       src/engine/edge_map.h). Builds EdgeMapOptions from the config, the
//       handle's striped locks and the context's scratch; resolves
//       Direction::kPushPull once, from the frontier's out-degree work
//       estimate against |E| / pushpull.threshold_den (Beamer/Ligra);
//       dispatches to the layout kernel; returns the next frontier and the
//       direction it ran. Edge-array and grid kernels have no direction
//       choice, so they report config.direction unchanged.
//   RunFrontierRounds(...)
//       The frontier loop of BFS, SSSP and WCC: EdgeMap until the frontier
//       empties, with the per-round stats and trace bookkeeping.
//   DenseScan(handle, config, acc, gather)
//       One all-active pass (PageRank, SpMV). Push-style layouts feed every
//       edge to an accumulator with the functor's Update/UpdateAtomic
//       halves; the dispatcher wraps Update in the striped lock, calls
//       UpdateAtomic, or calls Update bare under ownership (grid columns).
//       Pull runs the per-destination gather body on the in-CSR.
#ifndef SRC_ALGOS_DISPATCH_H_
#define SRC_ALGOS_DISPATCH_H_

#include <utility>

#include "src/algos/common.h"
#include "src/engine/edge_map.h"
#include "src/engine/scan.h"
#include "src/util/spinlock.h"
#include "src/util/timer.h"

namespace egraph {

struct EdgeMapResult {
  Frontier next;
  Direction used;
};

template <typename F>
EdgeMapResult EdgeMap(GraphHandle& handle, const RunConfig& config, ExecutionContext& ctx,
                      Frontier& frontier, F& func) {
  EdgeMapOptions options;
  options.sync = config.sync;
  options.balance = config.balance;
  options.locks = &handle.locks();
  options.scratch = &ctx.edge_map_scratch();

  if (config.layout == Layout::kEdgeArray) {
    return {EdgeMapEdgeArray(handle.edges(), frontier, func, options), config.direction};
  }
  if (config.layout == Layout::kGrid) {
    return {EdgeMapGrid(handle.grid(), frontier, func, options), config.direction};
  }
  Direction used = config.direction;
  if (used == Direction::kPushPull) {
    const double work = static_cast<double>(frontier.WorkEstimate(handle.out_csr()));
    const double edges = static_cast<double>(handle.out_csr().num_edges());
    used = work > edges / config.pushpull.threshold_den ? Direction::kPull : Direction::kPush;
  }
  return {used == Direction::kPull ? EdgeMapCsrPull(handle.in_csr(), frontier, func, options)
                                   : EdgeMapCsrPush(handle.out_csr(), frontier, func, options),
          used};
}

// Runs EdgeMap rounds from `frontier` until it empties, recording each
// round's frontier size, push-pull decision (push-pull runs on CSR layouts
// only), trace record and wall time in `stats`.
template <typename F>
void RunFrontierRounds(GraphHandle& handle, const RunConfig& config, ExecutionContext& ctx,
                       Frontier frontier, F& func, AlgoStats& stats, obs::TraceSession& trace) {
  while (!frontier.Empty()) {
    Timer iteration;
    stats.frontier_sizes.push_back(frontier.Count());
    trace.BeginIteration(frontier.Count(), frontier.has_sparse());
    EdgeMapResult round = EdgeMap(handle, config, ctx, frontier, func);
    if (config.direction == Direction::kPushPull && round.used != Direction::kPushPull) {
      stats.used_pull.push_back(round.used == Direction::kPull);
    }
    frontier = std::move(round.next);
    trace.EndIteration(round.used);
    stats.per_iteration_seconds.push_back(iteration.Seconds());
    ++stats.iterations;
  }
}

// Accumulator contract (the Update/UpdateAtomic halves of an EdgeMap
// functor, without Cond or a changed flag):
//
//   struct Accumulator {
//     void Update(VertexId src, VertexId dst, float weight);        // exclusive dst
//     void UpdateAtomic(VertexId src, VertexId dst, float weight);  // shared dst
//   };
//
// gather(dst, in_edges) runs once per destination on pull, where
// in_edges(fn) calls fn(src, weight) for each in-neighbor; it owns dst.
template <typename Acc, typename Gather>
void DenseScan(GraphHandle& handle, const RunConfig& config, Acc& acc, Gather&& gather) {
  StripedLocks& locks = handle.locks();
  // Runs `scan` with the synchronized form config.sync selects.
  auto synchronized = [&](auto&& scan) {
    if (config.sync == Sync::kLocks) {
      scan([&](VertexId src, VertexId dst, float w) {
        SpinlockGuard guard(locks.For(dst));
        acc.Update(src, dst, w);
      });
    } else {
      scan([&acc](VertexId src, VertexId dst, float w) { acc.UpdateAtomic(src, dst, w); });
    }
  };
  const bool pull = config.direction == Direction::kPull;
  switch (config.layout) {
    case Layout::kAdjacency:
      if (pull) {
        ScanByDestination(handle.in_csr(), config.balance, gather);
      } else {
        synchronized([&](auto&& body) { ScanBySource(handle.out_csr(), config.balance, body); });
      }
      break;
    case Layout::kEdgeArray:
      synchronized([&](auto&& body) { ScanEdgeArray(handle.edges(), body); });
      break;
    case Layout::kGrid:
      if (config.sync == Sync::kLockFree) {
        // Column ownership: all writes to a destination block come from one
        // thread (paper section 6.1.2).
        ScanGridColumnOwned(handle.grid(), [&acc](VertexId src, VertexId dst, float w) {
          acc.Update(src, dst, w);
        });
      } else {
        synchronized(
            [&](auto&& body) { ScanGridRowMajor(handle.grid(), config.balance, body); });
      }
      break;
  }
}

}  // namespace egraph

#endif  // SRC_ALGOS_DISPATCH_H_
