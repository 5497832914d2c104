// EdgeMap: the engine's core primitive. Applies an edge functor over the
// active frontier, across the paper's layouts and information-flow
// directions. Algorithms reach it through one entry point,
// EdgeMap(handle, config, ctx, frontier, func) in src/algos/dispatch.h: it
// builds the EdgeMapOptions below from the run's RunConfig, makes the
// push-pull decision once, dispatches to a layout kernel and reports the
// direction it used. The kernels it dispatches to:
//
//   kernel                input                 direction
//   EdgeMapCsrPush        out-CSR               push, sparse output
//   EdgeMapCsrPull        in-CSR                pull, dense output
//   EdgeMapEdgeArray      edge list             full edge scan
//   EdgeMapGrid           grid                  full cell scan
//
// The push body (PushActive) and the pull body (PullChunk) walk the lists
// through the weight-specialized CsrNeighbors view (neighbor_range.h).
//
// The functor contract is Ligra-style:
//
//   struct Functor {
//     // Attempt src -> dst propagation; return true iff dst's state changed
//     // (dst then joins the next frontier). Plain version: caller guarantees
//     // exclusive access to dst (pull mode, lock-held, or grid ownership).
//     bool Update(VertexId src, VertexId dst, float weight);
//     // Thread-safe version used by push mode with Sync::kAtomics.
//     bool UpdateAtomic(VertexId src, VertexId dst, float weight);
//     // Push: is dst still worth updating?  Pull: does dst still gather?
//     // Pull iteration stops scanning dst's in-edges when Cond turns false
//     // mid-scan (the paper's early-exit advantage of pull).
//     bool Cond(VertexId dst) const;
//   };
//
// Functors must be thread-compatible; all mutation goes through shared
// vertex-state arrays guarded per the selected Sync mode.
//
// Work partitioning (EdgeMapOptions::balance): every kernel can chunk its
// iteration space either by item count (Balance::kVertex — the classic
// fixed grain) or by edge cost (Balance::kEdge — chunk boundaries from a
// degree prefix sum, so a power-law hub cannot serialize its chunk). Push
// even splits a single hub's adjacency list across chunks; pull stays
// vertex-aligned (one writer per destination) but weights boundaries by
// in-degree. Chunks dispatch at grain 1 on the work-stealing pool, so
// residual imbalance is stolen around.
#ifndef SRC_ENGINE_EDGE_MAP_H_
#define SRC_ENGINE_EDGE_MAP_H_

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/engine/edge_map_scratch.h"
#include "src/engine/frontier.h"
#include "src/engine/neighbor_range.h"
#include "src/engine/options.h"
#include "src/graph/edge_list.h"
#include "src/layout/csr.h"
#include "src/layout/grid.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"
#include "src/util/spinlock.h"

namespace egraph {

// Per-call execution knobs shared by every EdgeMap kernel.
struct EdgeMapOptions {
  Sync sync = Sync::kAtomics;
  Balance balance = Balance::kEdge;
  StripedLocks* locks = nullptr;      // required when sync == Sync::kLocks
  EdgeMapScratch* scratch = nullptr;  // optional cross-round scratch reuse
};

// Smallest edge cost a balanced chunk is allowed to carry: keeps tiny
// frontiers from shattering into per-vertex dispatches.
inline constexpr int64_t kEdgeMapMinChunkCost = 1024;

namespace edge_map_internal {

// Gathers per-worker output buffers into one vector (order is arbitrary but
// deterministic given identical buffer contents). Scratch-owned buffers
// retain capacity (they are reused next round); ad-hoc buffers release
// their memory so a peak iteration does not pin it.
inline std::vector<VertexId> ConcatBuffers(std::vector<std::vector<VertexId>>& buffers,
                                           bool retain_capacity) {
  size_t total = 0;
  for (const auto& b : buffers) {
    total += b.size();
  }
  std::vector<VertexId> out;
  out.reserve(total);
  for (auto& b : buffers) {
    out.insert(out.end(), b.begin(), b.end());
    if (retain_capacity) {
      b.clear();
    } else {
      std::vector<VertexId>().swap(b);
    }
  }
  return out;
}

// Sparse round output of a push kernel: the dedup bitmap plus per-worker
// discovery buffers, borrowed from options.scratch when present and owned
// otherwise.
class PushOutput {
 public:
  PushOutput(VertexId n, const EdgeMapOptions& options)
      : n_(n), retain_capacity_(options.scratch != nullptr) {
    const int workers = ThreadPool::Current().num_threads();
    if (options.scratch != nullptr) {
      next_ = &options.scratch->RoundBitmap(n);
      buffers_ = &options.scratch->WorkerBuffers(workers);
    } else {
      owned_next_.Resize(static_cast<int64_t>(n));
      owned_buffers_.resize(static_cast<size_t>(workers));
    }
  }

  PushOutput(const PushOutput&) = delete;
  PushOutput& operator=(const PushOutput&) = delete;

  Bitmap& next() { return *next_; }
  std::vector<std::vector<VertexId>>& buffers() { return *buffers_; }

  Frontier Finish() {
    return Frontier::FromVector(n_, ConcatBuffers(*buffers_, retain_capacity_));
  }

 private:
  VertexId n_;
  bool retain_capacity_;
  Bitmap owned_next_;
  std::vector<std::vector<VertexId>> owned_buffers_;
  Bitmap* next_ = &owned_next_;
  std::vector<std::vector<VertexId>>* buffers_ = &owned_buffers_;
};

// Dense round output of a pull or full-scan kernel: the next-frontier
// bitmap (its ownership moves into the result, so scratch cannot serve it)
// plus per-worker discovery counts.
class DenseOutput {
 public:
  explicit DenseOutput(VertexId n)
      : n_(n), next_(n), counts_(static_cast<size_t>(ThreadPool::Current().num_threads()), 0) {}

  Bitmap& next() { return next_; }
  void Add(int worker, int64_t discovered) { counts_[static_cast<size_t>(worker)] += discovered; }

  Frontier Finish() {
    int64_t total = 0;
    for (const int64_t c : counts_) {
      total += c;
    }
    return Frontier::FromBitmap(n_, std::move(next_), total);
  }

 private:
  VertexId n_;
  Bitmap next_;
  std::vector<int64_t> counts_;
};

// Calls fn(locks_tag) with a compile-time bool tag for Sync::kLocks,
// hoisting the per-edge sync branch out of the push loops.
template <typename Fn>
void WithLocksTag(const EdgeMapOptions& options, Fn&& fn) {
  if (options.sync == Sync::kLocks) {
    fn(std::true_type{});
  } else {
    fn(std::false_type{});
  }
}

// Push-mode inner loop over neighbors [j_lo, j_hi) of `src`. A half-open
// sub-range, not always the full list: the edge-balanced partitioner splits
// hub adjacency lists across chunks, and the shared round bitmap keeps the
// output deduplicated regardless of which chunk wins a destination.
template <bool kUseLocks, typename Range, typename F>
inline void PushSlice(const Range& out, VertexId src, uint64_t j_lo, uint64_t j_hi, F& func,
                      StripedLocks* locks, Bitmap& next, std::vector<VertexId>& buffer,
                      int64_t& relaxed) {
  out.ForEachNeighborSlice(src, j_lo, j_hi, [&](VertexId dst, float w) {
    if (!func.Cond(dst)) {
      return;
    }
    bool updated;
    if constexpr (kUseLocks) {
      SpinlockGuard guard(locks->For(dst));
      updated = func.Update(src, dst, w);
    } else {
      updated = func.UpdateAtomic(src, dst, w);
    }
    if (updated) {
      ++relaxed;
      if (next.TestAndSet(dst)) {
        buffer.push_back(dst);
      }
    }
  });
}

// Core of the push kernel: relaxes the out-edges of `active` under the
// selected balance mode, marking discoveries in `next` and appending them to
// per-worker `buffers`.
template <typename Range, typename F>
void PushActive(const Range& out, std::span<const VertexId> active, F& func,
                const EdgeMapOptions& options, Bitmap& next,
                std::vector<std::vector<VertexId>>& buffers) {
  const int64_t m = static_cast<int64_t>(active.size());
  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  WithLocksTag(options, [&](auto ltag) {
    constexpr bool kUseLocks = decltype(ltag)::value;
    if (options.balance == Balance::kEdge) {
      std::vector<uint64_t> local_prefix;
      std::vector<uint64_t>& prefix =
          options.scratch != nullptr ? options.scratch->PrefixStorage() : local_prefix;
      prefix.resize(static_cast<size_t>(m));
      ParallelFor(0, m, [&](int64_t i) {
        prefix[static_cast<size_t>(i)] = out.Degree(active[static_cast<size_t>(i)]);
      });
      const uint64_t total = ParallelExclusiveScan(prefix);
      const int64_t num_chunks = BalancedChunkCount(total, kEdgeMapMinChunkCost);
      const uint64_t target =
          (total + static_cast<uint64_t>(num_chunks) - 1) / static_cast<uint64_t>(num_chunks);
      ParallelForChunks(
          0, num_chunks, /*grain=*/1, [&](int64_t chunk_lo, int64_t chunk_hi, int worker) {
            auto& buffer = buffers[static_cast<size_t>(worker)];
            for (int64_t c = chunk_lo; c < chunk_hi; ++c) {
              const uint64_t p0 = static_cast<uint64_t>(c) * target;
              const uint64_t p1 = std::min<uint64_t>(p0 + target, total);
              if (p0 >= p1) {
                continue;
              }
              obs::TimelineSpan chunk_span("engine", "edgemap.chunk",
                                           static_cast<int64_t>(p1 - p0));
              // Vertex containing position p0: last i with prefix[i] <= p0
              // (skips any zero-degree plateau ending at p0).
              int64_t i =
                  std::upper_bound(prefix.begin(), prefix.end(), p0) - prefix.begin() - 1;
              uint64_t pos = p0;
              int64_t relaxed = 0;
              while (pos < p1) {
                const VertexId src = active[static_cast<size_t>(i)];
                const uint64_t base = prefix[static_cast<size_t>(i)];
                const uint64_t degree = out.Degree(src);
                const uint64_t j_lo = pos - base;
                const uint64_t j_hi = std::min<uint64_t>(degree, p1 - base);
                if (j_lo < j_hi) {
                  PushSlice<kUseLocks>(out, src, j_lo, j_hi, func, options.locks, next, buffer,
                                       relaxed);
                }
                pos = base + j_hi;
                ++i;
              }
              metrics.edges_scanned.Add(static_cast<int64_t>(p1 - p0));
              metrics.edges_relaxed.Add(relaxed);
            }
          });
    } else {
      ParallelForChunks(0, m, /*grain=*/64, [&](int64_t lo, int64_t hi, int worker) {
        auto& buffer = buffers[static_cast<size_t>(worker)];
        const uint64_t span_start = obs::TimelineNow();
        int64_t scanned = 0;
        int64_t relaxed = 0;
        for (int64_t i = lo; i < hi; ++i) {
          const VertexId src = active[static_cast<size_t>(i)];
          const uint64_t degree = out.Degree(src);
          PushSlice<kUseLocks>(out, src, 0, degree, func, options.locks, next, buffer, relaxed);
          scanned += static_cast<int64_t>(degree);
        }
        metrics.edges_scanned.Add(scanned);
        metrics.edges_relaxed.Add(relaxed);
        obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, scanned);
      });
    }
  });
}

// One pull chunk over destinations [lo, hi): gathers every destination that
// satisfies Cond from its in-neighbors present in the frontier, and stops a
// destination early once Cond turns false (paper section 6.1.1: "the pull
// approach allows stopping the computation for a vertex in the middle of an
// iteration"). The frontier membership test is word-batched: one bitmap
// word load covers up to 64 consecutive sources (sorted adjacency makes
// consecutive hits the common case). Each destination has one writer, so
// plain Update suffices. Records the worker's discoveries and publishes the
// edge counters.
template <typename Range, typename F>
void PullChunk(const Range& in, const Bitmap& active_bits, F& func, int64_t lo, int64_t hi,
               int worker, DenseOutput& output) {
  const uint64_t span_start = obs::TimelineNow();
  Bitmap& next = output.next();
  int64_t discovered = 0;
  int64_t scanned = 0;
  int64_t relaxed = 0;
  int64_t cached_word_index = -1;
  uint64_t cached_word = 0;
  for (int64_t v = lo; v < hi; ++v) {
    const VertexId dst = static_cast<VertexId>(v);
    if (!func.Cond(dst)) {
      continue;
    }
    bool updated = false;
    in.ForEachNeighborWhile(dst, [&](VertexId src, float w) {
      ++scanned;
      const int64_t word_index = static_cast<int64_t>(src >> 6);
      if (word_index != cached_word_index) {
        cached_word_index = word_index;
        cached_word = active_bits.Word(word_index);
      }
      if (((cached_word >> (src & 63)) & 1ULL) == 0) {
        return true;
      }
      if (func.Update(src, dst, w)) {
        updated = true;
        ++relaxed;
      }
      return func.Cond(dst);  // false: dst is done for this round
    });
    if (updated) {
      next.Set(v);
      ++discovered;
    }
  }
  output.Add(worker, discovered);
  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edges_scanned.Add(scanned);
  metrics.edges_relaxed.Add(relaxed);
  obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, scanned);
}

}  // namespace edge_map_internal

// --- CSR push (paper: enables working on the active subset) ----------------
//
// Sync::kAtomics uses Functor::UpdateAtomic; Sync::kLocks wraps plain
// Update in a striped spinlock keyed by dst (`options.locks` must outlive
// the call). Returns a sparse next frontier (deduplicated via a round
// bitmap).
//
// Balance::kEdge partitions the frontier's concatenated adjacency *edge
// positions* [0, sum of active degrees): an exclusive prefix sum over active
// degrees maps a position range to (vertex, neighbor sub-range) pairs, so a
// mega-hub's list is split across as many chunks as its degree warrants.
template <typename F>
Frontier EdgeMapCsrPush(const Csr& out, Frontier& frontier, F& func,
                        const EdgeMapOptions& options) {
  frontier.EnsureSparse();
  const auto& active = frontier.Vertices();
  obs::EngineCounters::Get().edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.push", static_cast<int64_t>(active.size()));

  edge_map_internal::PushOutput output(out.num_vertices(), options);
  WithNeighbors(out, [&](const auto& range) {
    edge_map_internal::PushActive(range, std::span<const VertexId>(active), func, options,
                                  output.next(), output.buffers());
  });
  return output.Finish();
}

// --- CSR pull (lock-free: each dst is written by one thread) ---------------
//
// Balance::kEdge keeps chunks vertex-aligned (each destination has exactly
// one writer) but picks the boundaries from the offsets, with
// cost(v) = in-degree(v) + 1.
template <typename F>
Frontier EdgeMapCsrPull(const Csr& in, Frontier& frontier, F& func,
                        const EdgeMapOptions& options) {
  const VertexId n = in.num_vertices();
  frontier.EnsureDense();
  obs::EngineCounters::Get().edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.pull", frontier.Count());

  edge_map_internal::DenseOutput output(n);
  const Bitmap& active_bits = frontier.bitmap();
  WithNeighbors(in, [&](const auto& range) {
    auto chunk_body = [&](int64_t lo, int64_t hi, int worker) {
      edge_map_internal::PullChunk(range, active_bits, func, lo, hi, worker, output);
    };
    if (options.balance == Balance::kEdge) {
      ParallelForBalancedChunks(CostBalancedBounds(range, kEdgeMapMinChunkCost), chunk_body);
    } else {
      ParallelForChunks(0, static_cast<int64_t>(n), /*grain=*/256, chunk_body);
    }
  });
  return output.Finish();
}

// --- Edge array (edge-centric: always a full scan; paper section 4.1) ------
//
// Per-edge cost is uniform, so Balance::kEdge here means an adaptive chunk
// size (~kBalancedChunksPerWorker chunks per worker) instead of the fixed
// 4096 grain — equal counts already are equal cost.
template <typename F>
Frontier EdgeMapEdgeArray(const EdgeList& graph, Frontier& frontier, F& func,
                          const EdgeMapOptions& options) {
  const VertexId n = graph.num_vertices();
  frontier.EnsureDense();
  const auto& edges = graph.edges();
  const int64_t num_edges = static_cast<int64_t>(edges.size());

  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.edgearray", num_edges);

  edge_map_internal::DenseOutput output(n);
  Bitmap& next = output.next();

  int64_t grain = 4096;
  if (options.balance == Balance::kEdge) {
    const int64_t num_chunks =
        BalancedChunkCount(static_cast<uint64_t>(num_edges), kEdgeMapMinChunkCost);
    grain = std::max<int64_t>(1, (num_edges + num_chunks - 1) / num_chunks);
  }

  const bool weighted = graph.has_weights();
  const auto& weights = graph.weights();
  const bool use_locks = options.sync == Sync::kLocks;

  ParallelForChunks(
      0, num_edges, grain, [&](int64_t lo, int64_t hi, int worker) {
        const uint64_t span_start = obs::TimelineNow();
        int64_t local = 0;
        int64_t relaxed = 0;
        for (int64_t i = lo; i < hi; ++i) {
          const Edge& e = edges[static_cast<size_t>(i)];
          if (!frontier.Contains(e.src) || !func.Cond(e.dst)) {
            continue;
          }
          const float w = weighted ? weights[static_cast<size_t>(i)] : 1.0f;
          bool updated;
          if (use_locks) {
            SpinlockGuard guard(options.locks->For(e.dst));
            updated = func.Update(e.src, e.dst, w);
          } else {
            updated = func.UpdateAtomic(e.src, e.dst, w);
          }
          if (updated) {
            ++relaxed;
            if (next.TestAndSet(e.dst)) {
              ++local;
            }
          }
        }
        output.Add(worker, local);
        metrics.edges_scanned.Add(hi - lo);  // edge-centric: every edge is touched
        metrics.edges_relaxed.Add(relaxed);
        obs::TimelineEndSpan("engine", "edgemap.chunk", span_start, hi - lo);
      });

  return output.Finish();
}

// --- Grid ------------------------------------------------------------------
//
// Sync::kLockFree exploits the grid's natural partition (paper section
// 6.1.2): each thread owns a set of destination blocks (columns), so all
// writes are exclusive and plain Update suffices — regardless of push/pull
// direction. Columns are dispatched in descending per-column edge count:
// the pool preloads grain-1 work items round-robin, so the sorted order is
// a static greedy assignment (heaviest columns spread across workers first)
// with stealing mopping up the tail. Columns cannot be split — ownership is
// the point — so the balance knob does not apply here.
//
// Sync::kLocks / kAtomics iterate cells row-major (best source locality)
// with synchronized updates; Balance::kEdge groups the row-major cell
// sequence into chunks of roughly equal edge count using the grid's
// cell_offsets array as a ready-made cost prefix.
template <typename F>
Frontier EdgeMapGrid(const Grid& grid, Frontier& frontier, F& func,
                     const EdgeMapOptions& options) {
  const VertexId n = grid.num_vertices();
  frontier.EnsureDense();
  const uint32_t blocks = grid.num_blocks();

  obs::EngineCounters& metrics = obs::EngineCounters::Get();
  metrics.edgemap_calls.Add(1);
  obs::TimelineSpan timeline_span("engine", "edgemap.grid", frontier.Count());

  edge_map_internal::DenseOutput output(n);
  Bitmap& next = output.next();
  const bool weighted = grid.has_weights();
  const auto& cell_offsets = grid.cell_offsets();

  auto process_cell = [&](uint32_t i, uint32_t j, int worker, bool owned) {
    const auto cell = grid.Cell(i, j);
    const auto weights = grid.CellWeights(i, j);
    int64_t local = 0;
    int64_t relaxed = 0;
    for (size_t k = 0; k < cell.size(); ++k) {
      const Edge& e = cell[k];
      if (!frontier.Contains(e.src) || !func.Cond(e.dst)) {
        continue;
      }
      const float w = weighted ? weights[k] : 1.0f;
      bool updated;
      if (owned) {
        updated = func.Update(e.src, e.dst, w);
      } else if (options.sync == Sync::kLocks) {
        SpinlockGuard guard(options.locks->For(e.dst));
        updated = func.Update(e.src, e.dst, w);
      } else {
        updated = func.UpdateAtomic(e.src, e.dst, w);
      }
      if (updated) {
        ++relaxed;
        if (next.TestAndSet(e.dst)) {
          ++local;
        }
      }
    }
    output.Add(worker, local);
    metrics.edges_scanned.Add(static_cast<int64_t>(cell.size()));
    metrics.edges_relaxed.Add(relaxed);
  };

  if (options.sync == Sync::kLockFree) {
    // Column ownership: thread processing column j is the only writer of
    // destination block j. Schedule heavy columns first.
    std::vector<uint64_t> column_edges(blocks, 0);
    ParallelFor(0, static_cast<int64_t>(blocks), [&](int64_t j) {
      uint64_t sum = 0;
      for (uint32_t i = 0; i < blocks; ++i) {
        const size_t c = grid.CellIndex(i, static_cast<uint32_t>(j));
        sum += cell_offsets[c + 1] - cell_offsets[c];
      }
      column_edges[static_cast<size_t>(j)] = sum;
    });
    std::vector<uint32_t> order(blocks);
    for (uint32_t j = 0; j < blocks; ++j) {
      order[j] = j;
    }
    std::stable_sort(order.begin(), order.end(), [&column_edges](uint32_t a, uint32_t b) {
      return column_edges[a] > column_edges[b];
    });
    ParallelForChunks(0, static_cast<int64_t>(blocks), /*grain=*/1,
                      [&](int64_t lo, int64_t hi, int worker) {
                        for (int64_t idx = lo; idx < hi; ++idx) {
                          const uint32_t j = order[static_cast<size_t>(idx)];
                          const uint64_t span_start = obs::TimelineNow();
                          for (uint32_t i = 0; i < blocks; ++i) {
                            process_cell(i, j, worker, /*owned=*/true);
                          }
                          obs::TimelineEndSpan("engine", "edgemap.chunk", span_start,
                                               static_cast<int64_t>(column_edges[j]));
                        }
                      });
  } else if (options.balance == Balance::kEdge) {
    // Row-major cell scan grouped into equal-edge chunks: cell_offsets is
    // row-major, so it is exactly the cost prefix the partitioner needs.
    const int64_t num_cells = static_cast<int64_t>(blocks) * blocks;
    const int64_t num_chunks = BalancedChunkCount(grid.num_edges(), kEdgeMapMinChunkCost);
    const std::vector<int64_t> bounds =
        BalancedChunkBoundaries(num_cells, num_chunks, [&cell_offsets](int64_t c) {
          return cell_offsets[static_cast<size_t>(c)];
        });
    ParallelForBalancedChunks(bounds, [&](int64_t lo, int64_t hi, int worker) {
      const uint64_t span_start = obs::TimelineNow();
      for (int64_t c = lo; c < hi; ++c) {
        const uint32_t i = static_cast<uint32_t>(c / blocks);
        const uint32_t j = static_cast<uint32_t>(c % blocks);
        process_cell(i, j, worker, /*owned=*/false);
      }
      obs::TimelineEndSpan(
          "engine", "edgemap.chunk", span_start,
          static_cast<int64_t>(cell_offsets[static_cast<size_t>(hi)] -
                               cell_offsets[static_cast<size_t>(lo)]));
    });
  } else {
    // Row-major cell scan with synchronized destination updates.
    ParallelForChunks(0, static_cast<int64_t>(blocks) * blocks, /*grain=*/1,
                      [&](int64_t lo, int64_t hi, int worker) {
                        for (int64_t c = lo; c < hi; ++c) {
                          const uint32_t i = static_cast<uint32_t>(c / blocks);
                          const uint32_t j = static_cast<uint32_t>(c % blocks);
                          process_cell(i, j, worker, /*owned=*/false);
                        }
                      });
  }

  return output.Finish();
}

}  // namespace egraph

#endif  // SRC_ENGINE_EDGE_MAP_H_
