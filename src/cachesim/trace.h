// Memory-access trace replayers: feed the CacheModel the same access pattern
// each layout's inner loop performs, so LLC miss ratios can be reported
// without hardware counters.
//
// Every replay distinguishes the three access classes the paper identifies
// (section 5): fetching an edge, fetching source-vertex metadata, fetching
// destination-vertex metadata. `meta_bytes` is the per-vertex metadata
// footprint: ~1 byte for BFS (a cache line covers 64 vertices, per the
// paper) and ~10 bytes for Pagerank (a cache line fits ~6 vertices).
//
// Arrays live at disjoint virtual bases; addresses never collide across
// arrays. Replays are sequential (single simulated core): ratios, not
// throughput, are the output.
#ifndef SRC_CACHESIM_TRACE_H_
#define SRC_CACHESIM_TRACE_H_

#include <vector>

#include "src/cachesim/cache_model.h"
#include "src/graph/edge_list.h"
#include "src/layout/csr.h"
#include "src/layout/grid.h"

namespace egraph {

// --- Algorithm-pass traces (paper Table 4) --------------------------------

// One edge-centric pass over the edge array: streamed edges, random vertex
// metadata.
void TraceEdgeArrayPass(CacheModel& cache, const EdgeList& graph, uint32_t meta_bytes);

// One vertex-centric pass over an out-CSR: source metadata cached per
// vertex, streamed neighbor arrays, random destination metadata.
void TraceAdjacencyPass(CacheModel& cache, const Csr& out, uint32_t meta_bytes);

// One grid pass (row-major cells): while a cell is processed both endpoint
// blocks fit in cache, which is the mechanism behind the paper's halved miss
// ratio.
void TraceGridPass(CacheModel& cache, const Grid& grid, uint32_t meta_bytes);

// --- Concurrent-serve traces (fork-processing pattern) ---------------------
//
// Model the LLC behaviour of `num_queries` concurrent whole-graph sweeps
// over one shared CSR: the mechanism behind "Cache-Efficient Fork-Processing
// Patterns on Large Graphs" (PAPERS.md). It exists only as these replays
// because, executed, the schedule lost to isolated sessions on the wall
// clock at every measured concurrency (EXPERIMENTS.md, deviation 4).
// Per-query vertex metadata lives at disjoint bases (queries never share
// state); the offsets and neighbors arrays are shared (queries traverse one
// frozen handle). The two replays interleave the same per-vertex access
// sequence two ways:
//
//   Isolated — each query sweeps the full vertex range independently;
//   sweeps are interleaved chunk-round-robin with staggered start offsets,
//   approximating N unsynchronized workers. Every query streams the whole
//   edge array through the cache by itself.
//
//   Batched — queries advance partition-lockstep: all queries drain
//   partition p before any moves to p+1 (the boundaries come from
//   ComputeLlcPartitionBoundaries). The partition's slice of the shared
//   offsets/neighbors arrays stays resident while every query's pass over it
//   runs, so the cohort fetches it once instead of num_queries times.

// Cuts [0, n) into contiguous vertex ranges sized so one range's share of
// the CSR (edges + offsets) plus per-query vertex state fits in roughly half
// of `cache_bytes`. Returns P+1 boundaries with boundaries[0] == 0 and
// boundaries[P] == n; P >= 1 always (a graph smaller than the budget yields
// a single partition). Boundaries are edge-balanced — a mega-hub cannot drag
// its whole neighborhood into one oversized partition beyond its own
// adjacency list.
std::vector<VertexId> ComputeLlcPartitionBoundaries(const Csr& out, uint64_t cache_bytes);

void TraceServeIsolated(CacheModel& cache, const Csr& out, int num_queries,
                        uint32_t meta_bytes, VertexId chunk_vertices);

void TraceServeBatched(CacheModel& cache, const Csr& out, int num_queries,
                       uint32_t meta_bytes, const std::vector<VertexId>& boundaries);

// --- Push write-stream traces (shard aggregation) ---------------------------
//
// The 4-byte vertex-state write stream of one all-active push round over an
// out-CSR. Like the serve replays, it exists only as these replays because,
// executed, owner aggregation lost to the striped-lock and atomic push on the
// wall clock up to scale 23 on 4 cores (EXPERIMENTS.md, deviation 4).
//
//   Scatter — one random state write per edge, in edge order: what the
//   striped-lock (or atomic) push does.
//
//   Owner-aggregated (Grappa-style) — `shard_bounds` cuts [0, n) into
//   contiguous shards (RangeOwner semantics). A write to a vertex the
//   source's shard owns stays in place; every other edge becomes a
//   sequential 16-byte append into the (source shard, owner shard) pair's
//   L1-resident 4 KiB batch, and a second phase drains each pair's batch, in
//   order, into the owner shard's range.
void TracePushScatterWrites(CacheModel& cache, const Csr& out);

void TracePushAggregatedWrites(CacheModel& cache, const Csr& out,
                               const std::vector<VertexId>& shard_bounds);

// --- Pre-processing traces (paper Table 2) --------------------------------

// Dynamic adjacency building: streamed input, per-vertex append targets
// scattered across the heap.
void TraceDynamicBuild(CacheModel& cache, const EdgeList& graph);

// Count sort: counting pass (random degree increments) + placement pass
// (random scatter through per-vertex cursors).
void TraceCountSortBuild(CacheModel& cache, const EdgeList& graph);

// Radix sort: the two-pass build's split by the top digit (2^digit_bits
// sequentially advancing bucket cursors), then its per-bucket placement.
void TraceRadixSortBuild(CacheModel& cache, const EdgeList& graph, int digit_bits = 8);

}  // namespace egraph

#endif  // SRC_CACHESIM_TRACE_H_
