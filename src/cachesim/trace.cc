#include "src/cachesim/trace.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "src/layout/range_partition.h"
#include "src/util/parallel.h"

namespace egraph {
namespace {

// Disjoint virtual address regions; replays never allocate real memory at
// these addresses.
constexpr uint64_t kEdgesBase = 0x1'0000'0000ULL;
constexpr uint64_t kMetaBase = 0x20'0000'0000ULL;
constexpr uint64_t kOffsetsBase = 0x30'0000'0000ULL;
constexpr uint64_t kNeighborsBase = 0x40'0000'0000ULL;
constexpr uint64_t kScratchBase = 0x50'0000'0000ULL;
constexpr uint64_t kCursorBase = 0x60'0000'0000ULL;
constexpr uint64_t kHeapBase = 0x1000'0000'0000ULL;

// Per-vertex state bytes a resident partition drags along beside its CSR
// slice: the queries' 4-byte vertex values (parent / dist / label / rank)
// plus frontier bookkeeping, for a handful of concurrent queries. A rough
// constant on purpose — undersizing partitions costs a little scheduling
// overhead, oversizing them forfeits the cache residency.
constexpr uint64_t kStateBytesPerVertex = 24;

// Shard-aggregation replays: 4-byte vertex state, 16-byte buffered updates
// ({src, dst, weight, pad}: 4 per line) in 4 KiB per-pair batches.
constexpr uint32_t kPushStateBytes = 4;
constexpr uint64_t kPushUpdateBytes = 16;
constexpr uint64_t kPushBatchBytes = 4096;

uint64_t MetaAddr(VertexId v, uint32_t meta_bytes) {
  return kMetaBase + static_cast<uint64_t>(v) * meta_bytes;
}

// Per-query vertex metadata for the serve replays: each concurrent query
// owns a private state array, placed in a fresh high region far above every
// shared-array base so queries never alias each other or the CSR.
constexpr uint64_t kServeMetaBase = 0x100'0000'0000ULL;
constexpr uint64_t kServeMetaStride = 0x10'0000'0000ULL;

uint64_t ServeMetaAddr(int query, VertexId v, uint32_t meta_bytes) {
  return kServeMetaBase + static_cast<uint64_t>(query) * kServeMetaStride +
         static_cast<uint64_t>(v) * meta_bytes;
}

// One query's adjacency pass over the vertex range [lo, hi): the same access
// classes as TraceAdjacencyPass, with the vertex metadata privatized to the
// query and the offsets/neighbors arrays shared across queries.
void ServeSweepRange(CacheModel& cache, const Csr& out, int query, uint32_t meta_bytes,
                     VertexId lo, VertexId hi) {
  for (VertexId v = lo; v < hi; ++v) {
    cache.Access(kOffsetsBase + static_cast<uint64_t>(v) * sizeof(EdgeIndex));
    const auto neighbors = out.Neighbors(v);
    if (neighbors.empty()) {
      continue;
    }
    cache.Access(ServeMetaAddr(query, v, meta_bytes));
    const uint64_t position = out.offsets()[v];
    for (size_t j = 0; j < neighbors.size(); ++j) {
      cache.Access(kNeighborsBase + (position + j) * sizeof(VertexId));
      cache.Access(ServeMetaAddr(query, neighbors[j], meta_bytes));
    }
  }
}

}  // namespace

void TraceEdgeArrayPass(CacheModel& cache, const EdgeList& graph, uint32_t meta_bytes) {
  const auto& edges = graph.edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    cache.Access(MetaAddr(edges[i].src, meta_bytes));
    cache.Access(MetaAddr(edges[i].dst, meta_bytes));
  }
}

void TraceAdjacencyPass(CacheModel& cache, const Csr& out, uint32_t meta_bytes) {
  for (VertexId v = 0; v < out.num_vertices(); ++v) {
    cache.Access(kOffsetsBase + static_cast<uint64_t>(v) * sizeof(EdgeIndex));
    const auto neighbors = out.Neighbors(v);
    if (neighbors.empty()) {
      continue;
    }
    // Source metadata is fetched once and stays register/L1-resident for the
    // whole per-vertex loop.
    cache.Access(MetaAddr(v, meta_bytes));
    const uint64_t position = out.offsets()[v];
    for (size_t j = 0; j < neighbors.size(); ++j) {
      cache.Access(kNeighborsBase + (position + j) * sizeof(VertexId));
      cache.Access(MetaAddr(neighbors[j], meta_bytes));
    }
  }
}

void TraceGridPass(CacheModel& cache, const Grid& grid, uint32_t meta_bytes) {
  const uint32_t blocks = grid.num_blocks();
  for (uint32_t i = 0; i < blocks; ++i) {
    for (uint32_t j = 0; j < blocks; ++j) {
      const auto cell = grid.Cell(i, j);
      const uint64_t base = grid.cell_offsets()[grid.CellIndex(i, j)];
      for (size_t k = 0; k < cell.size(); ++k) {
        cache.Access(kEdgesBase + (base + k) * sizeof(Edge));
        cache.Access(MetaAddr(cell[k].src, meta_bytes));
        cache.Access(MetaAddr(cell[k].dst, meta_bytes));
      }
    }
  }
}

std::vector<VertexId> ComputeLlcPartitionBoundaries(const Csr& out, uint64_t cache_bytes) {
  const VertexId n = out.num_vertices();
  if (n == 0) {
    return {0, 0};
  }
  const uint64_t edge_bytes = out.has_weights() ? 8 : 4;
  const auto& offsets = out.offsets();
  // Resident bytes of the vertex prefix [0, v): its CSR slice plus
  // per-query vertex state. Monotone, so it doubles as the cost prefix the
  // balanced partitioner binary-searches.
  auto pos = [&offsets, edge_bytes](int64_t v) {
    return static_cast<uint64_t>(offsets[static_cast<size_t>(v)]) * edge_bytes +
           static_cast<uint64_t>(v) * kStateBytesPerVertex;
  };
  const uint64_t total = pos(static_cast<int64_t>(n));
  // Target half the LLC per partition: the other half absorbs the queries'
  // own frontier traffic and whatever else the machine is doing.
  const uint64_t budget = std::max<uint64_t>(cache_bytes / 2, 1);
  int64_t parts = static_cast<int64_t>((total + budget - 1) / budget);
  parts = std::clamp<int64_t>(parts, 1, static_cast<int64_t>(n));
  const std::vector<int64_t> bounds =
      BalancedChunkBoundaries(static_cast<int64_t>(n), parts, pos);
  std::vector<VertexId> boundaries(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    boundaries[i] = static_cast<VertexId>(bounds[i]);
  }
  return boundaries;
}

void TraceServeIsolated(CacheModel& cache, const Csr& out, int num_queries,
                        uint32_t meta_bytes, VertexId chunk_vertices) {
  const VertexId n = out.num_vertices();
  if (n == 0 || num_queries <= 0) {
    return;
  }
  if (chunk_vertices == 0) {
    chunk_vertices = 1;
  }
  // Each query sweeps all n vertices starting at its own offset (q * n / Q):
  // unsynchronized workers are spread across the graph, so one query's
  // freshly-fetched edge lines do NOT happen to serve the next query — which
  // is exactly the thrash the batched schedule removes. Chunks interleave
  // round-robin to model the sweeps progressing concurrently on one LLC.
  std::vector<VertexId> cursor(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    cursor[static_cast<size_t>(q)] = static_cast<VertexId>(
        (static_cast<uint64_t>(q) * n) / static_cast<uint64_t>(num_queries));
  }
  std::vector<VertexId> remaining(static_cast<size_t>(num_queries), n);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int q = 0; q < num_queries; ++q) {
      VertexId& left = remaining[static_cast<size_t>(q)];
      if (left == 0) {
        continue;
      }
      progressed = true;
      const VertexId take = std::min(chunk_vertices, left);
      VertexId v = cursor[static_cast<size_t>(q)];
      for (VertexId step = 0; step < take; ++step) {
        ServeSweepRange(cache, out, q, meta_bytes, v, v + 1);
        v = v + 1 == n ? 0 : v + 1;  // wrap: the sweep covers all of [0, n)
      }
      cursor[static_cast<size_t>(q)] = v;
      left -= take;
    }
  }
}

void TraceServeBatched(CacheModel& cache, const Csr& out, int num_queries,
                       uint32_t meta_bytes, const std::vector<VertexId>& boundaries) {
  if (out.num_vertices() == 0 || num_queries <= 0) {
    return;
  }
  // Partition-lockstep: every query's pass over partition p runs before any
  // query touches p+1, so the partition's slice of the shared CSR is fetched
  // by the first query and re-hit by the rest while still resident.
  for (size_t p = 0; p + 1 < boundaries.size(); ++p) {
    for (int q = 0; q < num_queries; ++q) {
      ServeSweepRange(cache, out, q, meta_bytes, boundaries[p], boundaries[p + 1]);
    }
  }
}

void TracePushScatterWrites(CacheModel& cache, const Csr& out) {
  for (VertexId src = 0; src < out.num_vertices(); ++src) {
    for (const VertexId dst : out.Neighbors(src)) {
      cache.Access(MetaAddr(dst, kPushStateBytes));
    }
  }
}

void TracePushAggregatedWrites(CacheModel& cache, const Csr& out,
                               const std::vector<VertexId>& shard_bounds) {
  const size_t shards = shard_bounds.size() - 1;
  auto batch_address = [](size_t pair, uint64_t index) {
    return kScratchBase + static_cast<uint64_t>(pair) * kPushBatchBytes +
           (index * kPushUpdateBytes) % kPushBatchBytes;
  };
  std::vector<std::vector<VertexId>> pending(shards * shards);
  for (size_t s = 0; s < shards; ++s) {
    for (VertexId src = shard_bounds[s]; src < shard_bounds[s + 1]; ++src) {
      for (const VertexId dst : out.Neighbors(src)) {
        const size_t t = static_cast<size_t>(RangeOwner(shard_bounds, dst));
        if (t == s) {
          cache.Access(MetaAddr(dst, kPushStateBytes));
          continue;
        }
        std::vector<VertexId>& batch = pending[s * shards + t];
        cache.AccessRange(batch_address(s * shards + t, batch.size()), kPushUpdateBytes);
        batch.push_back(dst);
      }
    }
  }
  // Drain: each owner shard reads its inbound batches in order and applies
  // the writes inside its own range.
  for (size_t t = 0; t < shards; ++t) {
    for (size_t s = 0; s < shards; ++s) {
      const std::vector<VertexId>& batch = pending[s * shards + t];
      for (size_t i = 0; i < batch.size(); ++i) {
        cache.AccessRange(batch_address(s * shards + t, i), kPushUpdateBytes);
        cache.Access(MetaAddr(batch[i], kPushStateBytes));
      }
    }
  }
}

void TraceDynamicBuild(CacheModel& cache, const EdgeList& graph) {
  const auto& edges = graph.edges();
  // Each vertex's growable array lives in its own heap neighborhood; appends
  // to a vertex are adjacent, appends across vertices are far apart.
  std::vector<uint32_t> lengths(graph.num_vertices(), 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    const VertexId v = edges[i].src;
    // Vector header (size/capacity/pointer) then the append slot.
    cache.Access(kOffsetsBase + static_cast<uint64_t>(v) * 16);
    cache.Access(kHeapBase + static_cast<uint64_t>(v) * (1u << 16) +
                 static_cast<uint64_t>(lengths[v]) * sizeof(VertexId));
    ++lengths[v];
  }
}

void TraceCountSortBuild(CacheModel& cache, const EdgeList& graph) {
  const auto& edges = graph.edges();
  // Pass 1: degree counting (random increments).
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    cache.Access(kCursorBase + static_cast<uint64_t>(edges[i].src) * sizeof(uint32_t));
  }
  // Offsets scan: sequential over V.
  cache.AccessRange(kOffsetsBase, (static_cast<uint64_t>(graph.num_vertices()) + 1) *
                                      sizeof(EdgeIndex));
  // Pass 2: placement through per-vertex cursors (random scatter).
  std::vector<uint64_t> degree(graph.num_vertices(), 0);
  for (const Edge& e : edges) {
    ++degree[e.src];
  }
  std::vector<uint64_t> cursor(graph.num_vertices() + 1, 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    cursor[v + 1] = cursor[v] + degree[v];
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    const VertexId v = edges[i].src;
    cache.Access(kCursorBase + static_cast<uint64_t>(v) * sizeof(uint64_t));
    cache.Access(kNeighborsBase + cursor[v] * sizeof(VertexId));
    ++cursor[v];
  }
}

void TraceRadixSortBuild(CacheModel& cache, const EdgeList& graph, int digit_bits) {
  const auto& edges = graph.edges();
  const uint64_t n = graph.num_vertices();
  const int key_bits = n <= 1 ? 1 : std::bit_width(n - 1);
  const int shift = std::max(key_bits - digit_bits, 0);
  const uint64_t num_buckets = n == 0 ? 0 : ((n - 1) >> shift) + 1;

  // Split: a histogram read of the edge array (the per-bucket counters are
  // tiny and always cached, so they are not traced), then a second read that
  // scatters {key, value} records bucket-sequentially into scratch.
  std::vector<uint64_t> bucket_start(num_buckets + 1, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    ++bucket_start[(edges[i].src >> shift) + 1];
  }
  for (uint64_t b = 0; b < num_buckets; ++b) {
    bucket_start[b + 1] += bucket_start[b];
  }
  std::vector<uint64_t> cursors(bucket_start.begin(), bucket_start.end() - 1);
  std::vector<VertexId> scratch(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.Access(kEdgesBase + i * sizeof(Edge));
    const uint64_t slot = cursors[edges[i].src >> shift]++;
    cache.Access(kScratchBase + slot * sizeof(Edge));
    scratch[slot] = edges[i].src;
  }

  // Place: per bucket, a degree-count read of its scratch slice, its offsets
  // range, then a second read that writes into the bucket's slice of
  // neighbors (the per-vertex cursors are cache-resident, so not traced).
  for (uint64_t b = 0; b < num_buckets; ++b) {
    const uint64_t first = b << shift;
    const uint64_t last = std::min(first + (uint64_t{1} << shift), n);
    std::vector<uint64_t> cursor(last - first + 1, 0);
    for (uint64_t i = bucket_start[b]; i < bucket_start[b + 1]; ++i) {
      cache.Access(kScratchBase + i * sizeof(Edge));
      ++cursor[scratch[i] - first + 1];
    }
    cursor[0] = bucket_start[b];
    for (uint64_t v = 1; v < cursor.size(); ++v) {
      cursor[v] += cursor[v - 1];
    }
    cache.AccessRange(kOffsetsBase + first * sizeof(EdgeIndex),
                      (last - first) * sizeof(EdgeIndex));
    for (uint64_t i = bucket_start[b]; i < bucket_start[b + 1]; ++i) {
      cache.Access(kScratchBase + i * sizeof(Edge));
      cache.Access(kNeighborsBase + cursor[scratch[i] - first]++ * sizeof(VertexId));
    }
  }
}

}  // namespace egraph
