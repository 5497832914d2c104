// Cache model tests: hand-computed hit/miss sequences, LRU and
// associativity behavior, then the layout traces — whose relative miss
// ratios must reproduce the orderings in the paper's Tables 2 and 4 — and
// the LLC partitioner behind the concurrent-serve replays and the shard cuts
// behind the owner-aggregated write-stream replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/cachesim/cache_model.h"
#include "src/cachesim/trace.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/layout/csr_builder.h"
#include "src/layout/grid.h"
#include "src/layout/range_partition.h"

namespace egraph {
namespace {

CacheConfig TinyCache(uint64_t size, uint32_t assoc, uint32_t line = 64) {
  CacheConfig config;
  config.size_bytes = size;
  config.associativity = assoc;
  config.line_bytes = line;
  return config;
}

TEST(CacheModel, FirstAccessMissesSecondHits) {
  CacheModel cache(TinyCache(4096, 4));
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(63));   // same line
  EXPECT_FALSE(cache.Access(64));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheModel, LruEvictsOldestWay) {
  // 1 set x 2 ways x 64-byte lines = 128-byte cache; identical set index for
  // all aligned addresses.
  CacheModel cache(TinyCache(128, 2));
  const uint64_t a = 0;
  const uint64_t b = 1 << 12;
  const uint64_t c = 2 << 12;
  EXPECT_FALSE(cache.Access(a));
  EXPECT_FALSE(cache.Access(b));
  EXPECT_TRUE(cache.Access(a));   // refresh a: b becomes LRU
  EXPECT_FALSE(cache.Access(c));  // evicts b
  EXPECT_TRUE(cache.Access(a));
  EXPECT_FALSE(cache.Access(b));  // b was evicted
}

TEST(CacheModel, AssociativityHoldsConflictingLines) {
  CacheModel cache(TinyCache(64 * 8, 8));  // 1 set, 8 ways
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.Access(i << 12));
  }
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(cache.Access(i << 12)) << i;  // all 8 still resident
  }
}

TEST(CacheModel, SequentialStreamMissesOncePerLine) {
  CacheModel cache(TinyCache(1 << 20, 16));
  for (uint64_t addr = 0; addr < 64 * 100; addr += 8) {
    cache.Access(addr);
  }
  EXPECT_EQ(cache.misses(), 100u);
  EXPECT_EQ(cache.accesses(), 64u / 8 * 100);
}

TEST(CacheModel, AccessRangeTouchesEveryLine) {
  CacheModel cache(TinyCache(1 << 20, 16));
  cache.AccessRange(10, 300);  // spans lines 0..4
  EXPECT_EQ(cache.misses(), 5u);
}

TEST(CacheModel, ResetCountersKeepsContents) {
  CacheModel cache(TinyCache(4096, 4));
  cache.Access(0);
  cache.ResetCounters();
  EXPECT_EQ(cache.accesses(), 0u);
  EXPECT_TRUE(cache.Access(0));  // line still cached
}

// --- Trace orderings (the paper's qualitative claims) -----------------------

class TraceTest : public ::testing::Test {
 protected:
  static EdgeList MakeGraph() {
    RmatOptions options;
    options.scale = 13;  // metadata footprint >> modeled LLC below
    return GenerateRmat(options);
  }
  // Small LLC so the working set cannot fully fit (matching the real
  // relationship between a 16 MB LLC and a billion-edge graph).
  static CacheConfig SmallLlc() { return TinyCache(64 << 10, 16); }
};

TEST_F(TraceTest, RadixBuildMissesFarLessThanCountSortAndDynamic) {
  const EdgeList graph = MakeGraph();
  CacheModel radix(SmallLlc());
  TraceRadixSortBuild(radix, graph);
  CacheModel count(SmallLlc());
  TraceCountSortBuild(count, graph);
  CacheModel dynamic(SmallLlc());
  TraceDynamicBuild(dynamic, graph);

  // Paper Table 2: radix 26% vs count 71% / dynamic 69%.
  EXPECT_LT(radix.MissRatio(), 0.6 * count.MissRatio());
  EXPECT_LT(radix.MissRatio(), 0.6 * dynamic.MissRatio());
}

TEST_F(TraceTest, GridHalvesMissRatioVsEdgeArray) {
  const EdgeList graph = MakeGraph();
  GridOptions options;
  options.num_blocks = 16;
  const Grid grid = BuildGrid(graph, options);

  CacheModel edge_array(SmallLlc());
  TraceEdgeArrayPass(edge_array, graph, /*meta_bytes=*/10);
  CacheModel grid_cache(SmallLlc());
  TraceGridPass(grid_cache, grid, /*meta_bytes=*/10);

  // Paper Table 4 (Pagerank): 83% edge array vs 35% grid.
  EXPECT_LT(grid_cache.MissRatio(), 0.65 * edge_array.MissRatio());
}

TEST_F(TraceTest, AdjacencyComparableToEdgeArray) {
  const EdgeList graph = MakeGraph();
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);

  CacheModel edge_array(SmallLlc());
  TraceEdgeArrayPass(edge_array, graph, /*meta_bytes=*/10);
  CacheModel adjacency(SmallLlc());
  TraceAdjacencyPass(adjacency, out, /*meta_bytes=*/10);

  // Paper Table 4: adjacency (78%) close to edge array (83%) — both are
  // destination-bound; neither blocks the metadata accesses.
  EXPECT_GT(adjacency.MissRatio(), 0.5 * edge_array.MissRatio());
  EXPECT_LT(adjacency.MissRatio(), 1.5 * edge_array.MissRatio());
}

TEST_F(TraceTest, SmallerMetadataLowersMissRatio) {
  const EdgeList graph = MakeGraph();
  CacheModel bfs_like(SmallLlc());
  TraceEdgeArrayPass(bfs_like, graph, /*meta_bytes=*/1);  // BFS: 64 vertices/line
  CacheModel pr_like(SmallLlc());
  TraceEdgeArrayPass(pr_like, graph, /*meta_bytes=*/10);  // PR: ~6 vertices/line
  // Paper Table 4: BFS 57% < Pagerank 83% on the edge array.
  EXPECT_LT(bfs_like.MissRatio(), pr_like.MissRatio());
}

// --- LLC partitioner (concurrent-serve replays) -----------------------------

// One vertex holds ~every edge, so its adjacency list alone exceeds any small
// LLC partition budget.
EdgeList MakeMegaHubStar() {
  const VertexId leaves = (1 << 12) + 3;
  EdgeList star(leaves + 1, {});
  star.Reserve(static_cast<EdgeIndex>(leaves) + 64);
  for (VertexId v = 1; v <= leaves; ++v) {
    star.AddEdge(0, v);
  }
  for (VertexId v = 1; v <= 64; ++v) {
    star.AddEdge(v, v + 1);
  }
  return star;
}

// Symmetrized + weighted, the shape the serve replays run on.
Csr ServeCsr(EdgeList edges) {
  edges.AssignRandomWeights(0.1f, 1.0f, /*seed=*/0x5eed);
  return BuildCsr(edges.MakeUndirected(), EdgeDirection::kOut, BuildMethod::kRadixSort);
}

std::vector<std::pair<std::string, Csr>> ServeGraphs() {
  RmatOptions rmat;
  rmat.scale = 9;
  ErdosRenyiOptions er;
  er.num_vertices = 1 << 10;
  er.num_edges = 1 << 13;
  er.seed = 13;
  std::vector<std::pair<std::string, Csr>> graphs;
  graphs.emplace_back("rmat", ServeCsr(GenerateRmat(rmat)));
  graphs.emplace_back("star", ServeCsr(MakeMegaHubStar()));
  graphs.emplace_back("uniform", ServeCsr(GenerateErdosRenyi(er)));
  return graphs;
}

TEST(ServeBatchTest, LlcPartitionBoundariesAreWellFormed) {
  for (const auto& [name, out] : ServeGraphs()) {
    for (const uint64_t llc : {32ull << 10, 256ull << 10, 1ull << 30}) {
      const std::vector<VertexId> boundaries = ComputeLlcPartitionBoundaries(out, llc);
      ASSERT_GE(boundaries.size(), 2u) << name;
      EXPECT_EQ(boundaries.front(), 0) << name;
      EXPECT_EQ(boundaries.back(), out.num_vertices()) << name;
      for (size_t i = 1; i < boundaries.size(); ++i) {
        EXPECT_LE(boundaries[i - 1], boundaries[i]) << name;
      }
    }
    // A budget larger than the graph degenerates to one partition; a tiny
    // one must actually split the vertex range.
    EXPECT_EQ(ComputeLlcPartitionBoundaries(out, 1ull << 30).size(), 2u) << name;
    EXPECT_GT(ComputeLlcPartitionBoundaries(out, 32ull << 10).size(), 2u) << name;
  }
}

// --- Partition-boundary edge cases of the partition-lockstep replay ---------

class BatchBoundaryTest : public ::testing::Test {
 protected:
  static constexpr int kQueries = 4;
  static constexpr uint32_t kMetaBytes = 4;

  // 65-vertex chain 0-1-...-64: every edge near a cut has its endpoints in
  // neighboring partitions.
  static Csr Chain() {
    EdgeList chain(65, {});
    for (VertexId v = 0; v + 1 < 65; ++v) {
      chain.AddEdge(v, v + 1);
    }
    return ServeCsr(std::move(chain));
  }

  // Whatever the cuts, every query must sweep every vertex exactly once:
  // the batched replay makes exactly the accesses of one full adjacency pass
  // per query, and with a cache that holds the whole working set it misses
  // exactly as often as the isolated replay (compulsory misses only).
  static void ExpectBatchMatches(const Csr& out, const std::vector<VertexId>& boundaries,
                                 const std::string& cell) {
    uint64_t pass_accesses = out.num_vertices() + 2 * out.num_edges();
    for (VertexId v = 0; v < out.num_vertices(); ++v) {
      pass_accesses += out.Degree(v) > 0 ? 1 : 0;
    }
    const CacheConfig ample = TinyCache(64ull << 20, 16);
    CacheModel batched(ample);
    TraceServeBatched(batched, out, kQueries, kMetaBytes, boundaries);
    CacheModel isolated(ample);
    TraceServeIsolated(isolated, out, kQueries, kMetaBytes, /*chunk_vertices=*/8);
    EXPECT_EQ(batched.accesses(), kQueries * pass_accesses) << cell;
    EXPECT_EQ(batched.misses(), isolated.misses()) << cell;
  }
};

TEST_F(BatchBoundaryTest, FrontierStraddlesBoundaries) {
  ExpectBatchMatches(Chain(), {0, 16, 32, 48, 65}, "chain straddle");
}

TEST_F(BatchBoundaryTest, SinglePartitionGraph) {
  ExpectBatchMatches(Chain(), {0, 65}, "single partition");
}

TEST_F(BatchBoundaryTest, EmptyPartitionsAreHarmless) {
  // Zero-width partitions ([8,8), [8,8)) and a leading cut right after
  // vertex 0: empty ranges must simply contribute no accesses.
  ExpectBatchMatches(Chain(), {0, 1, 8, 8, 8, 64, 65}, "empty partitions");
}

TEST_F(BatchBoundaryTest, MegaHubAdjacencyListSpansBudget) {
  // A tiny budget cannot split vertex 0's adjacency list: the partitioner
  // must still make progress, with the hub alone in the first partition,
  // and the replay over those cuts must still cover the whole graph.
  const Csr out = ServeCsr(MakeMegaHubStar());
  const std::vector<VertexId> boundaries = ComputeLlcPartitionBoundaries(out, 32 << 10);
  ASSERT_GT(boundaries.size(), 2u);
  EXPECT_EQ(boundaries[1], 1);
  EXPECT_EQ(boundaries.back(), out.num_vertices());
  ExpectBatchMatches(out, boundaries, "mega hub");
}

TEST(LlcPartition, EmptyGraphHasOneEmptyPartition) {
  const Csr out = BuildCsr(EdgeList(0, {}), EdgeDirection::kOut, BuildMethod::kRadixSort);
  EXPECT_EQ(ComputeLlcPartitionBoundaries(out, 1 << 20), (std::vector<VertexId>{0, 0}));
}

TEST_F(TraceTest, PartitionLockstepServeMissesLessThanIsolatedSweeps) {
  // Eight concurrent sweeps over a CSR four times the modeled LLC: running
  // them partition by partition fetches each partition's edges once.
  const Csr out = ServeCsr(MakeGraph());
  const uint64_t llc_bytes = out.MemoryBytes() / 4;
  CacheConfig config = SmallLlc();
  config.size_bytes = llc_bytes;
  CacheModel isolated(config);
  TraceServeIsolated(isolated, out, /*num_queries=*/8, /*meta_bytes=*/4,
                     /*chunk_vertices=*/64);
  CacheModel batched(config);
  TraceServeBatched(batched, out, /*num_queries=*/8, /*meta_bytes=*/4,
                    ComputeLlcPartitionBoundaries(out, llc_bytes));
  EXPECT_LT(2 * batched.misses(), isolated.misses());
}

// --- Shard cuts and the owner-aggregated write stream ------------------------

// The push-cost score the shard-aggregation replay balances shards by.
std::vector<uint64_t> PushScore(const Csr& out) {
  std::vector<uint64_t> score(out.num_vertices());
  for (VertexId v = 0; v < out.num_vertices(); ++v) {
    score[v] = 1 + out.Degree(v);
  }
  return score;
}

Csr RmatCsr(int scale) {
  RmatOptions options;
  options.scale = scale;
  return BuildCsr(GenerateRmat(options), EdgeDirection::kOut, BuildMethod::kRadixSort);
}

TEST(ShardedGraphTest, BoundariesCoverVertexSpaceAndMassesAddUp) {
  const Csr out = RmatCsr(10);
  const std::vector<uint64_t> score = PushScore(out);
  const std::vector<VertexId> bounds = BalancedVertexRanges(score, 8);
  ASSERT_EQ(bounds.size(), 9u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), out.num_vertices());
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));

  const uint64_t total = std::accumulate(score.begin(), score.end(), uint64_t{0});
  const uint64_t heaviest = *std::max_element(score.begin(), score.end());
  uint64_t edge_mass = 0;
  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    uint64_t shard_score = 0;
    for (VertexId v = bounds[s]; v < bounds[s + 1]; ++v) {
      shard_score += score[v];
      edge_mass += out.Degree(v);
    }
    // Greedy prefix cuts overshoot the 1/8 share by less than one vertex.
    EXPECT_LE(shard_score, (total + 7) / 8 + heaviest) << "shard " << s;
  }
  EXPECT_EQ(edge_mass, static_cast<uint64_t>(out.num_edges()));
}

TEST(ShardedGraphTest, ShardOfMatchesLinearScan) {
  const Csr out = RmatCsr(9);
  const VertexId n = out.num_vertices();
  // Balanced cuts, and hand-made ones with empty shards in the middle.
  for (const std::vector<VertexId>& b :
       {BalancedVertexRanges(PushScore(out), 7), std::vector<VertexId>{0, 5, 5, 9, 9, n}}) {
    const int shards = static_cast<int>(b.size()) - 1;
    for (VertexId v = 0; v < n; ++v) {
      int linear = 0;
      while (linear + 1 < shards && b[static_cast<size_t>(linear) + 1] <= v) {
        ++linear;
      }
      ASSERT_EQ(RangeOwner(b, v), linear) << "vertex " << v;
      ASSERT_GE(v, b[static_cast<size_t>(linear)]);
      ASSERT_LT(v, b[static_cast<size_t>(linear) + 1]);
    }
  }
}

// A single shard owns everything: every write is the self-shard bypass, so
// the aggregated stream must be the scatter stream, access for access.
TEST(ShardedEdgeMapTest, SingleShardBypassesAllBuffers) {
  const Csr out = RmatCsr(9);
  const CacheConfig config = TinyCache(16 << 10, 8);
  CacheModel scatter(config);
  TracePushScatterWrites(scatter, out);
  CacheModel aggregated(config);
  TracePushAggregatedWrites(aggregated, out, {0, out.num_vertices()});
  EXPECT_EQ(scatter.accesses(), static_cast<uint64_t>(out.num_edges()));
  EXPECT_EQ(aggregated.accesses(), scatter.accesses());
  EXPECT_EQ(aggregated.misses(), scatter.misses());
}

// The hub's adjacency list reaches into every shard: each remote write is
// appended once and drained once, each local one is applied in place.
TEST(ShardedEdgeMapTest, MegaHubStraddlesEveryShardBoundary) {
  const Csr out =
      BuildCsr(MakeMegaHubStar(), EdgeDirection::kOut, BuildMethod::kRadixSort);
  constexpr int kShards = 8;
  const std::vector<VertexId> bounds = BalancedVertexRanges(PushScore(out), kShards);
  std::vector<bool> hub_reaches(kShards, false);
  for (const VertexId dst : out.Neighbors(0)) {
    hub_reaches[static_cast<size_t>(RangeOwner(bounds, dst))] = true;
  }
  for (int s = 0; s < kShards; ++s) {
    if (s != RangeOwner(bounds, 0)) {
      EXPECT_TRUE(hub_reaches[static_cast<size_t>(s)]) << "shard " << s;
    }
  }

  uint64_t remote = 0;
  for (VertexId src = 0; src < out.num_vertices(); ++src) {
    for (const VertexId dst : out.Neighbors(src)) {
      remote += RangeOwner(bounds, src) != RangeOwner(bounds, dst) ? 1 : 0;
    }
  }
  ASSERT_GT(remote, 0u);
  CacheModel aggregated(TinyCache(16 << 10, 8));
  TracePushAggregatedWrites(aggregated, out, bounds);
  EXPECT_EQ(aggregated.accesses(), static_cast<uint64_t>(out.num_edges()) + 2 * remote);
}

TEST(ShardedEdgeMapTest, EmptyFrontierDoesNothing) {
  // Vertices but no edges: a push round with nothing to push touches no
  // state and no batch.
  const Csr out = BuildCsr(EdgeList(100, {}), EdgeDirection::kOut, BuildMethod::kRadixSort);
  CacheModel scatter(TinyCache(4096, 4));
  TracePushScatterWrites(scatter, out);
  CacheModel aggregated(TinyCache(4096, 4));
  TracePushAggregatedWrites(aggregated, out, BalancedVertexRanges(PushScore(out), 4));
  EXPECT_EQ(scatter.accesses(), 0u);
  EXPECT_EQ(aggregated.accesses(), 0u);
}

}  // namespace
}  // namespace egraph
