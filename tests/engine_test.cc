// Engine primitive tests: frontier representations, EdgeMap equivalence
// across layout x direction x sync, push-pull switching, scan helpers,
// GraphHandle preparation accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "src/algos/bfs.h"
#include "src/algos/dispatch.h"
#include "src/algos/reference.h"
#include "src/engine/edge_map.h"
#include "src/engine/graph_handle.h"
#include "src/engine/scan.h"
#include "src/gen/rmat.h"
#include "src/graph/stats.h"
#include "src/obs/metrics.h"
#include "src/util/atomics.h"

namespace egraph {
namespace {

TEST(Frontier, SingleAndNone) {
  Frontier none = Frontier::None(100);
  EXPECT_TRUE(none.Empty());
  Frontier single = Frontier::Single(100, 42);
  EXPECT_EQ(single.Count(), 1);
  single.EnsureDense();
  EXPECT_TRUE(single.Contains(42));
  EXPECT_FALSE(single.Contains(41));
}

TEST(Frontier, AllContainsEverything) {
  Frontier all = Frontier::All(300);
  EXPECT_EQ(all.Count(), 300);
  for (VertexId v = 0; v < 300; ++v) {
    ASSERT_TRUE(all.Contains(v));
  }
  all.EnsureSparse();
  EXPECT_EQ(all.Vertices().size(), 300u);
}

TEST(Frontier, SparseDenseRoundTrip) {
  Frontier f = Frontier::FromVector(1000, {1, 63, 64, 999});
  f.EnsureDense();
  EXPECT_TRUE(f.Contains(63));
  EXPECT_FALSE(f.Contains(62));
  Bitmap bitmap(1000);
  bitmap.Set(5);
  bitmap.Set(700);
  Frontier g = Frontier::FromBitmap(1000, std::move(bitmap), 2);
  g.EnsureSparse();
  EXPECT_EQ(g.Vertices(), (std::vector<VertexId>{5, 700}));
}

TEST(Frontier, WorkEstimateCountsDegreesPlusSize) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 2);
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  Frontier f = Frontier::FromVector(4, {0, 1});
  EXPECT_EQ(f.WorkEstimate(out), 2u + 3u);  // deg(0)=2, deg(1)=1, |F|=2
}

// --- EdgeMap equivalence: BFS reachability across all strategies -----------

struct ReachFunctor {
  uint8_t* visited;
  bool Update(VertexId /*s*/, VertexId d, float) {
    if (AtomicLoad(&visited[d]) == 0) {
      AtomicStore(&visited[d], uint8_t{1});
      return true;
    }
    return false;
  }
  bool UpdateAtomic(VertexId /*s*/, VertexId d, float) {
    return AtomicCas(&visited[d], uint8_t{0}, uint8_t{1});
  }
  bool Cond(VertexId d) const { return AtomicLoad(&visited[d]) == 0; }
};

class EdgeMapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RmatOptions options;
    options.scale = 10;
    graph_ = new EdgeList(GenerateRmat(options));
    handle_ = new GraphHandle(*graph_);
    PrepareConfig prepare;
    prepare.layout = Layout::kAdjacency;
    prepare.need_out = true;
    prepare.need_in = true;
    handle_->Prepare(prepare);
    prepare.layout = Layout::kGrid;
    handle_->Prepare(prepare);
    // Expected reachable set from vertex 0 (sequential reference).
    const auto levels = RefBfsLevels(*graph_, 0);
    expected_ = new std::set<VertexId>();
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      if (levels[v] != UINT32_MAX) {
        expected_->insert(v);
      }
    }
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete handle_;
    delete graph_;
  }

  template <typename Step>
  std::set<VertexId> Reach(Step&& step) {
    const VertexId n = graph_->num_vertices();
    std::vector<uint8_t> visited(n, 0);
    visited[0] = 1;
    ReachFunctor func{visited.data()};
    Frontier frontier = Frontier::Single(n, 0);
    while (!frontier.Empty()) {
      frontier = step(frontier, func);
    }
    std::set<VertexId> reached;
    for (VertexId v = 0; v < n; ++v) {
      if (visited[v]) {
        reached.insert(v);
      }
    }
    return reached;
  }

  static EdgeMapOptions Options(Sync sync) {
    EdgeMapOptions options;
    options.sync = sync;
    options.locks = &handle_->locks();
    return options;
  }

  static EdgeList* graph_;
  static GraphHandle* handle_;
  static std::set<VertexId>* expected_;
};

EdgeList* EdgeMapTest::graph_ = nullptr;
GraphHandle* EdgeMapTest::handle_ = nullptr;
std::set<VertexId>* EdgeMapTest::expected_ = nullptr;

TEST_F(EdgeMapTest, CsrPushAtomics) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapCsrPush(handle_->out_csr(), f, fn, Options(Sync::kAtomics));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, CsrPushLocks) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapCsrPush(handle_->out_csr(), f, fn, Options(Sync::kLocks));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, CsrPull) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapCsrPull(handle_->in_csr(), f, fn, EdgeMapOptions{});
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, CsrPushPull) {
  bool ever_pulled = false;
  RunConfig config;
  config.direction = Direction::kPushPull;
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    EdgeMapResult round = EdgeMap(*handle_, config, ExecutionContext::Default(), f, fn);
    ever_pulled |= round.used == Direction::kPull;
    return std::move(round.next);
  });
  EXPECT_EQ(reached, *expected_);
  // On a power-law graph the mid-traversal frontier is large enough that the
  // heuristic must have switched to pull at least once.
  EXPECT_TRUE(ever_pulled);
}

TEST_F(EdgeMapTest, EdgeArray) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapEdgeArray(handle_->edges(), f, fn, Options(Sync::kAtomics));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, GridLockFree) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapGrid(handle_->grid(), f, fn, Options(Sync::kLockFree));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, GridLocks) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapGrid(handle_->grid(), f, fn, Options(Sync::kLocks));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST_F(EdgeMapTest, GridAtomics) {
  auto reached = Reach([&](Frontier& f, ReachFunctor& fn) {
    return EdgeMapGrid(handle_->grid(), f, fn, Options(Sync::kAtomics));
  });
  EXPECT_EQ(reached, *expected_);
}

TEST(EdgeMapThreshold, LowThresholdForcesPull) {
  EdgeList graph;
  graph.set_num_vertices(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.need_out = true;
  prepare.need_in = true;
  handle.Prepare(prepare);

  std::vector<uint8_t> visited(3, 0);
  visited[0] = 1;
  ReachFunctor func{visited.data()};
  Frontier frontier = Frontier::Single(3, 0);
  RunConfig config;
  config.direction = Direction::kPushPull;
  config.pushpull.threshold_den = 1e9;  // anything is "dense"
  EXPECT_EQ(EdgeMap(handle, config, ExecutionContext::Default(), frontier, func).used,
            Direction::kPull);
}

// --- Scan helpers -----------------------------------------------------------

TEST(Scan, AllScansVisitEveryEdgeExactlyOnce) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = Layout::kAdjacency;
  prepare.need_out = true;
  prepare.need_in = true;
  handle.Prepare(prepare);
  prepare.layout = Layout::kGrid;
  handle.Prepare(prepare);

  const auto count_with = [&](auto scan) {
    std::atomic<uint64_t> count{0};
    scan([&](VertexId, VertexId, float) { count.fetch_add(1, std::memory_order_relaxed); });
    return count.load();
  };

  const uint64_t m = graph.num_edges();
  EXPECT_EQ(count_with([&](auto body) { ScanEdgeArray(handle.edges(), body); }), m);
  for (const Balance balance : {Balance::kVertex, Balance::kEdge}) {
    EXPECT_EQ(count_with([&](auto body) { ScanBySource(handle.out_csr(), balance, body); }), m);
    EXPECT_EQ(count_with([&](auto body) { ScanGridRowMajor(handle.grid(), balance, body); }), m);

    std::atomic<uint64_t> pull_count{0};
    ScanByDestination(handle.in_csr(), balance, [&](VertexId, auto&& in_edges) {
      in_edges([&](VertexId, float) { pull_count.fetch_add(1, std::memory_order_relaxed); });
    });
    EXPECT_EQ(pull_count.load(), m) << BalanceName(balance);
  }
  EXPECT_EQ(count_with([&](auto body) { ScanGridColumnOwned(handle.grid(), body); }), m);
}

TEST(Scan, GridColumnOwnershipIsExclusive) {
  // Writes into per-destination counters without synchronization must be
  // exact under column ownership.
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  PrepareConfig prepare;
  prepare.layout = Layout::kGrid;
  handle.Prepare(prepare);

  std::vector<uint32_t> in_degree(graph.num_vertices(), 0);
  ScanGridColumnOwned(handle.grid(), [&](VertexId, VertexId dst, float) { ++in_degree[dst]; });
  const std::vector<uint32_t> expected = InDegrees(graph);
  EXPECT_EQ(in_degree, expected);
}

// --- GraphHandle ------------------------------------------------------------

TEST(GraphHandle, AccumulatesPreprocessTimeAndSkipsRebuild) {
  RmatOptions options;
  options.scale = 10;
  GraphHandle handle(GenerateRmat(options));
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);

  PrepareConfig prepare;
  prepare.layout = Layout::kAdjacency;
  handle.Prepare(prepare);
  const double after_out = handle.preprocess_seconds();
  EXPECT_GT(after_out, 0.0);

  // Same request again: no rebuild, no extra time.
  handle.Prepare(prepare);
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), after_out);

  prepare.need_in = true;
  handle.Prepare(prepare);
  EXPECT_GT(handle.preprocess_seconds(), after_out);
  EXPECT_TRUE(handle.has_in_csr());
}

TEST(GraphHandle, EdgeArrayNeedsNoPreprocessing) {
  RmatOptions options;
  options.scale = 9;
  GraphHandle handle(GenerateRmat(options));
  PrepareConfig prepare;
  prepare.layout = Layout::kEdgeArray;
  handle.Prepare(prepare);
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

TEST(GraphHandle, DropLayoutsAllowsRemeasure) {
  RmatOptions options;
  options.scale = 9;
  GraphHandle handle(GenerateRmat(options));
  PrepareConfig prepare;
  handle.Prepare(prepare);
  EXPECT_TRUE(handle.has_out_csr());
  handle.DropLayouts();
  EXPECT_FALSE(handle.has_out_csr());
  handle.ResetPreprocessClock();
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

// Symmetric input: the in-CSR aliases the out-CSR, so one build is paid
// instead of two. Exact check: the radix build counter rises by 1, not 2.
// Timing check: the median of 5 fresh-handle Prepares per config, taken
// alternately, at a scale where each build takes well over 10 ms (at scale
// 9 fixed dispatch costs dwarf the second build).
TEST(GraphHandle, SymmetricInputAliasesInCsrForFree) {
  RmatOptions options;
  options.scale = 15;
  const EdgeList undirected = GenerateRmat(options).MakeUndirected();
  PrepareConfig directed;
  directed.need_out = true;
  directed.need_in = true;
  PrepareConfig symmetric = directed;
  symmetric.symmetric_input = true;

  obs::Counter& builds = obs::Registry::Get().GetCounter("build.csr.radix-sort");
  const bool counted = obs::kMetricsCompiled && obs::Enabled();
  auto prepare = [&](const PrepareConfig& config, int64_t expected_builds) {
    GraphHandle handle(undirected);
    const int64_t before = builds.Total();
    handle.Prepare(config);
    if (counted) {
      EXPECT_EQ(builds.Total() - before, expected_builds);
    }
    EXPECT_TRUE(handle.has_in_csr());
    EXPECT_EQ(&handle.in_csr() == &handle.out_csr(), config.symmetric_input);
    return handle.preprocess_seconds();
  };
  std::vector<double> directed_seconds;
  std::vector<double> symmetric_seconds;
  for (int rep = 0; rep < 5; ++rep) {
    directed_seconds.push_back(prepare(directed, 2));
    symmetric_seconds.push_back(prepare(symmetric, 1));
  }
  std::sort(directed_seconds.begin(), directed_seconds.end());
  std::sort(symmetric_seconds.begin(), symmetric_seconds.end());
  EXPECT_LT(symmetric_seconds[2], 0.8 * directed_seconds[2]);
}

// The drop -> re-Prepare(symmetric -> asymmetric) transition must not leak
// the symmetric alias: after DropLayouts, has_in_csr() reports nothing, and
// an asymmetric re-Prepare builds a REAL in-CSR rather than handing the
// out-CSR back through a stale in_aliases_out_ flag.
TEST(GraphHandle, DropThenReprepareAsymmetricClearsAlias) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);  // directed: in != out

  GraphHandle handle(graph);
  PrepareConfig symmetric;
  symmetric.need_out = true;
  symmetric.need_in = true;
  symmetric.symmetric_input = true;  // (a lie for this graph, but legal)
  handle.Prepare(symmetric);
  ASSERT_TRUE(handle.has_in_csr());
  ASSERT_EQ(&handle.in_csr(), &handle.out_csr());

  handle.DropLayouts();
  EXPECT_FALSE(handle.has_out_csr());
  EXPECT_FALSE(handle.has_in_csr()) << "alias must not survive the drop";

  PrepareConfig asymmetric;
  asymmetric.need_out = true;
  asymmetric.need_in = true;
  handle.Prepare(asymmetric);
  ASSERT_TRUE(handle.has_in_csr());
  EXPECT_NE(&handle.in_csr(), &handle.out_csr())
      << "asymmetric re-Prepare must build a real in-CSR, not the alias";
  const Csr reference = BuildCsr(graph, EdgeDirection::kIn, BuildMethod::kRadixSort);
  EXPECT_EQ(handle.in_csr().offsets(), reference.offsets());
  EXPECT_EQ(handle.in_csr().neighbors(), reference.neighbors());
}

TEST(GraphHandle, SymmetricPushPullBfsIsCorrect) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList undirected = GenerateRmat(options).MakeUndirected();
  GraphHandle handle(undirected);
  RunConfig config;
  config.direction = Direction::kPushPull;
  config.symmetric_input = true;
  const BfsResult result = RunBfs(handle, 0, config);
  const auto levels = RefBfsLevels(undirected, 0);
  for (VertexId v = 0; v < undirected.num_vertices(); ++v) {
    ASSERT_EQ(result.parent[v] != kInvalidVertex, levels[v] != UINT32_MAX) << v;
  }
}

TEST(GraphHandle, AutoGridBlocksScalesWithGraph) {
  EXPECT_EQ(GraphHandle::AutoGridBlocks(100), 4u);
  EXPECT_EQ(GraphHandle::AutoGridBlocks(4 << 20), 256u);
  EXPECT_EQ(GraphHandle::AutoGridBlocks(256 * 1024), 64u);
}

}  // namespace
}  // namespace egraph
