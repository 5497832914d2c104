// SpMV correctness: y = A x must equal the sequential reference under every
// layout and synchronization mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/algos/reference.h"
#include "src/algos/spmv.h"
#include "src/gen/rmat.h"
#include "src/util/rng.h"

namespace egraph {
namespace {

std::vector<float> RandomVector(VertexId n, uint64_t seed) {
  std::vector<float> x(n);
  Xoshiro256 rng(seed);
  for (auto& v : x) {
    v = rng.NextFloat();
  }
  return x;
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], 1e-2f) << "vertex " << v;
  }
}

using SpmvParam = std::tuple<Layout, Direction, Sync, Balance>;

class SpmvConfigTest : public ::testing::TestWithParam<SpmvParam> {};

TEST_P(SpmvConfigTest, MatchesReference) {
  const auto [layout, direction, sync, balance] = GetParam();
  RmatOptions options;
  options.scale = 10;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 1.0f, 9);
  const std::vector<float> x = RandomVector(graph.num_vertices(), 4);
  const std::vector<float> expected = RefSpmv(graph, x);

  GraphHandle handle(graph);
  RunConfig config;
  config.layout = layout;
  config.direction = direction;
  config.sync = sync;
  config.balance = balance;
  const SpmvResult result = RunSpmv(handle, x, config);
  ExpectNear(result.y, expected);
  EXPECT_EQ(result.stats.iterations, 1);  // single pass by definition
}

// Every layout with each of its synchronization forms, under both balance
// modes.
std::vector<SpmvParam> SpmvCells() {
  const std::tuple<Layout, Direction, Sync> cells[] = {
      {Layout::kEdgeArray, Direction::kPush, Sync::kAtomics},
      {Layout::kEdgeArray, Direction::kPush, Sync::kLocks},
      {Layout::kAdjacency, Direction::kPush, Sync::kAtomics},
      {Layout::kAdjacency, Direction::kPush, Sync::kLocks},
      {Layout::kAdjacency, Direction::kPull, Sync::kLockFree},
      {Layout::kGrid, Direction::kPush, Sync::kAtomics},
      {Layout::kGrid, Direction::kPush, Sync::kLocks},
      {Layout::kGrid, Direction::kPull, Sync::kLockFree},
  };
  std::vector<SpmvParam> params;
  for (const Balance balance : {Balance::kEdge, Balance::kVertex}) {
    for (const auto& [layout, direction, sync] : cells) {
      params.emplace_back(layout, direction, sync, balance);
    }
  }
  return params;
}

// Edge-balanced cells (the RunConfig default) keep the bare
// layout_direction_sync name; vertex-balanced cells add a suffix.
INSTANTIATE_TEST_SUITE_P(
    Configs, SpmvConfigTest, ::testing::ValuesIn(SpmvCells()),
    [](const ::testing::TestParamInfo<SpmvParam>& info) {
      std::string name = std::string(LayoutName(std::get<0>(info.param))) + "_" +
                         DirectionName(std::get<1>(info.param)) + "_" +
                         SyncName(std::get<2>(info.param));
      if (std::get<3>(info.param) == Balance::kVertex) {
        name += "_vertex_balanced";
      }
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The adjacency pull gathers each destination's in-list in stored order
// under either balance mode, so its float sums must agree bit for bit. The
// graph is unweighted because the stored order of parallel edges, and so of
// their weights, is not part of any layout's contract; with unit weights
// parallel edges add equal terms.
TEST(Spmv, PullIsBitIdenticalAcrossLayoutsAndBalance) {
  RmatOptions options;
  options.scale = 10;
  GraphHandle handle(GenerateRmat(options));
  PrepareConfig prepare;
  prepare.need_out = true;
  prepare.need_in = true;
  handle.Prepare(prepare);
  const std::vector<float> x = RandomVector(handle.num_vertices(), 7);

  RunConfig config;
  config.direction = Direction::kPull;
  config.sync = Sync::kLockFree;
  config.balance = Balance::kVertex;
  const std::vector<float> expected = RunSpmv(handle, x, config).y;
  for (const Balance balance : {Balance::kVertex, Balance::kEdge}) {
    config.balance = balance;
    const std::vector<float> y = RunSpmv(handle, x, config).y;
    ASSERT_EQ(y.size(), expected.size());
    for (size_t v = 0; v < y.size(); ++v) {
      ASSERT_EQ(y[v], expected[v]) << BalanceName(balance) << " vertex " << v;
    }
  }
}

TEST(Spmv, UnweightedCountsInNeighbors) {
  // With x = all ones and unit weights, y[v] = in-degree(v).
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(2, 1);
  graph.AddEdge(3, 1);
  graph.AddEdge(1, 0);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const SpmvResult result = RunSpmv(handle, {1, 1, 1, 1}, config);
  EXPECT_FLOAT_EQ(result.y[0], 1.0f);
  EXPECT_FLOAT_EQ(result.y[1], 3.0f);
  EXPECT_FLOAT_EQ(result.y[2], 0.0f);
  EXPECT_FLOAT_EQ(result.y[3], 0.0f);
}

TEST(Spmv, EdgeArrayHasZeroPreprocessing) {
  RmatOptions options;
  options.scale = 9;
  GraphHandle handle(GenerateRmat(options));
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  RunSpmv(handle, RandomVector(handle.num_vertices(), 2), config);
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

TEST(Spmv, EmptyGraphYieldsZeroVector) {
  EdgeList graph;
  graph.set_num_vertices(5);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const SpmvResult result = RunSpmv(handle, std::vector<float>(5, 1.0f), config);
  for (const float y : result.y) {
    EXPECT_FLOAT_EQ(y, 0.0f);
  }
}

}  // namespace
}  // namespace egraph
