// SSSP correctness: frontier Bellman-Ford must converge to Dijkstra's
// distances under every layout, on weighted and unweighted graphs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "src/algos/reference.h"
#include "src/algos/sssp.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "src/io/compressed_io.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr_builder.h"

namespace egraph {
namespace {

void ExpectDistancesEqual(const std::vector<float>& got, const std::vector<float>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(got[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(got[v], expected[v], 1e-3f) << "vertex " << v;
    }
  }
}

class SsspLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(SsspLayoutTest, MatchesDijkstraOnWeightedRmat) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 3.0f, 17);
  const std::vector<float> expected = RefDijkstra(graph, 0);

  GraphHandle handle(graph);
  RunConfig config;
  config.layout = GetParam();
  const SsspResult result = RunSssp(handle, 0, config);
  ExpectDistancesEqual(result.dist, expected);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SsspLayoutTest,
                         ::testing::Values(Layout::kAdjacency, Layout::kEdgeArray, Layout::kGrid),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           std::string name = LayoutName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// A weighted graph stored as EGCMPR01 keeps its weights in the stream: SSSP
// on the graph loaded back must follow them, not count hops.
TEST(Sssp, CompressedUsesStreamWeightsNotHopCounts) {
  EdgeList graph(4, {});
  graph.AddWeightedEdge(0, 1, 5.0f);  // one hop, heavy
  graph.AddWeightedEdge(0, 2, 1.0f);
  graph.AddWeightedEdge(2, 1, 1.0f);  // two hops, light
  graph.AddWeightedEdge(1, 3, 1.0f);
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("egraph_sssp_test_" + std::to_string(::getpid()) + ".egc"))
                               .string();
  WriteCompressedCsr(path, CompressedCsr::FromCsr(BuildCsr(graph, EdgeDirection::kOut,
                                                           BuildMethod::kRadixSort)));
  const Csr decoded = ReadCompressedCsr(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(decoded.has_weights());
  EdgeList loaded(decoded.num_vertices(), {});
  for (VertexId v = 0; v < decoded.num_vertices(); ++v) {
    const auto neighbors = decoded.Neighbors(v);
    const auto weights = decoded.Weights(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      loaded.AddWeightedEdge(v, neighbors[i], weights[i]);
    }
  }
  for (const Direction direction :
       {Direction::kPush, Direction::kPull, Direction::kPushPull}) {
    GraphHandle handle(loaded);
    RunConfig config;
    config.direction = direction;
    const SsspResult result = RunSssp(handle, 0, config);
    EXPECT_FLOAT_EQ(result.dist[1], 2.0f) << DirectionName(direction);
    EXPECT_FLOAT_EQ(result.dist[2], 1.0f) << DirectionName(direction);
    EXPECT_FLOAT_EQ(result.dist[3], 3.0f) << DirectionName(direction);
  }
}

TEST(Sssp, PullMatchesPush) {
  RmatOptions options;
  options.scale = 9;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.5f, 2.0f, 3);
  const std::vector<float> expected = RefDijkstra(graph, 0);

  GraphHandle handle(graph);
  RunConfig config;
  config.direction = Direction::kPull;
  ExpectDistancesEqual(RunSssp(handle, 0, config).dist, expected);
}

TEST(Sssp, UnweightedEqualsBfsLevels) {
  RmatOptions options;
  options.scale = 9;
  const EdgeList graph = GenerateRmat(options);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  const std::vector<uint32_t> levels = RefBfsLevels(graph, 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (levels[v] == UINT32_MAX) {
      EXPECT_TRUE(std::isinf(result.dist[v]));
    } else {
      EXPECT_FLOAT_EQ(result.dist[v], static_cast<float>(levels[v]));
    }
  }
}

TEST(Sssp, RoadGraphLongPaths) {
  RoadOptions options;
  options.width = 32;
  options.height = 32;
  EdgeList graph = GenerateRoad(options);
  graph.AssignRandomWeights(1.0f, 2.0f, 5);
  const std::vector<float> expected = RefDijkstra(graph, 0);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  ExpectDistancesEqual(result.dist, expected);
  // High-diameter graph: SSSP needs many more iterations than a power law
  // (the paper's Table 6 contrast: 30.7 s on US-Road vs 2.8 s on RMAT-26).
  EXPECT_GT(result.stats.iterations, 30);
}

TEST(Sssp, VertexCanRelaxMultipleTimes) {
  // Diamond with a shortcut that arrives later: 0->1->3 (cost 10) is found
  // before 0->2->3 with cost 3; vertex 3 must re-enter the frontier.
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddWeightedEdge(0, 1, 1.0f);
  graph.AddWeightedEdge(1, 3, 9.0f);
  graph.AddWeightedEdge(0, 2, 1.0f);
  graph.AddWeightedEdge(2, 3, 2.0f);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  EXPECT_FLOAT_EQ(result.dist[3], 3.0f);
}

TEST(Sssp, UnreachableStaysInfinite) {
  EdgeList graph;
  graph.set_num_vertices(3);
  graph.AddWeightedEdge(0, 1, 1.0f);
  GraphHandle handle(graph);
  const SsspResult result = RunSssp(handle, 0, RunConfig{});
  EXPECT_TRUE(std::isinf(result.dist[2]));
}

}  // namespace
}  // namespace egraph
