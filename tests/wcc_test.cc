// WCC correctness: labels must equal the union-find reference (minimum
// vertex id per weakly connected component) under every layout. The edge
// array and grid run one concurrent union-find pass, so their cases target
// link order: long chains, hubs with the largest id, bridges seen last.
#include <gtest/gtest.h>

#include "src/algos/reference.h"
#include "src/algos/wcc.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"

namespace egraph {
namespace {

EdgeList MultiComponentGraph() {
  // Three components: {0..3} ring, {10..12} chain, {20} isolated-with-loop,
  // plus isolated vertices with no edges.
  EdgeList graph;
  graph.set_num_vertices(25);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  graph.AddEdge(3, 0);
  graph.AddEdge(10, 11);
  graph.AddEdge(12, 11);  // direction against the chain: weak connectivity
  graph.AddEdge(20, 20);
  return graph;
}

TEST(Wcc, EdgeArrayMatchesReferenceWithoutSymmetrization) {
  const EdgeList graph = MultiComponentGraph();
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult result = RunWcc(handle, config);
  EXPECT_EQ(result.label, RefWccLabels(graph));
  // Edge array needed no pre-processing at all (paper Table 6's 0.0 rows).
  EXPECT_DOUBLE_EQ(handle.preprocess_seconds(), 0.0);
}

TEST(Wcc, GridMatchesReferenceWithoutSymmetrization) {
  const EdgeList graph = MultiComponentGraph();
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kGrid;
  const WccResult result = RunWcc(handle, config);
  EXPECT_EQ(result.label, RefWccLabels(graph));
}

TEST(Wcc, AdjacencyNeedsSymmetrizedInput) {
  const EdgeList graph = MultiComponentGraph();
  // Adjacency-list WCC runs on the undirected version (paper section 8),
  // doubling CSR construction work — charged as pre-processing.
  GraphHandle handle(graph.MakeUndirected());
  RunConfig config;
  config.layout = Layout::kAdjacency;
  config.direction = Direction::kPush;
  const WccResult result = RunWcc(handle, config);
  EXPECT_EQ(result.label, RefWccLabels(graph));
  EXPECT_GT(handle.preprocess_seconds(), 0.0);
}

TEST(Wcc, RmatAllLayoutsAgree) {
  RmatOptions options;
  options.scale = 10;
  const EdgeList graph = GenerateRmat(options);
  const std::vector<VertexId> expected = RefWccLabels(graph);

  for (const Layout layout : {Layout::kEdgeArray, Layout::kGrid}) {
    GraphHandle handle(graph);
    RunConfig config;
    config.layout = layout;
    EXPECT_EQ(RunWcc(handle, config).label, expected) << LayoutName(layout);
  }
  GraphHandle handle(graph.MakeUndirected());
  RunConfig config;
  config.layout = Layout::kAdjacency;
  EXPECT_EQ(RunWcc(handle, config).label, expected);
}

TEST(Wcc, LabelsAreComponentMinima) {
  ErdosRenyiOptions options;
  options.num_vertices = 2000;
  options.num_edges = 3000;  // sparse: many components
  const EdgeList graph = GenerateErdosRenyi(options);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult result = RunWcc(handle, config);
  // Property: every vertex's label is <= its id, and label[label[v]] ==
  // label[v] (labels are fixed points).
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_LE(result.label[v], v);
    EXPECT_EQ(result.label[result.label[v]], result.label[v]);
  }
  // Endpoint labels agree across every edge.
  for (const Edge& e : graph.edges()) {
    EXPECT_EQ(result.label[e.src], result.label[e.dst]);
  }
}

TEST(Wcc, EmptyGraphTrivialLabels) {
  EdgeList graph;
  graph.set_num_vertices(7);
  GraphHandle handle(graph);
  RunConfig config;
  config.layout = Layout::kEdgeArray;
  const WccResult result = RunWcc(handle, config);
  for (VertexId v = 0; v < 7; ++v) {
    EXPECT_EQ(result.label[v], v);
  }
}

// Runs the union-find layouts (edge array, grid) on `graph` and checks each
// against the reference, plus the single-pass trace.
void ExpectUnionFindMatchesReference(const EdgeList& graph) {
  const std::vector<VertexId> expected = RefWccLabels(graph);
  for (const Layout layout : {Layout::kEdgeArray, Layout::kGrid}) {
    GraphHandle handle(graph);
    RunConfig config;
    config.layout = layout;
    const WccResult result = RunWcc(handle, config);
    EXPECT_EQ(result.label, expected) << LayoutName(layout);
    EXPECT_EQ(result.stats.iterations, 1) << LayoutName(layout);
  }
}

TEST(WccUnionFind, NoVerticesAndOneVertex) {
  EdgeList empty;
  ExpectUnionFindMatchesReference(empty);
  EdgeList single;
  single.set_num_vertices(1);
  ExpectUnionFindMatchesReference(single);
  single.AddEdge(0, 0);
  ExpectUnionFindMatchesReference(single);
}

TEST(WccUnionFind, PathListedInDescendingIdOrder) {
  // Each edge hangs the previous root under the next smaller id, so the
  // trees degenerate into one long chain unless finds halve it.
  constexpr VertexId kN = 20000;
  EdgeList graph;
  graph.set_num_vertices(kN);
  for (VertexId v = kN - 1; v > 0; --v) {
    graph.AddEdge(v, v - 1);
  }
  ExpectUnionFindMatchesReference(graph);
  EdgeList reversed;
  reversed.set_num_vertices(kN);
  for (VertexId v = kN - 1; v > 0; --v) {
    reversed.AddEdge(v - 1, v);
  }
  ExpectUnionFindMatchesReference(reversed);
}

TEST(WccUnionFind, StarWithHubOfHighestId) {
  constexpr VertexId kN = 10000;
  EdgeList graph;
  graph.set_num_vertices(kN);
  for (VertexId v = 0; v + 1 < kN; ++v) {
    if (v % 2 == 0) {
      graph.AddEdge(kN - 1, v);
    } else {
      graph.AddEdge(v, kN - 1);
    }
  }
  ExpectUnionFindMatchesReference(graph);
}

TEST(WccUnionFind, SelfLoopsAndDuplicateEdges) {
  EdgeList graph;
  graph.set_num_vertices(12);
  for (int copy = 0; copy < 3; ++copy) {
    graph.AddEdge(5, 5);
    graph.AddEdge(3, 7);
    graph.AddEdge(7, 3);
    graph.AddEdge(9, 1);
    graph.AddEdge(11, 11);
  }
  graph.AddEdge(1, 7);
  ExpectUnionFindMatchesReference(graph);
}

TEST(WccUnionFind, TrailingIsolatedVertices) {
  ErdosRenyiOptions options;
  options.num_vertices = 1000;
  options.num_edges = 4000;
  EdgeList graph = GenerateErdosRenyi(options);
  graph.set_num_vertices(1500);  // ids 1000..1499 carry no edge
  ExpectUnionFindMatchesReference(graph);
}

TEST(WccUnionFind, TwoComponentsJoinedByLastEdge) {
  // Two paths, each rooted at its own minimum, merged by the final edge
  // between their largest ids: both roots must end on vertex 0.
  constexpr VertexId kHalf = 8000;
  EdgeList graph;
  graph.set_num_vertices(2 * kHalf);
  for (VertexId v = 1; v < kHalf; ++v) {
    graph.AddEdge(v, v - 1);
    graph.AddEdge(kHalf + v, kHalf + v - 1);
  }
  graph.AddEdge(2 * kHalf - 1, kHalf - 1);
  ExpectUnionFindMatchesReference(graph);
}

TEST(WccUnionFind, OnePassRegardlessOfDiameter) {
  // Road proxy: diameter ~ width + height, which label propagation paid
  // for in rounds; the union-find pass does not.
  RoadOptions options;
  options.width = 96;
  options.height = 96;
  options.keep_prob = 0.7;  // leaves several components
  ExpectUnionFindMatchesReference(GenerateRoad(options));
}

}  // namespace
}  // namespace egraph
