// EdgeList: the edge-array graph representation. This is simultaneously
//  (a) the input format every pipeline starts from, and
//  (b) a first-class computation layout with zero pre-processing cost
//      (paper section 3.2: "edge arrays incur no pre-processing cost").
//
// Neither array is zero-filled when sized: `mutable_edges().resize(m)` and
// `mutable_weights().resize(m)` allocate m unwritten slots (Edge's default
// constructor and UninitVector's allocator write nothing). Whoever sizes
// them writes every slot: the binary readers (one positional read per
// chunk, src/io/edge_io.cc), the streaming loaders, the generators and the
// layout transforms.
#ifndef SRC_GRAPH_EDGE_LIST_H_
#define SRC_GRAPH_EDGE_LIST_H_

#include <cstdint>
#include <vector>

#include "src/graph/types.h"
#include "src/util/uninit_vector.h"

namespace egraph {

class EdgeList {
 public:
  EdgeList() = default;
  EdgeList(VertexId num_vertices, std::vector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  VertexId num_vertices() const { return num_vertices_; }
  EdgeIndex num_edges() const { return edges_.size(); }

  void set_num_vertices(VertexId n) { num_vertices_ = n; }

  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& mutable_edges() { return edges_; }

  bool has_weights() const { return !weights_.empty(); }
  const UninitVector<float>& weights() const { return weights_; }
  UninitVector<float>& mutable_weights() { return weights_; }

  // Weight of edge `e`; unweighted graphs report 1.0 so weighted algorithms
  // (SSSP, SpMV) degrade gracefully.
  float EdgeWeight(EdgeIndex e) const { return weights_.empty() ? 1.0f : weights_[e]; }

  void Reserve(EdgeIndex n) { edges_.reserve(n); }
  void AddEdge(VertexId src, VertexId dst) { edges_.push_back({src, dst}); }
  void AddWeightedEdge(VertexId src, VertexId dst, float w) {
    edges_.push_back({src, dst});
    weights_.push_back(w);
  }

  // Ensures num_vertices_ > max endpoint (parallel scan). Call after bulk
  // edits when the vertex count is unknown.
  void RecomputeNumVertices();

  // Returns a copy with every edge mirrored, as required by undirected
  // algorithms (WCC). The paper notes this doubles the adjacency-list
  // pre-processing cost while edge arrays and grids pay nothing extra at
  // layout level (only the edge count doubles).
  EdgeList MakeUndirected() const;

  // Attaches deterministic pseudo-random weights in [min, max) (for SSSP /
  // SpMV on unweighted inputs).
  void AssignRandomWeights(float min, float max, uint64_t seed);

  // Removes self loops; returns number removed. (Failure-injection helper and
  // cleanup pass for real-world inputs.)
  EdgeIndex RemoveSelfLoops();

  // Removes duplicate (src, dst) pairs, keeping the first occurrence's
  // weight; returns number removed. Needed by algorithms that assume simple
  // graphs (triangle counting). O(E log E).
  EdgeIndex RemoveDuplicateEdges();

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
  UninitVector<float> weights_;  // empty => unweighted
};

}  // namespace egraph

#endif  // SRC_GRAPH_EDGE_LIST_H_
