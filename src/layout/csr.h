// Compressed Sparse Row adjacency lists: per-vertex edge arrays stored
// contiguously (paper section 3.2, "the edges are stored contiguously in
// memory, corresponding to compressed sparse row format").
//
// The three arrays are UninitVectors: a builder sizes them without writing
// them, and its own parallel pass writes every slot exactly once (the radix
// build's place pass writes offsets[v] for each bucket's vertex range, then
// offsets[n], and scatters each edge into neighbors/weights; MergeCsr's fill
// pass writes each vertex's merged slice). That pass is also the first touch
// of the pages. Builders that count into the offsets size them with an
// explicit zero (`UninitVector<EdgeIndex>(n + 1, 0)`).
#ifndef SRC_LAYOUT_CSR_H_
#define SRC_LAYOUT_CSR_H_

#include <span>
#include <vector>

#include "src/graph/types.h"
#include "src/util/uninit_vector.h"

namespace egraph {

class Csr {
 public:
  Csr() = default;

  VertexId num_vertices() const { return num_vertices_; }
  EdgeIndex num_edges() const { return neighbors_.size(); }
  bool has_weights() const { return !weights_.empty(); }

  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Neighbor ids of `v` (destinations for an out-CSR, sources for an in-CSR).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // Weights aligned with Neighbors(v); empty span when unweighted.
  std::span<const float> Weights(VertexId v) const {
    if (weights_.empty()) {
      return {};
    }
    return {weights_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  float WeightAt(EdgeIndex position) const {
    return weights_.empty() ? 1.0f : weights_[position];
  }

  const UninitVector<EdgeIndex>& offsets() const { return offsets_; }
  const UninitVector<VertexId>& neighbors() const { return neighbors_; }
  const UninitVector<float>& weights() const { return weights_; }

  // Builder access (the CSR builders, range partitions and snapshot merges).
  void Init(VertexId num_vertices, UninitVector<EdgeIndex> offsets,
            UninitVector<VertexId> neighbors, UninitVector<float> weights);

  // Sorts every per-vertex neighbor slice by neighbor id, in parallel —
  // the "sorted adjacency list" cache optimization of paper section 5.1.
  // Returns the wall time spent.
  double SortNeighborLists();

  // True when every neighbor slice is sorted (test invariant).
  bool NeighborListsSorted() const;

  // Total bytes held (offsets + neighbors + weights); memory accounting.
  size_t MemoryBytes() const;

 private:
  VertexId num_vertices_ = 0;
  UninitVector<EdgeIndex> offsets_;   // size num_vertices_ + 1
  UninitVector<VertexId> neighbors_;  // size num_edges
  UninitVector<float> weights_;       // empty or size num_edges
};

}  // namespace egraph

#endif  // SRC_LAYOUT_CSR_H_
