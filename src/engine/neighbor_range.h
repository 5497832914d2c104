// CsrNeighbors: the view of a CSR the EdgeMap push and pull kernels and the
// dense scans walk. It exposes
//
//   num_vertices()                          vertex count,
//   Degree(v)                               entries in v's list,
//   ForEachNeighborSlice(v, lo, hi, fn)     fn(neighbor, weight) for list
//                                           positions [lo, hi): push's
//                                           hub-splitting entry point,
//   ForEachNeighborWhile(v, fn) -> bool     fn(neighbor, weight) -> bool over
//                                           the whole list until fn returns
//                                           false (pull's early exit); false
//                                           iff fn stopped the walk,
//   CostPrefix(v)                           exclusive prefix of per-vertex
//                                           traversal cost (edges),
//                                           CostPrefix(n) the total: the
//                                           Balance::kEdge pull partitioner's
//                                           input.
//
// weight is 1.0f on unweighted graphs. CsrNeighbors<kWeighted> fixes the
// weighted branch at compile time; WithNeighbors() picks that instantiation
// once per kernel call, so no per-edge weight branch is paid.
#ifndef SRC_ENGINE_NEIGHBOR_RANGE_H_
#define SRC_ENGINE_NEIGHBOR_RANGE_H_

#include <cstdint>
#include <vector>

#include "src/graph/types.h"
#include "src/layout/csr.h"
#include "src/util/parallel.h"

namespace egraph {

template <bool kWeighted>
class CsrNeighbors {
 public:
  explicit CsrNeighbors(const Csr& csr)
      : num_vertices_(csr.num_vertices()),
        offsets_(csr.offsets().data()),
        neighbors_(csr.neighbors().data()),
        weights_(csr.weights().data()) {}

  VertexId num_vertices() const { return num_vertices_; }
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  uint64_t CostPrefix(VertexId v) const { return offsets_[v]; }

  // Both walks keep the list's base pointers and bound in locals, so the
  // loop carries no reloads even when fn stores through aliasing pointers.
  template <typename Fn>
  void ForEachNeighborSlice(VertexId v, uint64_t lo, uint64_t hi, Fn&& fn) const {
    const VertexId* neighbors = neighbors_ + offsets_[v];
    const float* weights = kWeighted ? weights_ + offsets_[v] : nullptr;
    for (uint64_t j = lo; j < hi; ++j) {
      fn(neighbors[j], kWeighted ? weights[j] : 1.0f);
    }
  }

  template <typename Fn>
  bool ForEachNeighborWhile(VertexId v, Fn&& fn) const {
    const uint64_t degree = Degree(v);
    const VertexId* neighbors = neighbors_ + offsets_[v];
    const float* weights = kWeighted ? weights_ + offsets_[v] : nullptr;
    for (uint64_t j = 0; j < degree; ++j) {
      if (!fn(neighbors[j], kWeighted ? weights[j] : 1.0f)) {
        return false;
      }
    }
    return true;
  }

 private:
  VertexId num_vertices_;
  const EdgeIndex* offsets_;
  const VertexId* neighbors_;
  const float* weights_;
};

// Invokes fn(range) with the weight-specialized view of `csr`.
template <typename Fn>
decltype(auto) WithNeighbors(const Csr& csr, Fn&& fn) {
  if (csr.has_weights()) {
    return fn(CsrNeighbors<true>(csr));
  }
  return fn(CsrNeighbors<false>(csr));
}

// Vertex-aligned chunk boundaries of roughly equal cost, with
// cost(v) = CostPrefix step + 1: the +1 charges the per-vertex probe so
// long runs of empty lists still count as work.
template <typename Range>
std::vector<int64_t> CostBalancedBounds(const Range& range, int64_t min_chunk_cost) {
  const int64_t n = static_cast<int64_t>(range.num_vertices());
  const uint64_t total =
      range.CostPrefix(static_cast<VertexId>(n)) + static_cast<uint64_t>(n);
  return BalancedChunkBoundaries(
      n, BalancedChunkCount(total, min_chunk_cost), [&range](int64_t v) {
        return range.CostPrefix(static_cast<VertexId>(v)) + static_cast<uint64_t>(v);
      });
}

}  // namespace egraph

#endif  // SRC_ENGINE_NEIGHBOR_RANGE_H_
