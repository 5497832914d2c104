// Frontier (vertex subset): the set of active vertices in a computation
// step, held sparse (vertex vector), dense (bitmap), or both. EdgeMap picks
// the representation its traversal needs; conversions are parallel and
// cached within the object.
#ifndef SRC_ENGINE_FRONTIER_H_
#define SRC_ENGINE_FRONTIER_H_

#include <cstdint>
#include <vector>

#include "src/graph/types.h"
#include "src/layout/csr.h"
#include "src/util/bitmap.h"

namespace egraph {

class Frontier {
 public:
  Frontier() = default;

  // Empty frontier over n vertices.
  static Frontier None(VertexId n);
  // Single-vertex frontier (BFS/SSSP source).
  static Frontier Single(VertexId n, VertexId v);
  // All vertices active (Pagerank-style rounds, WCC round 0).
  static Frontier All(VertexId n);
  // From an explicit vertex list (must be duplicate-free).
  static Frontier FromVector(VertexId n, std::vector<VertexId> vertices);
  // From a bitmap with known population count.
  static Frontier FromBitmap(VertexId n, Bitmap bitmap, int64_t count);

  VertexId num_vertices() const { return num_vertices_; }
  int64_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }
  bool has_dense() const { return has_dense_; }
  bool has_sparse() const { return has_sparse_; }

  // Materializes the missing representation (parallel; no-op when present).
  void EnsureDense();
  void EnsureSparse();

  // Membership test; requires the dense representation.
  bool Contains(VertexId v) const { return dense_.Get(v); }

  // Active vertices; requires the sparse representation.
  const std::vector<VertexId>& Vertices() const { return sparse_; }

  const Bitmap& bitmap() const { return dense_; }

  // |F| + sum of out-degrees of F: the quantity Ligra's push-pull heuristic
  // compares against |E| / threshold. The active set never changes after
  // construction, so the sum is computed once per CSR and cached —
  // push-pull and the edge-balanced partitioner may both ask within one
  // round. The cache is keyed by the CSR's address, so asking with a
  // different CSR recomputes.
  uint64_t WorkEstimate(const Csr& out);

 private:
  VertexId num_vertices_ = 0;
  int64_t count_ = 0;
  bool has_dense_ = false;
  bool has_sparse_ = false;
  std::vector<VertexId> sparse_;
  Bitmap dense_;
  const Csr* work_estimate_key_ = nullptr;  // cache key for WorkEstimate
  uint64_t work_estimate_ = 0;
};

}  // namespace egraph

#endif  // SRC_ENGINE_FRONTIER_H_
