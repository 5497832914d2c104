#include "src/engine/frontier.h"

#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"

namespace egraph {

Frontier Frontier::None(VertexId n) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = 0;
  f.has_sparse_ = true;
  return f;
}

Frontier Frontier::Single(VertexId n, VertexId v) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = 1;
  f.has_sparse_ = true;
  f.sparse_.push_back(v);
  return f;
}

Frontier Frontier::All(VertexId n) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = n;
  f.has_dense_ = true;
  f.dense_.Resize(n);
  ParallelFor(0, n, [&f](int64_t v) { f.dense_.Set(v); });
  return f;
}

Frontier Frontier::FromVector(VertexId n, std::vector<VertexId> vertices) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = static_cast<int64_t>(vertices.size());
  f.has_sparse_ = true;
  f.sparse_ = std::move(vertices);
  return f;
}

Frontier Frontier::FromBitmap(VertexId n, Bitmap bitmap, int64_t count) {
  Frontier f;
  f.num_vertices_ = n;
  f.count_ = count;
  f.has_dense_ = true;
  f.dense_ = std::move(bitmap);
  return f;
}

void Frontier::EnsureDense() {
  if (has_dense_) {
    return;
  }
  obs::EngineCounters::Get().frontier_to_dense.Add(1);
  obs::TimelineSpan span("engine", "frontier.to_dense", count_);
  dense_.Resize(num_vertices_);
  ParallelFor(0, static_cast<int64_t>(sparse_.size()),
              [this](int64_t i) { dense_.Set(sparse_[static_cast<size_t>(i)]); });
  has_dense_ = true;
}

void Frontier::EnsureSparse() {
  if (has_sparse_) {
    return;
  }
  obs::EngineCounters::Get().frontier_to_sparse.Add(1);
  obs::TimelineSpan span("engine", "frontier.to_sparse", count_);
  dense_.ToVector(sparse_);
  has_sparse_ = true;
}

uint64_t Frontier::WorkEstimate(const Csr& out) {
  if (work_estimate_key_ == &out) {
    return work_estimate_;
  }
  EnsureSparse();
  const uint64_t degree_sum = ParallelReduceSum<uint64_t>(
      0, static_cast<int64_t>(sparse_.size()),
      [this, &out](int64_t i) { return out.Degree(sparse_[static_cast<size_t>(i)]); });
  work_estimate_ = degree_sum + static_cast<uint64_t>(count_);
  work_estimate_key_ = &out;
  return work_estimate_;
}

}  // namespace egraph
