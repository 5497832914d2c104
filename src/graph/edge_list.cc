#include "src/graph/edge_list.h"

#include <algorithm>

#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace egraph {

void EdgeList::RecomputeNumVertices() {
  const int64_t n = static_cast<int64_t>(edges_.size());
  const VertexId max_id = ParallelReduceMax<VertexId>(0, n, 0, [this](int64_t i) {
    const Edge& e = edges_[static_cast<size_t>(i)];
    return e.src > e.dst ? e.src : e.dst;
  });
  if (n > 0 && max_id + 1 > num_vertices_) {
    num_vertices_ = max_id + 1;
  }
}

EdgeList EdgeList::MakeUndirected() const {
  EdgeList out;
  out.num_vertices_ = num_vertices_;
  const size_t n = edges_.size();
  out.edges_.resize(2 * n);
  ParallelFor(0, static_cast<int64_t>(n), [&](int64_t i) {
    const Edge& e = edges_[static_cast<size_t>(i)];
    out.edges_[static_cast<size_t>(i)] = e;
    out.edges_[n + static_cast<size_t>(i)] = {e.dst, e.src};
  });
  if (!weights_.empty()) {
    out.weights_.resize(2 * n);
    ParallelFor(0, static_cast<int64_t>(n), [&](int64_t i) {
      out.weights_[static_cast<size_t>(i)] = weights_[static_cast<size_t>(i)];
      out.weights_[n + static_cast<size_t>(i)] = weights_[static_cast<size_t>(i)];
    });
  }
  return out;
}

void EdgeList::AssignRandomWeights(float min, float max, uint64_t seed) {
  weights_.resize(edges_.size());
  const float span = max - min;
  ParallelForChunks(0, static_cast<int64_t>(edges_.size()), /*grain=*/1 << 14,
                    [&](int64_t lo, int64_t hi, int /*worker*/) {
                      Xoshiro256 rng(seed ^ static_cast<uint64_t>(lo));
                      for (int64_t i = lo; i < hi; ++i) {
                        weights_[static_cast<size_t>(i)] = min + span * rng.NextFloat();
                      }
                    });
}

EdgeIndex EdgeList::RemoveSelfLoops() {
  const size_t before = edges_.size();
  if (weights_.empty()) {
    edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                [](const Edge& e) { return e.src == e.dst; }),
                 edges_.end());
  } else {
    // Keep weights aligned with surviving edges.
    size_t write = 0;
    for (size_t read = 0; read < edges_.size(); ++read) {
      if (edges_[read].src != edges_[read].dst) {
        edges_[write] = edges_[read];
        weights_[write] = weights_[read];
        ++write;
      }
    }
    edges_.resize(write);
    weights_.resize(write);
  }
  return before - edges_.size();
}

EdgeIndex EdgeList::RemoveDuplicateEdges() {
  const size_t before = edges_.size();
  if (before == 0) {
    return 0;
  }
  // Sort an index permutation so weights stay paired with their edges; keep
  // the first occurrence (stable ordering on ties).
  std::vector<uint64_t> order(before);
  for (size_t i = 0; i < before; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](uint64_t a, uint64_t b) {
    const Edge& ea = edges_[a];
    const Edge& eb = edges_[b];
    if (ea.src != eb.src) {
      return ea.src < eb.src;
    }
    if (ea.dst != eb.dst) {
      return ea.dst < eb.dst;
    }
    return a < b;
  });
  std::vector<Edge> deduped;
  UninitVector<float> deduped_weights;
  deduped.reserve(before);
  for (size_t i = 0; i < before; ++i) {
    const Edge& e = edges_[order[i]];
    if (!deduped.empty() && deduped.back() == e) {
      continue;
    }
    deduped.push_back(e);
    if (!weights_.empty()) {
      deduped_weights.push_back(weights_[order[i]]);
    }
  }
  edges_ = std::move(deduped);
  weights_ = std::move(deduped_weights);
  return before - edges_.size();
}

}  // namespace egraph
