#include "src/layout/csr.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {

void Csr::Init(VertexId num_vertices, UninitVector<EdgeIndex> offsets,
               UninitVector<VertexId> neighbors, UninitVector<float> weights) {
  assert(offsets.size() == static_cast<size_t>(num_vertices) + 1);
  assert(weights.empty() || weights.size() == neighbors.size());
  num_vertices_ = num_vertices;
  offsets_ = std::move(offsets);
  neighbors_ = std::move(neighbors);
  weights_ = std::move(weights);
}

double Csr::SortNeighborLists() {
  Timer timer;
  if (weights_.empty()) {
    ParallelFor(0, static_cast<int64_t>(num_vertices_), [this](int64_t v) {
      std::sort(neighbors_.begin() + static_cast<int64_t>(offsets_[v]),
                neighbors_.begin() + static_cast<int64_t>(offsets_[v + 1]));
    });
  } else {
    // Weighted lists sort (neighbor, weight) pairs together via an index
    // permutation per vertex.
    ParallelFor(0, static_cast<int64_t>(num_vertices_), [this](int64_t v) {
      const EdgeIndex lo = offsets_[v];
      const EdgeIndex hi = offsets_[v + 1];
      const size_t len = hi - lo;
      if (len < 2) {
        return;
      }
      std::vector<uint32_t> order(len);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return neighbors_[lo + a] < neighbors_[lo + b];
      });
      std::vector<VertexId> tmp_n(len);
      std::vector<float> tmp_w(len);
      for (size_t i = 0; i < len; ++i) {
        tmp_n[i] = neighbors_[lo + order[i]];
        tmp_w[i] = weights_[lo + order[i]];
      }
      std::copy(tmp_n.begin(), tmp_n.end(), neighbors_.begin() + static_cast<int64_t>(lo));
      std::copy(tmp_w.begin(), tmp_w.end(), weights_.begin() + static_cast<int64_t>(lo));
    });
  }
  return timer.Seconds();
}

bool Csr::NeighborListsSorted() const {
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (EdgeIndex i = offsets_[v] + 1; i < offsets_[v + 1]; ++i) {
      if (neighbors_[i - 1] > neighbors_[i]) {
        return false;
      }
    }
  }
  return true;
}

size_t Csr::MemoryBytes() const {
  return offsets_.size() * sizeof(EdgeIndex) + neighbors_.size() * sizeof(VertexId) +
         weights_.size() * sizeof(float);
}

}  // namespace egraph
