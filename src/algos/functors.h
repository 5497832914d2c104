// The EdgeMap functors of the frontier algorithms (RunBfs, RunSssp, RunWcc).
// Contract: src/engine/edge_map.h.
//
// Update() is the only writer of dst (pull, striped lock, grid column), but
// other threads may read the same slot meanwhile: as a source of their own
// relaxation, or through an unlocked Cond(). So Update() reads and writes
// dst with relaxed atomics as well; on x86 they compile to plain moves.
#ifndef SRC_ALGOS_FUNCTORS_H_
#define SRC_ALGOS_FUNCTORS_H_

#include "src/graph/types.h"
#include "src/util/atomics.h"

namespace egraph {

// Claim-once BFS: a vertex joins the tree when its parent slot is CASed
// from kInvalidVertex. Cond() keeps push from re-touching discovered
// vertices and gives pull its early exit.
struct BfsFunctor {
  VertexId* parent;

  bool Update(VertexId src, VertexId dst, float /*weight*/) {
    if (AtomicLoad(&parent[dst]) == kInvalidVertex) {
      AtomicStore(&parent[dst], src);
      return true;
    }
    return false;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float /*weight*/) {
    return AtomicCas(&parent[dst], kInvalidVertex, src);
  }

  bool Cond(VertexId dst) const { return AtomicLoad(&parent[dst]) == kInvalidVertex; }
};

// Label-correcting SSSP relaxation.
struct SsspFunctor {
  float* dist;

  bool Update(VertexId src, VertexId dst, float weight) {
    // dst is exclusively owned by the caller, but src may be relaxed
    // concurrently elsewhere: read it atomically (monotone, so any stale
    // value is still a valid upper bound).
    const float candidate = AtomicLoad(&dist[src]) + weight;
    if (candidate < AtomicLoad(&dist[dst])) {
      AtomicStore(&dist[dst], candidate);
      return true;
    }
    return false;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float weight) {
    return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + weight);
  }

  bool Cond(VertexId /*dst*/) const { return true; }
};

// Min-label propagation for connected components.
struct WccFunctor {
  VertexId* label;

  bool Update(VertexId src, VertexId dst, float /*weight*/) {
    // dst is exclusively owned; src's label may shrink concurrently, so read
    // it atomically (any stale value is still a member of the component).
    const VertexId src_label = AtomicLoad(&label[src]);
    if (src_label < AtomicLoad(&label[dst])) {
      AtomicStore(&label[dst], src_label);
      return true;
    }
    return false;
  }

  bool UpdateAtomic(VertexId src, VertexId dst, float /*weight*/) {
    return AtomicMin(&label[dst], AtomicLoad(&label[src]));
  }

  bool Cond(VertexId /*dst*/) const { return true; }
};

}  // namespace egraph

#endif  // SRC_ALGOS_FUNCTORS_H_
