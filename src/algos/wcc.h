// Weakly connected components; label[v] is the smallest id in v's component.
//
// - Edge array and grid: one concurrent union-find pass over the stored
//   edges (each edge links the larger root under the smaller with a CAS),
//   then one find per vertex. One pass at any diameter, and no
//   symmetrization: an edge joins its endpoints whichever way it points.
// - Adjacency: Ligra-style frontier label propagation (the
//   paper's row): every vertex starts with its own id and the minimum floods
//   each component, one round per unit of diameter. The input must be
//   symmetrized first (EdgeList::MakeUndirected, paper section 8), doubling
//   the CSR build cost — charge it as pre-processing.
#ifndef SRC_ALGOS_WCC_H_
#define SRC_ALGOS_WCC_H_

#include <vector>

#include "src/algos/common.h"

namespace egraph {

struct WccResult {
  // label[v] = smallest vertex id in v's weakly connected component.
  std::vector<VertexId> label;
  AlgoStats stats;
};

// For Layout::kAdjacency the handle's edge list must already be undirected.
WccResult RunWcc(GraphHandle& handle, const RunConfig& config,
                 ExecutionContext& ctx = ExecutionContext::Default());

}  // namespace egraph

#endif  // SRC_ALGOS_WCC_H_
