// NUMA partitioning (paper section 7.1), expressed over the generic
// contiguous-range partition in src/layout/range_partition.h (the cost
// model is a client of BuildRangePartition). This header keeps the
// node-flavored vocabulary the cost model and benches use.
#ifndef SRC_NUMA_PARTITION_H_
#define SRC_NUMA_PARTITION_H_

#include <utility>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/layout/csr.h"
#include "src/layout/range_partition.h"

namespace egraph {

// Which per-node CSR keyings to materialize (see RangeCsrs).
using PartitionCsrs = RangeCsrs;

class NumaPartition : public RangePartition {
 public:
  NumaPartition() = default;
  explicit NumaPartition(RangePartition&& partition)
      : RangePartition(std::move(partition)) {}

  int num_nodes() const { return num_ranges(); }

  // Node owning vertex v (binary search over boundaries).
  int NodeOf(VertexId v) const { return RangeOf(v); }

  // Edges whose destination is local to `node`, keyed by source vertex
  // (global ids; sources may be remote).
  const Csr& NodeOutCsr(int node) const { return RangeOutCsr(node); }

  // Same edges keyed by (local) destination.
  const Csr& NodeInCsr(int node) const { return RangeInCsr(node); }

  uint64_t NodeEdgeCount(int node) const { return RangeEdgeCount(node); }

  // Wall time of the whole partitioning step (boundaries + bucketing + CSRs).
  double partition_seconds() const { return build_seconds(); }
};

// Partitions `graph` over `num_nodes` NUMA nodes, balancing
// vertices + in-edges per node (Gemini's hybrid balance).
inline NumaPartition PartitionGraph(const EdgeList& graph, int num_nodes,
                                    PartitionCsrs csrs = PartitionCsrs::kBoth) {
  return NumaPartition(BuildRangePartition(graph, num_nodes, csrs));
}

}  // namespace egraph

#endif  // SRC_NUMA_PARTITION_H_
