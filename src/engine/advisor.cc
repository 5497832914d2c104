#include "src/engine/advisor.h"

#include "src/obs/metrics.h"

namespace egraph {
namespace {

// Graphs with tiny average degree behave like high-diameter road networks
// (paper Table 5/6 distinctions); power-law graphs sit well above this.
constexpr double kLowDegreeThreshold = 6.0;

}  // namespace

AlgorithmTraits TraitsBfs() { return {"bfs", false, true, false, false}; }
AlgorithmTraits TraitsWcc() { return {"wcc", false, true, true, false}; }
AlgorithmTraits TraitsSssp() { return {"sssp", false, true, false, false}; }
AlgorithmTraits TraitsPagerank() { return {"pagerank", false, false, false, true}; }
AlgorithmTraits TraitsSpmv() { return {"spmv", true, false, false, false}; }
AlgorithmTraits TraitsAls() { return {"als", false, true, false, true, true}; }

Recommendation Advise(const AlgorithmTraits& algorithm, const GraphStats& graph,
                      const MachineTraits& machine) {
  Recommendation rec;
  const bool low_degree = graph.avg_degree < kLowDegreeThreshold;

  if (algorithm.single_pass) {
    // "Short algorithms, such as SPMV, that complete in one iteration,
    // should use an edge array, as it incurs no pre-processing cost."
    rec.layout = Layout::kEdgeArray;
    rec.direction = Direction::kPush;
    rec.sync = Sync::kAtomics;
    rec.rationale = "single-pass: any pre-processing is unamortizable";
  } else if (algorithm.subset_active) {
    if (algorithm.needs_undirected && !low_degree) {
      // WCC on low-diameter graphs -> edge array (paper Table 6): no
      // symmetrization, no doubled adjacency-list build. The paper sends
      // high-diameter graphs to adjacency because its edge-array WCC pays a
      // full scan per propagation round; this library's edge-array WCC is
      // one union-find pass at any diameter, so that branch reproduces the
      // paper's choice, not the cheaper kernel (bench_table6_best_others
      // times both sides).
      rec.layout = Layout::kEdgeArray;
      rec.direction = Direction::kPush;
      rec.sync = Sync::kAtomics;
      rec.rationale = "undirected + low diameter: doubled CSR cost never amortizes";
    } else {
      // "When the computation works only on a small subset of the graph at
      // every computation step, adjacency lists in push mode improve
      // algorithm execution time."
      rec.layout = Layout::kAdjacency;
      rec.direction = Direction::kPush;
      rec.sync = Sync::kAtomics;
      rec.rationale = "subset-active: adjacency push skips inactive vertices";
    }
  } else {
    if (low_degree) {
      // All-active on low-degree graphs: the grid barely improves the miss
      // ratio, so its construction never pays (Pagerank on US-Road).
      rec.layout = Layout::kEdgeArray;
      rec.direction = Direction::kPull;
      rec.sync = Sync::kAtomics;
      rec.rationale = "all-active + low degree: grid's miss-ratio gain too small";
    } else {
      // "Algorithms that ... iterate over most of the graph at every
      // iteration may benefit from using a grid."
      rec.layout = Layout::kGrid;
      rec.direction = Direction::kPull;
      rec.sync = Sync::kLockFree;
      rec.rationale = "all-active + high degree: grid halves LLC misses";
    }
  }

  // Gather-based algorithms (ALS): each active vertex aggregates into its
  // own state, so pull over adjacency lists runs lock-free (paper Table 6:
  // ALS -> adjacency, pull, no locks).
  if (algorithm.gather_based) {
    rec.layout = Layout::kAdjacency;
    rec.direction = Direction::kPull;
    rec.rationale = "gather-based: per-vertex solves own state, pull without locks";
  }

  // Memory budget: when the out-CSR (offsets + neighbor array) cannot fit
  // beside the input, run on the edge array instead — it computes on the
  // resident input and builds nothing. ALS keeps adjacency: it runs only
  // there.
  if (rec.layout == Layout::kAdjacency && !algorithm.gather_based &&
      machine.memory_budget_bytes > 0) {
    const uint64_t csr_bytes =
        static_cast<uint64_t>(graph.num_vertices + 1) * sizeof(uint64_t) +
        static_cast<uint64_t>(graph.num_edges) * sizeof(VertexId);
    if (csr_bytes > machine.memory_budget_bytes) {
      rec.layout = Layout::kEdgeArray;
      rec.direction = Direction::kPush;
      rec.sync = Sync::kAtomics;
      rec.rationale += "; CSR exceeds memory budget, edge array builds nothing";
    }
  }

  // Lock removal is always beneficial when the layout permits (section 9,
  // step 3): pull on adjacency and any direction on grid run lock-free.
  if (rec.layout == Layout::kAdjacency && rec.direction == Direction::kPull) {
    rec.sync = Sync::kLockFree;
  }
  if (rec.layout == Layout::kGrid) {
    rec.sync = Sync::kLockFree;
  }

  // NUMA partitioning pays only on large machines, for long-running
  // algorithms that touch most of the data every iteration (section 7).
  rec.numa_partition =
      machine.numa_nodes >= 4 && algorithm.long_running && !algorithm.subset_active;
  if (rec.numa_partition) {
    rec.rationale += "; NUMA partitioning amortized by long all-active run";
  }

  obs::Registry::Get().GetCounter("advisor.calls").Add(1);
  obs::Registry::Get()
      .GetCounter(std::string("advisor.recommend.") + LayoutName(rec.layout))
      .Add(1);
  return rec;
}

}  // namespace egraph
