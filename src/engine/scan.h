// Whole-graph scan primitives for algorithms where every vertex is active in
// every round (Pagerank, SpMV): no frontier bookkeeping, just the layout's
// native iteration order. Each maps to one of the paper's configurations.
// The CSR scans walk the lists through CsrNeighbors (neighbor_range.h), so
// the weighted branch is fixed once per scan, not paid per edge.
//
// All scans iterate in chunks so the edges_scanned counter is bumped once per
// chunk, not per edge — the metrics cost stays off the inner loop.
//
// CSR and row-major grid scans take a Balance knob: Balance::kVertex chunks
// by item count (fixed grain), Balance::kEdge chunks by degree/cell cost
// using the layout's own cost prefix, so hub vertices and dense cells no
// longer serialize their chunk.
#ifndef SRC_ENGINE_SCAN_H_
#define SRC_ENGINE_SCAN_H_

#include <algorithm>
#include <vector>

#include "src/engine/neighbor_range.h"
#include "src/engine/options.h"
#include "src/graph/edge_list.h"
#include "src/layout/csr.h"
#include "src/layout/grid.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/parallel.h"

namespace egraph {

namespace scan_internal {

inline constexpr int64_t kScanMinChunkCost = 2048;

}  // namespace scan_internal

// Edge-centric scan: body(src, dst, weight) for every edge, in parallel.
// Caller synchronizes destination writes (atomics/locks).
template <typename Body>
void ScanEdgeArray(const EdgeList& graph, Body&& body) {
  const auto& edges = graph.edges();
  obs::TimelineSpan timeline_span("engine", "scan.edgearray",
                                  static_cast<int64_t>(edges.size()));
  obs::Counter& scanned = obs::EngineCounters::Get().edges_scanned;
  ParallelForChunks(0, static_cast<int64_t>(edges.size()), /*grain=*/4096,
                    [&](int64_t lo, int64_t hi, int /*worker*/) {
                      for (int64_t i = lo; i < hi; ++i) {
                        const Edge& e = edges[static_cast<size_t>(i)];
                        body(e.src, e.dst, graph.EdgeWeight(static_cast<EdgeIndex>(i)));
                      }
                      scanned.Add(hi - lo);
                    });
}

// Vertex-centric push scan over an out-CSR: body(src, dst, weight) for
// every edge; source metadata naturally cached per vertex. Caller
// synchronizes dst writes. Balance::kEdge chunks are vertex-aligned with
// boundaries from the offsets.
template <typename Body>
void ScanBySource(const Csr& out, Balance balance, Body&& body) {
  obs::TimelineSpan timeline_span("engine", "scan.src", static_cast<int64_t>(out.num_edges()));
  obs::Counter& scanned = obs::EngineCounters::Get().edges_scanned;
  WithNeighbors(out, [&](const auto& range) {
    auto chunk = [&](int64_t lo, int64_t hi, int /*worker*/) {
      int64_t local = 0;
      for (int64_t v = lo; v < hi; ++v) {
        const VertexId src = static_cast<VertexId>(v);
        const uint64_t degree = range.Degree(src);
        local += static_cast<int64_t>(degree);
        range.ForEachNeighborSlice(src, 0, degree,
                                   [&body, src](VertexId dst, float w) { body(src, dst, w); });
      }
      scanned.Add(local);
    };
    if (balance == Balance::kEdge) {
      ParallelForBalancedChunks(CostBalancedBounds(range, scan_internal::kScanMinChunkCost),
                                chunk);
    } else {
      ParallelForChunks(0, static_cast<int64_t>(range.num_vertices()), /*grain=*/256, chunk);
    }
  });
}

// Vertex-centric pull scan over an in-CSR: body(dst, in_edges) once per
// destination, in_edges(fn) calling fn(src, weight) per in-neighbor in
// stored order. dst is written by exactly one thread (lock-free).
// Balance::kEdge stays vertex-aligned with boundaries from the offsets.
template <typename Body>
void ScanByDestination(const Csr& in, Balance balance, Body&& body) {
  obs::TimelineSpan timeline_span("engine", "scan.dst", static_cast<int64_t>(in.num_edges()));
  obs::Counter& scanned = obs::EngineCounters::Get().edges_scanned;
  WithNeighbors(in, [&](const auto& range) {
    auto chunk = [&](int64_t lo, int64_t hi, int /*worker*/) {
      int64_t local = 0;
      for (int64_t v = lo; v < hi; ++v) {
        const VertexId dst = static_cast<VertexId>(v);
        const uint64_t degree = range.Degree(dst);
        local += static_cast<int64_t>(degree);
        body(dst,
             [&range, dst, degree](auto&& fn) { range.ForEachNeighborSlice(dst, 0, degree, fn); });
      }
      scanned.Add(local);
    };
    if (balance == Balance::kEdge) {
      ParallelForBalancedChunks(CostBalancedBounds(range, scan_internal::kScanMinChunkCost),
                                chunk);
    } else {
      ParallelForChunks(0, static_cast<int64_t>(range.num_vertices()), /*grain=*/256, chunk);
    }
  });
}

// Grid scan, row-major cells: body(src, dst, weight); best source-block
// locality; caller synchronizes destination writes.
template <typename Body>
void ScanGridRowMajor(const Grid& grid, Balance balance, Body&& body) {
  const uint32_t blocks = grid.num_blocks();
  obs::TimelineSpan timeline_span("engine", "scan.grid.rows");
  obs::Counter& scanned = obs::EngineCounters::Get().edges_scanned;
  auto chunk = [&](int64_t lo, int64_t hi, int /*worker*/) {
    int64_t local = 0;
    for (int64_t c = lo; c < hi; ++c) {
      const uint32_t i = static_cast<uint32_t>(c / blocks);
      const uint32_t j = static_cast<uint32_t>(c % blocks);
      const auto cell = grid.Cell(i, j);
      const auto weights = grid.CellWeights(i, j);
      local += static_cast<int64_t>(cell.size());
      for (size_t k = 0; k < cell.size(); ++k) {
        body(cell[k].src, cell[k].dst, weights.empty() ? 1.0f : weights[k]);
      }
    }
    scanned.Add(local);
  };
  if (balance == Balance::kEdge) {
    // cell_offsets is row-major: exactly the cost prefix the partitioner
    // wants, no extra scan needed.
    const auto& cell_offsets = grid.cell_offsets();
    const int64_t num_cells = static_cast<int64_t>(blocks) * blocks;
    ParallelForBalancedChunks(
        BalancedChunkBoundaries(
            num_cells, BalancedChunkCount(grid.num_edges(), scan_internal::kScanMinChunkCost),
            [&cell_offsets](int64_t c) { return cell_offsets[static_cast<size_t>(c)]; }),
        chunk);
  } else {
    ParallelForChunks(0, static_cast<int64_t>(blocks) * blocks, /*grain=*/1, chunk);
  }
}

// Grid scan with column ownership: each thread exclusively owns the
// destination blocks it processes, so body may write dst state without
// synchronization (the paper's lock-removal-by-ownership, section 6.1.2).
// Columns dispatch in descending edge-count order: the pool's round-robin
// preload of grain-1 items turns that into a static greedy assignment, so
// the heaviest columns land on distinct workers instead of wherever index
// order happens to drop them (columns cannot be split — ownership is the
// point — so this is the only balancing lever available here).
template <typename Body>
void ScanGridColumnOwned(const Grid& grid, Body&& body) {
  const uint32_t blocks = grid.num_blocks();
  obs::TimelineSpan timeline_span("engine", "scan.grid.cols");
  obs::Counter& scanned = obs::EngineCounters::Get().edges_scanned;
  const auto& cell_offsets = grid.cell_offsets();
  std::vector<uint64_t> column_edges(blocks, 0);
  ParallelFor(0, static_cast<int64_t>(blocks), [&](int64_t j) {
    uint64_t sum = 0;
    for (uint32_t i = 0; i < blocks; ++i) {
      const size_t c = grid.CellIndex(i, static_cast<uint32_t>(j));
      sum += cell_offsets[c + 1] - cell_offsets[c];
    }
    column_edges[static_cast<size_t>(j)] = sum;
  });
  std::vector<uint32_t> order(blocks);
  for (uint32_t j = 0; j < blocks; ++j) {
    order[j] = j;
  }
  std::stable_sort(order.begin(), order.end(), [&column_edges](uint32_t a, uint32_t b) {
    return column_edges[a] > column_edges[b];
  });
  ParallelForChunks(0, static_cast<int64_t>(blocks), /*grain=*/1,
                    [&](int64_t lo, int64_t hi, int /*worker*/) {
                      int64_t local = 0;
                      for (int64_t idx = lo; idx < hi; ++idx) {
                        const uint32_t j = order[static_cast<size_t>(idx)];
                        for (uint32_t i = 0; i < blocks; ++i) {
                          const auto cell = grid.Cell(i, j);
                          const auto weights = grid.CellWeights(i, j);
                          local += static_cast<int64_t>(cell.size());
                          for (size_t k = 0; k < cell.size(); ++k) {
                            body(cell[k].src, cell[k].dst,
                                 weights.empty() ? 1.0f : weights[k]);
                          }
                        }
                      }
                      scanned.Add(local);
                    });
}

// Parallel map over all vertices: body(v).
template <typename Body>
void VertexMap(VertexId num_vertices, Body&& body) {
  ParallelFor(0, static_cast<int64_t>(num_vertices),
              [&](int64_t v) { body(static_cast<VertexId>(v)); });
}

}  // namespace egraph

#endif  // SRC_ENGINE_SCAN_H_
