// Fundamental graph types shared by every layout and algorithm.
#ifndef SRC_GRAPH_TYPES_H_
#define SRC_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>
#include <type_traits>

namespace egraph {

// Vertex identifiers are dense 32-bit integers in [0, num_vertices).
using VertexId = uint32_t;

// Edge positions/counts can exceed 2^32 on large graphs.
using EdgeIndex = uint64_t;

inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

// A directed edge. This is also the on-disk input format: the paper assumes
// "the graph input takes the form of an edge array" of (src, dst) pairs.
// The default constructor deliberately leaves both ids unwritten, so
// `std::vector<Edge>::resize(n)` allocates without a serial zero-fill; every
// caller that sizes an edge array that way overwrites each slot (a file
// read, a generator, a scatter). Write `Edge{0, 0}`, not `Edge{}`, for a
// zero edge.
struct Edge {
  VertexId src;
  VertexId dst;

  Edge() {}
  constexpr Edge(VertexId s, VertexId d) : src(s), dst(d) {}

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 8, "Edge must stay 8 bytes: it is the I/O format");
static_assert(std::is_trivially_copyable_v<Edge>, "Edge arrays are read and written as raw bytes");

}  // namespace egraph

#endif  // SRC_GRAPH_TYPES_H_
