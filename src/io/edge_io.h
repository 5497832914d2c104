// Edge-list persistence. The binary format mirrors the paper's assumption
// that "the graph input takes the form of an edge array": a fixed header
// followed by raw (src, dst) pairs, then optional float weights.
//
// Binary layout (little endian):
//   uint64 magic       "EGRAPH01"
//   uint32 num_vertices
//   uint32 flags       bit 0: has weights
//   uint64 num_edges
//   Edge[num_edges]    8 bytes each
//   float[num_edges]   present iff weighted
#ifndef SRC_IO_EDGE_IO_H_
#define SRC_IO_EDGE_IO_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/graph/edge_list.h"

namespace egraph {

inline constexpr uint64_t kEdgeFileMagic = 0x3130485041524745ULL;  // "EGRAPH01"

struct EdgeFileHeader {
  uint64_t magic = kEdgeFileMagic;
  uint32_t num_vertices = 0;
  uint32_t flags = 0;
  uint64_t num_edges = 0;

  bool has_weights() const { return (flags & 1u) != 0; }
};
static_assert(sizeof(EdgeFileHeader) == 24);

// Writes `graph` to `path`. Throws std::runtime_error on I/O failure.
void WriteBinaryEdges(const std::string& path, const EdgeList& graph);

// Edges per chunk of ReadBinaryEdges (1 MiB of edges, 512 KiB of weights).
inline constexpr uint64_t kBinaryReadChunkEdges = uint64_t{1} << 17;

// Reads a full graph, unthrottled: the header and file-size checks run
// first, then the edge and weight arrays are allocated without being
// written, and the pool reads them in chunks of kBinaryReadChunkEdges with
// positional reads; each chunk's pread writes its slots and its reader
// validates that chunk's endpoints. Throws std::runtime_error on
// missing/corrupt/truncated input (bad magic, size mismatch, an endpoint
// >= num_vertices).
EdgeList ReadBinaryEdges(const std::string& path);

// Reads just the header (for streaming loaders), with the preamble checks
// of CheckEdgeFilePreamble.
EdgeFileHeader ReadEdgeFileHeader(const std::string& path);

// The preamble check every binary reader runs before sizing a buffer from
// the header: `header_bytes` bytes of `header` were read from the start of
// a file of `file_bytes` bytes. Throws std::runtime_error on a short header
// or a bad magic ("bad or truncated edge file"), and if the file cannot
// contain the sections the header declares (overflow-safe, so a corrupt
// edge count fails cleanly instead of OOMing).
void CheckEdgeFilePreamble(const EdgeFileHeader& header, uint64_t header_bytes,
                           uint64_t file_bytes, const std::string& path);

// Throws std::runtime_error if any endpoint in `edges` is >= num_vertices.
// Parallel scan; the loaders call this per streamed chunk so a corrupt file
// cannot drive an out-of-bounds scatter in the builders.
void ValidateEdgeChunk(std::span<const Edge> edges, VertexId num_vertices,
                       const std::string& path);

// Text interchange: one "src dst [weight]" line per edge; '#' comments
// allowed. Vertex count is the max endpoint + 1 unless a "# vertices N"
// comment is present.
void WriteTextEdges(const std::string& path, const EdgeList& graph);
EdgeList ReadTextEdges(const std::string& path);

}  // namespace egraph

#endif  // SRC_IO_EDGE_IO_H_
