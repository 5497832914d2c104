// Delta-compressed adjacency lists: the in-memory form of the EGCMPR01
// storage format (src/io/compressed_io.h). Per-vertex neighbor lists are
// sorted, delta-encoded and varint-packed, and every list is cut into
// fixed-size chunks of at most chunk_edges() entries. Each chunk carries its
// own byte offset and re-anchors its first neighbor against the owning
// vertex, so a loader can decode the chunks in parallel and decompress any
// vertex range from disk without touching bytes outside it (the per-chunk
// offsets are the seek table). Kernels never run on this form: a load
// decodes it into a plain CSR.
//
// Encoding per chunk of vertex v covering sorted neighbors n_a..n_b:
//   zigzag-varint(n_a - v), then varint(n_i - n_{i-1}) for i in (a, b].
// When the source CSR is weighted, each neighbor varint is followed by the
// varint of its float weight's bit pattern (interleaved weight stream), so
// weights round-trip bit for bit.
//
// Only three tables are kept — per-vertex degrees (u32), per-vertex first
// chunk index (u32), and the per-chunk byte seek table (u64). Everything
// else (chunk owner, chunk size, edge offsets) is derived, which keeps the
// metadata small enough that low-degree graphs still compress below the
// plain CSR footprint.
#ifndef SRC_LAYOUT_COMPRESSED_CSR_H_
#define SRC_LAYOUT_COMPRESSED_CSR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/types.h"
#include "src/layout/csr.h"

namespace egraph {

class CompressedCsr {
 public:
  // Default split threshold: lists up to this size are one chunk; anything
  // larger is cut into ceil(degree / chunk_edges) independently decodable
  // chunks. 128 entries keeps a chunk's decode state in registers while
  // still giving a 1M-degree hub ~8k parallel work units.
  static constexpr uint32_t kDefaultChunkEdges = 128;

  CompressedCsr() = default;

  // Builds from a CSR. Neighbor lists are sorted during encoding (weights,
  // when present, are permuted with their neighbors; the original CSR is
  // not modified). `seconds` receives the encode time. Throws if the chunk
  // count would overflow the u32 chunk index space (needs > ~500G edges at
  // the default chunk size).
  static CompressedCsr FromCsr(const Csr& csr, double* seconds = nullptr,
                               uint32_t chunk_edges = kDefaultChunkEdges);

  VertexId num_vertices() const { return num_vertices_; }
  EdgeIndex num_edges() const { return num_edges_; }
  bool has_weights() const { return has_weights_; }
  uint32_t chunk_edges() const { return chunk_edges_; }
  int64_t num_chunks() const {
    return num_vertices_ == 0 ? 0 : static_cast<int64_t>(chunk_begin_[num_vertices_]);
  }

  // Byte offset of v's encoded adjacency within the stream
  // (ByteOffset(num_vertices()) is the stream size): the bytes a selective
  // load of [v_lo, v_hi) reads are ByteOffset(v_hi) - ByteOffset(v_lo).
  uint64_t ByteOffset(VertexId v) const {
    return chunk_bytes_[static_cast<size_t>(chunk_begin_[v])];
  }

  // Bytes held by the compressed structure (stream + all tables).
  size_t MemoryBytes() const {
    return bytes_.size() + degrees_.size() * sizeof(uint32_t) +
           chunk_begin_.size() * sizeof(uint32_t) +
           chunk_bytes_.size() * sizeof(uint64_t);
  }

  // Compression ratio vs the plain CSR footprint — offsets plus neighbor
  // array plus, when weighted, the weight array (< 1 is smaller).
  double RatioVsPlain() const {
    double plain = static_cast<double>(num_edges_) * sizeof(VertexId) +
                   static_cast<double>(num_vertices_ + 1) * sizeof(EdgeIndex);
    if (has_weights_) {
      plain += static_cast<double>(num_edges_) * sizeof(float);
    }
    return plain == 0 ? 1.0 : static_cast<double>(MemoryBytes()) / plain;
  }

  double BytesPerEdge() const {
    return num_edges_ == 0
               ? 0.0
               : static_cast<double>(MemoryBytes()) / static_cast<double>(num_edges_);
  }

  // Raw table access (persistence layer).
  const std::vector<uint32_t>& degrees() const { return degrees_; }
  const std::vector<uint32_t>& chunk_begin() const { return chunk_begin_; }
  const std::vector<uint64_t>& chunk_bytes() const { return chunk_bytes_; }
  const std::vector<uint8_t>& stream_bytes() const { return bytes_; }

  // Checked varint decode for untrusted bytes (the file loader): fails
  // (returns false) on truncation (cursor would pass `end`) or a varint
  // longer than 10 bytes, instead of reading out of bounds or shifting past
  // the value width. On success advances `cursor` past the varint.
  static bool DecodeVarintChecked(const uint8_t*& cursor, const uint8_t* end,
                                  uint64_t* value) {
    uint64_t out = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (cursor == end || shift >= 64) {
        return false;
      }
      const uint8_t byte = *cursor++;
      out |= static_cast<uint64_t>(byte & 0x7F) << (shift < 63 ? shift : 63);
      if ((byte & 0x80) == 0) {
        *value = out;
        return true;
      }
    }
    return false;
  }

 private:
  VertexId num_vertices_ = 0;
  EdgeIndex num_edges_ = 0;
  bool has_weights_ = false;
  uint32_t chunk_edges_ = kDefaultChunkEdges;
  std::vector<uint32_t> degrees_;      // per vertex
  std::vector<uint32_t> chunk_begin_;  // per vertex + 1: first chunk index
  std::vector<uint64_t> chunk_bytes_;  // per chunk + 1: byte offsets
  std::vector<uint8_t> bytes_;         // the varint stream
};

}  // namespace egraph

#endif  // SRC_LAYOUT_COMPRESSED_CSR_H_
