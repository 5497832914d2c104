// EGCMPR01: the on-disk format of the chunked delta-compressed CSR, plus a
// ParaGrapher-style selective loader that decompresses only requested
// vertex ranges. The format is storage only: every load decodes into a plain
// CSR, the layout the kernels run on.
//
// Binary layout (little endian), magic "EGCMPR01":
//   uint64 magic
//   uint32 num_vertices
//   uint32 flags            bit 0: interleaved weight stream
//   uint64 num_edges
//   uint64 num_chunks
//   uint32 chunk_edges      split threshold the encoder used
//   uint32 reserved
//   uint64 stream_bytes
//   uint32[num_vertices]        degrees
//   uint32[num_vertices + 1]    chunk_begin   (per-vertex first chunk index)
//   uint64[num_chunks + 1]      chunk_bytes   (byte offset per chunk — the seek table)
//   uint8[stream_bytes]         varint stream
//
// The per-chunk byte offsets are what make selective loading possible: any
// vertex range [v_lo, v_hi) maps to a contiguous byte span
// [chunk_bytes[chunk_begin[v_lo]], chunk_bytes[chunk_begin[v_hi]]), and
// nothing outside that span is ever read or decoded.
#ifndef SRC_IO_COMPRESSED_IO_H_
#define SRC_IO_COMPRESSED_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/graph/types.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr.h"

namespace egraph {

inline constexpr uint64_t kEgcmprMagic = 0x313052504D434745ULL;  // "EGCMPR01"

struct CompressedFileHeader {
  uint64_t magic = kEgcmprMagic;
  uint32_t num_vertices = 0;
  uint32_t flags = 0;
  uint64_t num_edges = 0;
  uint64_t num_chunks = 0;
  uint32_t chunk_edges = 0;
  uint32_t reserved = 0;
  uint64_t stream_bytes = 0;

  bool has_weights() const { return (flags & 1u) != 0; }
};
static_assert(sizeof(CompressedFileHeader) == 48);

// Throws std::runtime_error on a bad magic, or if a file of `file_bytes`
// bytes cannot contain the sections the header declares (overflow-safe), or
// if the header is internally inconsistent (zero chunk_edges with nonzero
// edges). Table consistency is checked once the tables are read.
void ValidateCompressedFileSize(const CompressedFileHeader& header, uint64_t file_bytes,
                                const std::string& path);

// Writes `compressed` to `path`. Throws std::runtime_error on I/O failure.
void WriteCompressedCsr(const std::string& path, const CompressedCsr& compressed);

// Loads a whole compressed graph into a plain CSR whose neighbor lists are
// sorted (the encoder sorts them). It is SelectiveCompressedLoader's
// LoadRange(0, n): a corrupt header, table or stream throws instead of
// decoding garbage.
Csr ReadCompressedCsr(const std::string& path);

// A vertex range decoded by the selective loader: `csr` holds the lists of
// vertices [v_lo, v_hi), row i being vertex v_lo + i. Neighbor ids stay
// global, so csr.num_vertices() is the range size, not the graph's.
struct DecodedRange {
  VertexId v_lo = 0;
  VertexId v_hi = 0;
  Csr csr;
};

// ParaGrapher-style selective loader: opens the file once, reads and checks
// the header and chunk tables (they are the cheap part), and decodes only
// the byte spans the requested ranges cover. Decode is chunk-parallel — each
// chunk's output slot is derived from the degrees prefix, so no sequential
// stitching.
//
// Counters (obs registry): io.compressed.bytes_decoded accumulates the byte
// spans actually read+decoded; io.compressed.bytes_skipped the rest of the
// stream; io.compressed.chunks_decoded the chunk count. The same numbers are
// available per-loader through stats().
class SelectiveCompressedLoader {
 public:
  struct Stats {
    uint64_t bytes_decoded = 0;
    uint64_t bytes_skipped = 0;
    uint64_t chunks_decoded = 0;
    uint64_t ranges_loaded = 0;
  };

  // Opens `path`, reads the header and chunk tables. Throws on bad magic,
  // truncation, or inconsistent tables.
  explicit SelectiveCompressedLoader(const std::string& path);
  ~SelectiveCompressedLoader();

  SelectiveCompressedLoader(const SelectiveCompressedLoader&) = delete;
  SelectiveCompressedLoader& operator=(const SelectiveCompressedLoader&) = delete;

  VertexId num_vertices() const { return header_.num_vertices; }
  uint64_t num_edges() const { return header_.num_edges; }
  bool has_weights() const { return header_.has_weights(); }
  uint64_t stream_bytes() const { return header_.stream_bytes; }
  uint32_t Degree(VertexId v) const { return degrees_[v]; }

  // Decodes the adjacency of vertices [v_lo, v_hi). Reads exactly the byte
  // span covering those vertices' chunks; every varint is bounds-checked,
  // every neighbor range-checked and every chunk must consume exactly its
  // span, so a corrupt stream throws. Thread-compatible, not thread-safe
  // (the FILE* seek is shared).
  DecodedRange LoadRange(VertexId v_lo, VertexId v_hi);

  // Splits [0, num_vertices) into `partitions` equal vertex ranges and
  // decodes partition `index` — the query-driven entry point: a
  // partition-scoped computation loads only its own slice.
  DecodedRange LoadPartition(uint32_t index, uint32_t partitions);

  const Stats& stats() const { return stats_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  CompressedFileHeader header_;
  uint64_t stream_start_ = 0;  // byte offset of the varint stream in the file
  std::vector<uint32_t> degrees_;
  std::vector<uint32_t> chunk_begin_;
  std::vector<uint64_t> chunk_bytes_;
  Stats stats_;
};

}  // namespace egraph

#endif  // SRC_IO_COMPRESSED_IO_H_
