#include "src/io/compressed_io.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/parallel.h"
#include "src/util/uninit_vector.h"

namespace egraph {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using UniqueFile = std::unique_ptr<std::FILE, FileCloser>;

UniqueFile OpenOrThrow(const std::string& path, const char* mode) {
  UniqueFile file(std::fopen(path.c_str(), mode));
  if (file == nullptr) {
    throw std::runtime_error("cannot open " + path);
  }
  return file;
}

void WriteOrThrow(std::FILE* f, const void* data, size_t bytes, const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("short write to " + path);
  }
}

void ReadOrThrow(std::FILE* f, void* data, size_t bytes, const std::string& path) {
  if (bytes != 0 && std::fread(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("truncated read from " + path);
  }
}

void SeekOrThrow(std::FILE* f, uint64_t offset, const std::string& path) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    throw std::runtime_error("seek failed on " + path);
  }
}

// Byte size of the fixed tables between the header and the varint stream.
// Overflow-checked: any intermediate that would wrap throws.
uint64_t TableBytesOrThrow(const CompressedFileHeader& header, const std::string& path) {
  const uint64_t n = header.num_vertices;
  const uint64_t c = header.num_chunks;
  // The chunk index space is u32 (the per-vertex table is u32), so an
  // absurd chunk count is rejected before any size arithmetic.
  if (c > UINT32_MAX) {
    throw std::runtime_error("absurd chunk count in " + path);
  }
  return n * sizeof(uint32_t) + (n + 1) * sizeof(uint32_t) +
         (c + 1) * sizeof(uint64_t);
}

}  // namespace

void ValidateCompressedFileSize(const CompressedFileHeader& header, uint64_t file_bytes,
                                const std::string& path) {
  if (header.magic != kEgcmprMagic) {
    throw std::runtime_error("bad magic in " + path);
  }
  if (header.chunk_edges == 0 && header.num_edges != 0) {
    throw std::runtime_error("zero chunk_edges with nonzero edges in " + path);
  }
  const uint64_t table_bytes = TableBytesOrThrow(header, path);
  const uint64_t budget = UINT64_MAX - sizeof(CompressedFileHeader);
  if (table_bytes > budget || header.stream_bytes > budget - table_bytes ||
      sizeof(CompressedFileHeader) + table_bytes + header.stream_bytes > file_bytes) {
    throw std::runtime_error("truncated compressed graph file: " + path);
  }
}

void WriteCompressedCsr(const std::string& path, const CompressedCsr& compressed) {
  UniqueFile file = OpenOrThrow(path, "wb");
  CompressedFileHeader header;
  header.num_vertices = compressed.num_vertices();
  header.flags = compressed.has_weights() ? 1u : 0u;
  header.num_edges = compressed.num_edges();
  header.num_chunks = static_cast<uint64_t>(compressed.num_chunks());
  header.chunk_edges = compressed.chunk_edges();
  header.stream_bytes = compressed.stream_bytes().size();
  WriteOrThrow(file.get(), &header, sizeof(header), path);
  WriteOrThrow(file.get(), compressed.degrees().data(),
               compressed.degrees().size() * sizeof(uint32_t), path);
  WriteOrThrow(file.get(), compressed.chunk_begin().data(),
               compressed.chunk_begin().size() * sizeof(uint32_t), path);
  WriteOrThrow(file.get(), compressed.chunk_bytes().data(),
               compressed.chunk_bytes().size() * sizeof(uint64_t), path);
  WriteOrThrow(file.get(), compressed.stream_bytes().data(),
               compressed.stream_bytes().size(), path);
}

Csr ReadCompressedCsr(const std::string& path) {
  SelectiveCompressedLoader loader(path);
  return loader.LoadRange(0, loader.num_vertices()).csr;
}

SelectiveCompressedLoader::SelectiveCompressedLoader(const std::string& path)
    : path_(path) {
  UniqueFile file = OpenOrThrow(path, "rb");
  ReadOrThrow(file.get(), &header_, sizeof(header_), path);
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    throw std::runtime_error("seek failed on " + path);
  }
  const uint64_t file_bytes = static_cast<uint64_t>(std::ftell(file.get()));
  ValidateCompressedFileSize(header_, file_bytes, path);
  SeekOrThrow(file.get(), sizeof(CompressedFileHeader), path);

  const size_t n = header_.num_vertices;
  const size_t c = static_cast<size_t>(header_.num_chunks);
  degrees_.resize(n);
  chunk_begin_.resize(n + 1);
  chunk_bytes_.resize(c + 1);
  ReadOrThrow(file.get(), degrees_.data(), degrees_.size() * sizeof(uint32_t), path);
  ReadOrThrow(file.get(), chunk_begin_.data(), chunk_begin_.size() * sizeof(uint32_t),
              path);
  ReadOrThrow(file.get(), chunk_bytes_.data(), chunk_bytes_.size() * sizeof(uint64_t),
              path);
  stream_start_ = static_cast<uint64_t>(std::ftell(file.get()));

  // Table sanity up front so LoadRange can trust offsets and seek bounds;
  // the stream itself is validated chunk by chunk as ranges decode.
  if (header_.chunk_edges == 0 || chunk_begin_[0] != 0 ||
      chunk_begin_[n] != header_.num_chunks || chunk_bytes_[c] != header_.stream_bytes) {
    throw std::runtime_error("inconsistent chunk tables in " + path);
  }
  uint64_t edge_total = 0;
  for (size_t v = 0; v < n; ++v) {
    const uint64_t expected = (static_cast<uint64_t>(degrees_[v]) +
                               header_.chunk_edges - 1) /
                              header_.chunk_edges;
    if (chunk_begin_[v] > chunk_begin_[v + 1] ||
        chunk_begin_[v + 1] - chunk_begin_[v] != expected) {
      throw std::runtime_error("inconsistent chunk tables in " + path);
    }
    edge_total += degrees_[v];
  }
  if (edge_total != header_.num_edges) {
    throw std::runtime_error("inconsistent chunk tables in " + path);
  }
  for (size_t i = 0; i < c; ++i) {
    if (chunk_bytes_[i] > chunk_bytes_[i + 1]) {
      throw std::runtime_error("inconsistent chunk tables in " + path);
    }
  }
  file_ = file.release();
}

SelectiveCompressedLoader::~SelectiveCompressedLoader() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

DecodedRange SelectiveCompressedLoader::LoadRange(VertexId v_lo, VertexId v_hi) {
  if (v_lo > v_hi || v_hi > header_.num_vertices) {
    throw std::runtime_error("vertex range out of bounds for " + path_);
  }
  const int64_t span_vertices = static_cast<int64_t>(v_hi - v_lo);
  UninitVector<EdgeIndex> offsets(static_cast<size_t>(span_vertices) + 1);
  ParallelFor(0, span_vertices, [&](int64_t i) {
    offsets[static_cast<size_t>(i)] = degrees_[v_lo + static_cast<size_t>(i)];
  });
  offsets[static_cast<size_t>(span_vertices)] = 0;
  const EdgeIndex range_edges = ParallelExclusiveScan(offsets);
  const bool weighted = header_.has_weights();
  UninitVector<VertexId> neighbors(range_edges);
  UninitVector<float> weights(weighted ? range_edges : 0);

  const uint32_t chunk_lo = chunk_begin_[v_lo];
  const uint32_t chunk_hi = chunk_begin_[v_hi];
  const uint64_t byte_lo = chunk_bytes_[chunk_lo];
  const uint64_t byte_hi = chunk_bytes_[chunk_hi];
  const int64_t num_chunks = static_cast<int64_t>(chunk_hi) - chunk_lo;

  // Owner per chunk in the range: what lets every chunk find its output
  // slot and entry count, and so decode independently below.
  std::vector<VertexId> chunk_owner(static_cast<size_t>(num_chunks));
  ParallelFor(0, span_vertices, [&](int64_t i) {
    const VertexId v = v_lo + static_cast<VertexId>(i);
    for (uint32_t c = chunk_begin_[v]; c < chunk_begin_[static_cast<size_t>(v) + 1]; ++c) {
      chunk_owner[c - chunk_lo] = v;
    }
  });

  // Read exactly the covering byte span — the rest of the stream is never
  // touched.
  UninitVector<uint8_t> bytes(byte_hi - byte_lo);
  SeekOrThrow(file_, stream_start_ + byte_lo, path_);
  ReadOrThrow(file_, bytes.data(), bytes.size(), path_);

  // Checked decode: every varint in bounds, every neighbor < num_vertices,
  // every chunk consuming exactly its byte span. The tables were checked at
  // open, so the chunks of a clean stream write every output slot once.
  std::vector<uint8_t> chunk_ok(static_cast<size_t>(num_chunks), 1);
  const uint32_t chunk_edges = header_.chunk_edges;
  ParallelFor(0, num_chunks, [&](int64_t i) {
    const size_t c = static_cast<size_t>(chunk_lo) + static_cast<size_t>(i);
    const VertexId owner = chunk_owner[static_cast<size_t>(i)];
    const uint64_t consumed = static_cast<uint64_t>(c - chunk_begin_[owner]) * chunk_edges;
    const uint64_t size = std::min<uint64_t>(chunk_edges, degrees_[owner] - consumed);
    const uint64_t out_base = offsets[owner - v_lo] + consumed;
    const uint8_t* cursor = bytes.data() + (chunk_bytes_[c] - byte_lo);
    const uint8_t* end = bytes.data() + (chunk_bytes_[c + 1] - byte_lo);
    VertexId neighbor = 0;
    for (uint64_t j = 0; j < size; ++j) {
      uint64_t raw = 0;
      if (!CompressedCsr::DecodeVarintChecked(cursor, end, &raw)) {
        chunk_ok[static_cast<size_t>(i)] = 0;
        return;
      }
      int64_t candidate;
      if (j == 0) {
        const int64_t delta =
            static_cast<int64_t>(raw >> 1) ^ -static_cast<int64_t>(raw & 1);
        candidate = static_cast<int64_t>(owner) + delta;
      } else {
        candidate = static_cast<int64_t>(neighbor) + static_cast<int64_t>(raw);
      }
      if (candidate < 0 || candidate >= static_cast<int64_t>(header_.num_vertices)) {
        chunk_ok[static_cast<size_t>(i)] = 0;
        return;
      }
      neighbor = static_cast<VertexId>(candidate);
      neighbors[out_base + j] = neighbor;
      if (weighted) {
        uint64_t weight_bits = 0;
        if (!CompressedCsr::DecodeVarintChecked(cursor, end, &weight_bits) ||
            weight_bits > 0xFFFFFFFFULL) {
          chunk_ok[static_cast<size_t>(i)] = 0;
          return;
        }
        weights[out_base + j] = std::bit_cast<float>(static_cast<uint32_t>(weight_bits));
      }
    }
    if (cursor != end) {
      chunk_ok[static_cast<size_t>(i)] = 0;
    }
  });
  for (int64_t i = 0; i < num_chunks; ++i) {
    if (!chunk_ok[static_cast<size_t>(i)]) {
      throw std::runtime_error("corrupt compressed chunk in " + path_);
    }
  }

  stats_.bytes_decoded += bytes.size();
  stats_.bytes_skipped += header_.stream_bytes - bytes.size();
  stats_.chunks_decoded += static_cast<uint64_t>(num_chunks);
  ++stats_.ranges_loaded;
  obs::Registry& registry = obs::Registry::Get();
  registry.GetCounter("io.compressed.bytes_decoded")
      .Add(static_cast<int64_t>(bytes.size()));
  registry.GetCounter("io.compressed.bytes_skipped")
      .Add(static_cast<int64_t>(header_.stream_bytes - bytes.size()));
  registry.GetCounter("io.compressed.chunks_decoded").Add(num_chunks);

  DecodedRange range;
  range.v_lo = v_lo;
  range.v_hi = v_hi;
  range.csr.Init(static_cast<VertexId>(span_vertices), std::move(offsets),
                 std::move(neighbors), std::move(weights));
  return range;
}

DecodedRange SelectiveCompressedLoader::LoadPartition(uint32_t index, uint32_t partitions) {
  if (partitions == 0 || index >= partitions) {
    throw std::runtime_error("bad partition request for " + path_);
  }
  const uint64_t n = header_.num_vertices;
  const VertexId lo = static_cast<VertexId>(n * index / partitions);
  const VertexId hi = static_cast<VertexId>(n * (index + 1) / partitions);
  return LoadRange(lo, hi);
}

}  // namespace egraph
