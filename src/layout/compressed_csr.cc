#include "src/layout/compressed_csr.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

void EncodeVarint(uint64_t value, std::vector<uint8_t>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}

}  // namespace

CompressedCsr CompressedCsr::FromCsr(const Csr& csr, double* seconds,
                                     uint32_t chunk_edges) {
  Timer timer;
  CompressedCsr out;
  const VertexId n = csr.num_vertices();
  const uint32_t ce = chunk_edges == 0 ? kDefaultChunkEdges : chunk_edges;
  out.num_vertices_ = n;
  out.num_edges_ = csr.num_edges();
  out.has_weights_ = csr.has_weights();
  out.chunk_edges_ = ce;
  out.degrees_.resize(n);
  out.chunk_begin_.resize(static_cast<size_t>(n) + 1);

  // Chunk index layout: ceil(degree / chunk_edges) chunks per vertex. The
  // chunk index space is u32 to keep the per-vertex table narrow.
  uint64_t chunk_total = 0;
  out.chunk_begin_[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t degree = static_cast<uint32_t>(csr.Degree(v));
    out.degrees_[v] = degree;
    chunk_total += (static_cast<uint64_t>(degree) + ce - 1) / ce;
    if (chunk_total > UINT32_MAX) {
      throw std::runtime_error("compressed CSR chunk count overflows u32");
    }
    out.chunk_begin_[static_cast<size_t>(v) + 1] = static_cast<uint32_t>(chunk_total);
  }
  const size_t num_chunks = static_cast<size_t>(chunk_total);
  out.chunk_bytes_.resize(num_chunks + 1);

  // Pass 1: parallel per-vertex encode into one scratch buffer per chunk so
  // offsets assemble without re-walking the stream. Neighbor lists are
  // sorted first (weights permuted alongside when present) — sorted order
  // is what makes the deltas small and the decode order deterministic.
  std::vector<std::vector<uint8_t>> chunk_scratch(num_chunks);
  ParallelFor(0, static_cast<int64_t>(n), [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    auto span = csr.Neighbors(v);
    if (span.empty()) {
      return;
    }
    const size_t degree = span.size();
    std::vector<size_t> order(degree);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&span](size_t a, size_t b) { return span[a] < span[b]; });
    auto weights = csr.Weights(v);
    const bool weighted = out.has_weights_ && !weights.empty();
    const size_t first_chunk = out.chunk_begin_[v];
    VertexId prev = 0;
    for (size_t i = 0; i < degree; ++i) {
      const VertexId neighbor = span[order[i]];
      auto& bytes = chunk_scratch[first_chunk + i / ce];
      if (i % ce == 0) {
        // Chunk start: re-anchor against the owning vertex so the chunk
        // decodes with no dependency on preceding chunks.
        EncodeVarint(ZigZag(static_cast<int64_t>(neighbor) - static_cast<int64_t>(v)),
                     bytes);
      } else {
        EncodeVarint(neighbor - prev, bytes);
      }
      if (out.has_weights_) {
        const float w = weighted ? weights[order[i]] : 1.0f;
        EncodeVarint(std::bit_cast<uint32_t>(w), bytes);
      }
      prev = neighbor;
    }
  });

  // Pass 2: serial byte-offset assembly over chunks, then parallel splice.
  uint64_t total_bytes = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    out.chunk_bytes_[c] = total_bytes;
    total_bytes += chunk_scratch[c].size();
  }
  out.chunk_bytes_[num_chunks] = total_bytes;
  out.bytes_.resize(total_bytes);
  ParallelFor(0, static_cast<int64_t>(num_chunks), [&](int64_t c) {
    const auto& bytes = chunk_scratch[static_cast<size_t>(c)];
    std::copy(bytes.begin(), bytes.end(),
              out.bytes_.begin() +
                  static_cast<int64_t>(out.chunk_bytes_[static_cast<size_t>(c)]));
  });

  if (seconds != nullptr) {
    *seconds = timer.Seconds();
  }
  return out;
}

}  // namespace egraph
