#include "src/io/edge_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/io/text_parse.h"
#include "src/util/parallel.h"

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

// Reads exactly `bytes` at `offset`; false on EOF or error. Positional, so
// threads can read disjoint ranges of one descriptor concurrently.
bool PreadFully(int fd, void* data, size_t bytes, uint64_t offset) {
  char* out = static_cast<char*>(data);
  while (bytes != 0) {
    const ssize_t got = ::pread(fd, out, bytes, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return false;
    }
    out += got;
    bytes -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

// An open binary edge file whose preamble has passed CheckEdgeFilePreamble.
// Throws std::runtime_error otherwise.
class BinaryEdgeFile {
 public:
  explicit BinaryEdgeFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw std::runtime_error("cannot open " + path);
    }
    struct stat st {};
    const bool read = ::fstat(fd_, &st) == 0 && PreadFully(fd_, &header_, sizeof(header_), 0);
    bytes_ = static_cast<uint64_t>(st.st_size);
    try {
      CheckEdgeFilePreamble(header_, read ? sizeof(header_) : 0, bytes_, path);
    } catch (...) {
      ::close(fd_);
      throw;
    }
  }
  ~BinaryEdgeFile() { ::close(fd_); }
  BinaryEdgeFile(const BinaryEdgeFile&) = delete;
  BinaryEdgeFile& operator=(const BinaryEdgeFile&) = delete;

  int fd() const { return fd_; }
  const EdgeFileHeader& header() const { return header_; }
  uint64_t bytes() const { return bytes_; }

 private:
  int fd_;
  EdgeFileHeader header_;
  uint64_t bytes_ = 0;
};

}  // namespace

void WriteBinaryEdges(const std::string& path, const EdgeList& graph) {
  UniqueFile file = OpenOrThrow(path, "wb");
  EdgeFileHeader header;
  header.num_vertices = graph.num_vertices();
  header.flags = graph.has_weights() ? 1u : 0u;
  header.num_edges = graph.num_edges();
  WriteOrThrow(file.get(), &header, sizeof(header), path);
  WriteOrThrow(file.get(), graph.edges().data(), graph.edges().size() * sizeof(Edge), path);
  if (graph.has_weights()) {
    WriteOrThrow(file.get(), graph.weights().data(), graph.weights().size() * sizeof(float),
                 path);
  }
}

EdgeFileHeader ReadEdgeFileHeader(const std::string& path) {
  return BinaryEdgeFile(path).header();
}

EdgeList ReadBinaryEdges(const std::string& path) {
  const BinaryEdgeFile file(path);
  const EdgeFileHeader& header = file.header();
  const int fd = file.fd();

  // Sized, not written: each chunk's pread below writes its slots.
  const uint64_t m = header.num_edges;
  EdgeList graph;
  graph.set_num_vertices(header.num_vertices);
  graph.mutable_edges().resize(m);
  graph.mutable_weights().resize(header.has_weights() ? m : 0);
  Edge* const edges = graph.mutable_edges().data();
  float* const weights = graph.mutable_weights().data();
  const uint64_t weights_at = sizeof(EdgeFileHeader) + m * sizeof(Edge);

  // Chunks ride the pool one at a time; a chunk reads its edges and their
  // weights with positional reads (no shared file offset) and validates its
  // own endpoints. Failures are flagged, not thrown, inside the pool.
  std::atomic<bool> truncated{false};
  std::atomic<bool> out_of_range{false};
  const int64_t num_chunks =
      static_cast<int64_t>((m + kBinaryReadChunkEdges - 1) / kBinaryReadChunkEdges);
  ParallelForGrain(0, num_chunks, /*grain=*/1, [&](int64_t c) {
    const uint64_t lo = static_cast<uint64_t>(c) * kBinaryReadChunkEdges;
    const uint64_t count = std::min<uint64_t>(kBinaryReadChunkEdges, m - lo);
    if (!PreadFully(fd, edges + lo, count * sizeof(Edge),
                    sizeof(EdgeFileHeader) + lo * sizeof(Edge)) ||
        (header.has_weights() &&
         !PreadFully(fd, weights + lo, count * sizeof(float), weights_at + lo * sizeof(float)))) {
      truncated.store(true, std::memory_order_relaxed);
      return;
    }
    VertexId max_endpoint = 0;
    for (uint64_t i = lo; i < lo + count; ++i) {
      max_endpoint = std::max({max_endpoint, edges[i].src, edges[i].dst});
    }
    if (max_endpoint >= header.num_vertices) {
      out_of_range.store(true, std::memory_order_relaxed);
    }
  });
  if (truncated.load(std::memory_order_relaxed)) {
    throw std::runtime_error("truncated read from " + path);
  }
  if (out_of_range.load(std::memory_order_relaxed)) {
    throw std::runtime_error("edge endpoint out of range in " + path);
  }
  return graph;
}

void ValidateEdgeChunk(std::span<const Edge> edges, VertexId num_vertices,
                       const std::string& path) {
  const VertexId max_endpoint = ParallelReduceMax<VertexId>(
      0, static_cast<int64_t>(edges.size()), 0, [&edges](int64_t i) {
        const Edge& e = edges[static_cast<size_t>(i)];
        return e.src > e.dst ? e.src : e.dst;
      });
  if (!edges.empty() && max_endpoint >= num_vertices) {
    throw std::runtime_error("edge endpoint out of range in " + path);
  }
}

void CheckEdgeFilePreamble(const EdgeFileHeader& header, uint64_t header_bytes,
                           uint64_t file_bytes, const std::string& path) {
  if (header_bytes != sizeof(EdgeFileHeader) || header.magic != kEdgeFileMagic) {
    throw std::runtime_error("bad or truncated edge file: " + path);
  }
  // Per-edge cost: 8 bytes, plus 4 for the weight when present. Overflow
  // guard first: a garbage num_edges must not wrap the product.
  const uint64_t per_edge = sizeof(Edge) + (header.has_weights() ? sizeof(float) : 0);
  const uint64_t payload_budget = UINT64_MAX - sizeof(EdgeFileHeader);
  if (header.num_edges > payload_budget / per_edge ||
      sizeof(EdgeFileHeader) + header.num_edges * per_edge > file_bytes) {
    throw std::runtime_error("truncated edge file: " + path);
  }
}

void WriteTextEdges(const std::string& path, const EdgeList& graph) {
  UniqueFile file = OpenOrThrow(path, "w");
  std::fprintf(file.get(), "# vertices %u\n", graph.num_vertices());
  for (size_t i = 0; i < graph.edges().size(); ++i) {
    const Edge& e = graph.edges()[i];
    if (graph.has_weights()) {
      std::fprintf(file.get(), "%u %u %.6g\n", e.src, e.dst, graph.weights()[i]);
    } else {
      std::fprintf(file.get(), "%u %u\n", e.src, e.dst);
    }
  }
}

namespace {

// Per-shard output of the parallel text parse. Shards are concatenated in
// order, so the resulting edge order matches the sequential reader's.
struct TextShard {
  std::vector<Edge> edges;
  std::vector<float> weights;
  bool any_weighted = false;
  bool any_unweighted = false;
  bool has_declared = false;
  VertexId declared_vertices = 0;
  std::string error;  // first malformed line, if any
};

// Parses one newline-aligned shard of "src dst [weight]" lines. Lines may
// be arbitrarily long (no fgets buffer to split them); ids are strict
// unsigned (no silent negative wraparound); trailing junk is an error.
void ParseTextShard(std::string_view shard, const std::string& path, TextShard& out) {
  const char* cursor = shard.data();
  const char* const end = cursor + shard.size();
  while (cursor != end) {
    const std::string_view line = text::NextLine(cursor, end);
    const char* p = line.data();
    const char* const le = p + line.size();
    p = text::SkipSpace(p, le);
    if (p == le) {
      continue;
    }
    if (*p == '#') {
      // Recognize the "# vertices N" directive; other comments are skipped.
      const char* q = text::SkipSpace(p + 1, le);
      const std::string_view keyword("vertices");
      if (static_cast<size_t>(le - q) > keyword.size() &&
          std::string_view(q, keyword.size()) == keyword) {
        q += keyword.size();
        VertexId declared = 0;
        if (text::ParseUnsigned(q, le, declared) && text::AtLineEnd(q, le)) {
          out.declared_vertices = declared;
          out.has_declared = true;
        }
      }
      continue;
    }
    VertexId src = 0;
    VertexId dst = 0;
    if (!text::ParseUnsigned(p, le, src) || !text::ParseUnsigned(p, le, dst)) {
      out.error = "unparsable line in " + path + ": " + std::string(line);
      return;
    }
    if (text::AtLineEnd(p, le)) {
      out.any_unweighted = true;
      out.edges.push_back({src, dst});
      continue;
    }
    double weight = 0.0;
    if (!text::ParseDouble(p, le, weight) || !text::AtLineEnd(p, le)) {
      out.error = "unparsable line in " + path + ": " + std::string(line);
      return;
    }
    out.any_weighted = true;
    out.edges.push_back({src, dst});
    out.weights.push_back(static_cast<float>(weight));
  }
}

}  // namespace

EdgeList ReadTextEdges(const std::string& path) {
  const std::string content = ReadWholeFile(path);
  std::vector<TextShard> shards(static_cast<size_t>(ThreadPool::Current().num_threads()));
  const size_t used = ParallelLineShards(
      content, /*min_shard_bytes=*/64u << 10,
      [&](size_t index, std::string_view text) { ParseTextShard(text, path, shards[index]); });
  shards.resize(used);

  bool any_weighted = false;
  bool any_unweighted = false;
  size_t total_edges = 0;
  for (const TextShard& shard : shards) {
    if (!shard.error.empty()) {
      throw std::runtime_error(shard.error);
    }
    any_weighted = any_weighted || shard.any_weighted;
    any_unweighted = any_unweighted || shard.any_unweighted;
    total_edges += shard.edges.size();
  }
  if (any_weighted && any_unweighted) {
    throw std::runtime_error("mixed weighted/unweighted lines in " + path);
  }

  EdgeList graph;
  graph.Reserve(total_edges);
  if (any_weighted) {
    graph.mutable_weights().reserve(total_edges);
  }
  for (TextShard& shard : shards) {
    graph.mutable_edges().insert(graph.mutable_edges().end(), shard.edges.begin(),
                                 shard.edges.end());
    if (any_weighted) {
      graph.mutable_weights().insert(graph.mutable_weights().end(), shard.weights.begin(),
                                     shard.weights.end());
    }
    // The sequential reader honored the last "# vertices" directive seen.
    if (shard.has_declared) {
      graph.set_num_vertices(shard.declared_vertices);
    }
  }
  graph.RecomputeNumVertices();
  return graph;
}

}  // namespace egraph
