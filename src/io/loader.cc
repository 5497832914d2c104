#include "src/io/loader.h"

#include <functional>
#include <memory>
#include <stdexcept>

#include "src/io/edge_io.h"
#include "src/io/parallel_loader.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

// Streams the edge section of `path` chunk by chunk into `graph`, invoking
// `on_chunk(first_edge_index, count)` after each chunk lands in the edge
// array. Endpoints are validated per chunk. Returns the header.
template <typename OnChunk>
EdgeFileHeader StreamEdges(const std::string& path, size_t chunk_bytes, EdgeList& graph,
                           ThrottledFileReader& reader, OnChunk&& on_chunk) {
  EdgeFileHeader header;
  CheckEdgeFilePreamble(header, reader.Read(&header, sizeof(header)), reader.file_bytes(), path);
  graph.set_num_vertices(header.num_vertices);
  graph.mutable_edges().resize(header.num_edges);
  Edge* edges = graph.mutable_edges().data();

  const size_t edges_per_chunk = chunk_bytes / sizeof(Edge) == 0 ? 1 : chunk_bytes / sizeof(Edge);
  uint64_t cursor = 0;
  while (cursor < header.num_edges) {
    const uint64_t want =
        std::min<uint64_t>(edges_per_chunk, header.num_edges - cursor);
    const size_t got = reader.Read(edges + cursor, want * sizeof(Edge));
    if (got != want * sizeof(Edge)) {
      throw std::runtime_error("truncated edge section in " + path);
    }
    ValidateEdgeChunk({edges + cursor, static_cast<size_t>(want)}, header.num_vertices,
                      path);
    on_chunk(cursor, want);
    cursor += want;
  }
  if (header.has_weights()) {
    graph.mutable_weights().resize(header.num_edges);
    const size_t bytes = header.num_edges * sizeof(float);
    if (reader.Read(graph.mutable_weights().data(), bytes) != bytes) {
      throw std::runtime_error("truncated weight section in " + path);
    }
  }
  return header;
}

}  // namespace

const char* LoaderKindName(LoaderKind kind) {
  switch (kind) {
    case LoaderKind::kSequential:
      return "sequential";
    case LoaderKind::kPipelined:
      return "pipelined";
  }
  return "?";
}

EdgeList LoadEdges(const std::string& path, StorageMedium medium, double* seconds) {
  obs::ScopedPhase phase(obs::Phase::kLoad);
  Timer timer;
  EdgeList graph;
  if (medium.bandwidth_bytes_per_sec <= 0.0) {
    graph = ReadBinaryEdges(path);
  } else {
    ThrottledFileReader reader(path, medium);
    StreamEdges(path, 8u << 20, graph, reader, [](uint64_t, uint64_t) {});
  }
  obs::Registry::Get().GetCounter("io.edges_loaded").Add(
      static_cast<int64_t>(graph.num_edges()));
  if (seconds != nullptr) {
    *seconds = timer.Seconds();
  }
  return graph;
}

LoadBuildResult LoadAndBuild(const std::string& path, const LoadBuildOptions& options) {
  LoadBuildResult result;
  Timer total;

  // Builders need the vertex count up front; the header read is tiny and
  // unthrottled (metadata, not payload).
  const EdgeFileHeader header = ReadEdgeFileHeader(path);

  std::unique_ptr<DynamicAdjacencyBuilder> dyn_out;
  std::unique_ptr<DynamicAdjacencyBuilder> dyn_in;
  std::unique_ptr<CountingAdjacencyBuilder> count_out;
  std::unique_ptr<CountingAdjacencyBuilder> count_in;

  // The per-chunk work each build method can overlap with the transfer.
  // Chunks address disjoint, already-landed slices of result.edges, so the
  // same callback serves both loader kinds.
  std::function<void(uint64_t, uint64_t)> on_chunk = [](uint64_t, uint64_t) {};
  switch (options.method) {
    case BuildMethod::kDynamic:
      dyn_out = std::make_unique<DynamicAdjacencyBuilder>(
          header.num_vertices, EdgeDirection::kOut, header.has_weights());
      if (options.build_in) {
        dyn_in = std::make_unique<DynamicAdjacencyBuilder>(
            header.num_vertices, EdgeDirection::kIn, header.has_weights());
      }
      on_chunk = [&result, &dyn_out, &dyn_in](uint64_t first, uint64_t count) {
        std::span<const Edge> chunk(result.edges.edges().data() + first, count);
        // Weights stream after the edge section; AddChunkDeferred records
        // file indices so FinalizeDeferred attaches the real weights (the
        // old path silently substituted unit weights here).
        dyn_out->AddChunkDeferred(chunk, first);
        if (dyn_in != nullptr) {
          dyn_in->AddChunkDeferred(chunk, first);
        }
      };
      break;
    case BuildMethod::kCountSort:
      count_out = std::make_unique<CountingAdjacencyBuilder>(header.num_vertices,
                                                             EdgeDirection::kOut);
      if (options.build_in) {
        count_in = std::make_unique<CountingAdjacencyBuilder>(header.num_vertices,
                                                              EdgeDirection::kIn);
      }
      on_chunk = [&result, &count_out, &count_in](uint64_t first, uint64_t count) {
        std::span<const Edge> chunk(result.edges.edges().data() + first, count);
        count_out->CountChunk(chunk);
        if (count_in != nullptr) {
          count_in->CountChunk(chunk);
        }
      };
      break;
    case BuildMethod::kRadixSort:
      // Radix sorting needs the complete edge array; nothing to overlap.
      break;
  }

  if (options.loader == LoaderKind::kPipelined) {
    ParallelLoader loader;
    ParallelLoader::Options loader_options;
    loader_options.medium = options.medium;
    loader_options.chunk_bytes = options.chunk_bytes;
    loader_options.max_chunks_in_flight = options.max_chunks_in_flight;
    loader.Load(path, loader_options, result.edges, on_chunk);
    result.load_stall_seconds = loader.stats().stall_seconds;
    result.overlap_seconds = loader.stats().overlap_seconds;
  } else {
    ThrottledFileReader reader(path, options.medium);
    StreamEdges(path, options.chunk_bytes, result.edges, reader, on_chunk);
    result.load_stall_seconds = reader.stall_seconds();
    // The pipelined loader exports these itself (with bytes/overlap detail);
    // mirror the stall counter here so both loaders are comparable in traces.
    obs::Registry::Get().GetCounter("io.stall_micros").Add(
        static_cast<int64_t>(result.load_stall_seconds * 1e6));
  }

  if (options.method == BuildMethod::kDynamic) {
    // The paper's dynamic adjacency structure is complete here.
    result.ready_seconds = total.Seconds();
  }

  Timer post;
  switch (options.method) {
    case BuildMethod::kDynamic:
      result.out = dyn_out->FinalizeDeferred(result.edges.weights());
      if (dyn_in != nullptr) {
        result.in = dyn_in->FinalizeDeferred(result.edges.weights());
        result.has_in = true;
      }
      break;
    case BuildMethod::kCountSort:
      result.out = count_out->Scatter(result.edges);
      if (count_in != nullptr) {
        result.in = count_in->Scatter(result.edges);
        result.has_in = true;
      }
      break;
    case BuildMethod::kRadixSort:
      result.out = BuildCsr(result.edges, EdgeDirection::kOut, BuildMethod::kRadixSort);
      if (options.build_in) {
        result.in = BuildCsr(result.edges, EdgeDirection::kIn, BuildMethod::kRadixSort);
        result.has_in = true;
      }
      break;
  }
  result.post_load_seconds = post.Seconds();
  result.total_seconds = total.Seconds();
  if (options.method != BuildMethod::kDynamic) {
    result.ready_seconds = result.total_seconds;
  }
  // Phase attribution follows the paper's split: streaming the file is
  // "load"; everything after the last byte (Finalize/Scatter/BuildCsr) is
  // "pre-process". For kDynamic the structure grows during the stream, so
  // only the Finalize tail counts as pre-processing. The pipelined loader
  // keeps the same attribution — overlap shrinks the load wall time rather
  // than moving work between phases.
  obs::PhaseTimers::Get().Add(obs::Phase::kLoad,
                              result.total_seconds - result.post_load_seconds);
  obs::PhaseTimers::Get().Add(obs::Phase::kPreprocess, result.post_load_seconds);
  obs::Registry::Get().GetCounter("io.edges_loaded").Add(
      static_cast<int64_t>(result.edges.num_edges()));
  return result;
}

}  // namespace egraph
