#include "src/io/parallel_loader.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/util/timer.h"

namespace egraph {
namespace {

struct ChunkDesc {
  uint64_t first = 0;
  uint64_t count = 0;
};

// Bounded single-producer single-consumer chunk queue. The mutex handoff
// doubles as the happens-before edge that publishes the chunk's bytes
// (written by the reader thread) to the consumer.
class BoundedChunkQueue {
 public:
  explicit BoundedChunkQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  // Blocks while full. Returns false if the consumer closed the queue.
  bool Push(const ChunkDesc& chunk) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return queue_.size() < capacity_ || closed_; });
    if (closed_) {
      return false;
    }
    queue_.push_back(chunk);
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns false once the producer finished and the
  // queue drained.
  bool Pop(ChunkDesc& chunk) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !queue_.empty() || finished_; });
    if (queue_.empty()) {
      return false;
    }
    chunk = queue_.front();
    queue_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void Finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    finished_ = true;
    not_empty_.notify_all();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<ChunkDesc> queue_;
  bool finished_ = false;  // producer done
  bool closed_ = false;    // consumer aborted
};

}  // namespace

EdgeFileHeader ParallelLoader::Load(const std::string& path, const Options& options,
                                    EdgeList& graph,
                                    const std::function<void(uint64_t, uint64_t)>& on_chunk) {
  stats_ = ParallelLoadStats{};
  ThrottledFileReader reader(path, options.medium);

  EdgeFileHeader header;
  CheckEdgeFilePreamble(header, reader.Read(&header, sizeof(header)), reader.file_bytes(), path);

  graph.set_num_vertices(header.num_vertices);
  graph.mutable_edges().resize(header.num_edges);
  if (header.has_weights()) {
    graph.mutable_weights().resize(header.num_edges);
  }
  Edge* edges = graph.mutable_edges().data();
  float* weights = header.has_weights() ? graph.mutable_weights().data() : nullptr;

  const size_t edges_per_chunk =
      options.chunk_bytes / sizeof(Edge) == 0 ? 1 : options.chunk_bytes / sizeof(Edge);
  BoundedChunkQueue queue(static_cast<size_t>(
      options.max_chunks_in_flight < 1 ? 1 : options.max_chunks_in_flight));

  std::atomic<bool> reader_active{true};
  std::atomic<uint64_t> bytes_landed{0};
  std::atomic<uint64_t> bytes_consumed{0};
  std::atomic<uint64_t> peak_in_flight{0};
  std::exception_ptr reader_error;
  double reader_seconds = 0.0;

  std::thread reader_thread([&] {
    obs::Timeline::SetThreadLabel("io.reader");
    Timer reader_timer;
    try {
      uint64_t cursor = 0;
      while (cursor < header.num_edges) {
        const uint64_t want =
            std::min<uint64_t>(edges_per_chunk, header.num_edges - cursor);
        size_t got = 0;
        {
          obs::TimelineSpan read_span("io", "read.chunk",
                                      static_cast<int64_t>(want * sizeof(Edge)));
          got = reader.Read(edges + cursor, want * sizeof(Edge));
        }
        if (got != want * sizeof(Edge)) {
          throw std::runtime_error("truncated edge section in " + path);
        }
        const uint64_t landed =
            bytes_landed.fetch_add(got, std::memory_order_relaxed) + got;
        const uint64_t in_flight = landed - bytes_consumed.load(std::memory_order_relaxed);
        uint64_t peak = peak_in_flight.load(std::memory_order_relaxed);
        while (in_flight > peak &&
               !peak_in_flight.compare_exchange_weak(peak, in_flight,
                                                     std::memory_order_relaxed)) {
        }
        bool accepted = false;
        {
          // Time spent in Push beyond the lock handoff is backpressure: the
          // consumer has not drained the bounded queue yet.
          obs::TimelineSpan push_span("io", "queue.push");
          accepted = queue.Push({cursor, want});
        }
        if (!accepted) {
          break;  // consumer aborted
        }
        cursor += want;
      }
      if (weights != nullptr && cursor == header.num_edges) {
        // The weight section trails the edge section; stream it in the same
        // chunk granularity so bandwidth accounting stays uniform.
        uint64_t wcursor = 0;
        const uint64_t weights_per_chunk = edges_per_chunk * 2;  // floats are half an Edge
        while (wcursor < header.num_edges) {
          const uint64_t want =
              std::min<uint64_t>(weights_per_chunk, header.num_edges - wcursor);
          size_t got = 0;
          {
            obs::TimelineSpan read_span("io", "read.weights",
                                        static_cast<int64_t>(want * sizeof(float)));
            got = reader.Read(weights + wcursor, want * sizeof(float));
          }
          if (got != want * sizeof(float)) {
            throw std::runtime_error("truncated weight section in " + path);
          }
          bytes_landed.fetch_add(got, std::memory_order_relaxed);
          bytes_consumed.fetch_add(got, std::memory_order_relaxed);
          wcursor += want;
        }
      }
    } catch (...) {
      reader_error = std::current_exception();
    }
    reader_seconds = reader_timer.Seconds();
    reader_active.store(false, std::memory_order_relaxed);
    queue.Finish();
  });

  try {
    ChunkDesc chunk;
    auto pop_next = [&queue, &chunk] {
      obs::TimelineSpan wait_span("io", "load.wait");
      return queue.Pop(chunk);
    };
    while (pop_next()) {
      Timer build_timer;
      obs::TimelineSpan build_span("io", "build.chunk",
                                   static_cast<int64_t>(chunk.count));
      ValidateEdgeChunk({edges + chunk.first, static_cast<size_t>(chunk.count)},
                        header.num_vertices, path);
      on_chunk(chunk.first, chunk.count);
      bytes_consumed.fetch_add(chunk.count * sizeof(Edge), std::memory_order_relaxed);
      ++stats_.chunks;
      // Count the chunk's build time as overlapped only if the reader was
      // still streaming when it ended (conservative: a chunk the reader
      // finished under counts zero).
      if (reader_active.load(std::memory_order_relaxed)) {
        stats_.overlap_seconds += build_timer.Seconds();
      }
    }
  } catch (...) {
    queue.Close();
    reader_thread.join();
    throw;
  }
  reader_thread.join();
  if (reader_error != nullptr) {
    std::rethrow_exception(reader_error);
  }

  stats_.stall_seconds = reader.stall_seconds();
  stats_.reader_seconds = reader_seconds;
  stats_.bytes_read = bytes_landed.load(std::memory_order_relaxed);
  stats_.peak_bytes_in_flight = peak_in_flight.load(std::memory_order_relaxed);

  obs::Registry& registry = obs::Registry::Get();
  registry.GetCounter("io.stall_micros")
      .Add(static_cast<int64_t>(stats_.stall_seconds * 1e6));
  registry.GetCounter("io.overlap_micros")
      .Add(static_cast<int64_t>(stats_.overlap_seconds * 1e6));
  registry.GetCounter("io.bytes_read").Add(static_cast<int64_t>(stats_.bytes_read));
  registry.GetHistogram("io.bytes_in_flight")
      .Record(static_cast<int64_t>(stats_.peak_bytes_in_flight));
  return header;
}

}  // namespace egraph
