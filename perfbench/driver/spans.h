// Span recording for the traced run. The driver wraps each call it makes
// into a library layer (io, layout, algos, serve, snapshot) in a span with
// name, layer, start, end, parent and — on the serving path — query id.
// Spans stay in memory and are written out once, at exit.
//
// ScopedSpan always times its interval (the untraced run uses the same
// stopwatch for its end-to-end numbers); only a recorder that is enabled
// stores the span, so the difference between a traced and an untraced run
// is exactly the cost of recording.
#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Span layer of the driver's own root spans (a job, a set-up, a session).
inline constexpr const char* kBenchLayer = "bench";

struct Span {
  std::string layer;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;    // index of the enclosing span, -1 for a root
  int64_t query_id = -1;  // serving spans: the query they belong to
};

struct SpanSummary {
  std::map<std::string, double> self_seconds;  // per layer, roots excluded
  double root_seconds = 0.0;        // summed wall time of bench root spans
  double unattributed_seconds = 0.0;  // root time no layer span covers
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span; its parent is `parent` when given, else the innermost
  // span the calling thread has open. Returns -1 when disabled.
  int64_t Open(const char* layer, const char* name, uint64_t start_ns,
               int64_t query_id = -1, int64_t parent = -1);
  void Close(int64_t index, uint64_t end_ns);

  // Records an already finished span (e.g. rebuilt from a request trace).
  int64_t Add(const char* layer, const char* name, uint64_t start_ns,
              uint64_t end_ns, int64_t parent, int64_t query_id = -1);

  // Self time per layer (a span's duration minus the part its children
  // cover) and the part of the root spans no layer span covers.
  SpanSummary Summarize() const;

  // Writes every span, one JSON object per line. Returns false on I/O error.
  bool Write(const std::string& path) const;

  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

// RAII span: times [construction, destruction) and records it when the
// recorder is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* layer, const char* name,
             int64_t query_id = -1, int64_t parent = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Seconds since the span opened (usable before it closes).
  double Seconds() const;
  int64_t index() const { return index_; }
  uint64_t start_ns() const { return start_ns_; }

 private:
  SpanRecorder& recorder_;
  uint64_t start_ns_ = 0;
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
