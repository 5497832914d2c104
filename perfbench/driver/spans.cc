#include "driver/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "driver/common.h"

namespace perfbench {

namespace {

// The calling thread's open spans, innermost last.
thread_local std::vector<int64_t> open_spans;

// Length of the union of [start, end) intervals, clipped to [lo, hi).
uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                     uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

int64_t SpanRecorder::Open(const char* layer, const char* name, uint64_t start_ns,
                           int64_t query_id, int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  if (parent < 0 && !open_spans.empty()) {
    parent = open_spans.back();
  }
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{layer, name, start_ns, 0, parent, query_id});
  }
  open_spans.push_back(index);
  return index;
}

void SpanRecorder::Close(int64_t index, uint64_t end_ns) {
  if (index < 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), index);
  if (it != open_spans.rend()) {
    open_spans.erase(std::next(it).base());
  }
}

int64_t SpanRecorder::Add(const char* layer, const char* name, uint64_t start_ns,
                          uint64_t end_ns, int64_t parent, int64_t query_id) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{layer, name, start_ns, end_ns, parent, query_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

SpanSummary SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t n = spans_.size();
  std::vector<uint64_t> child_ns(n, 0);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> root_children(n);
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      continue;
    }
    const size_t parent = static_cast<size_t>(span.parent);
    child_ns[parent] += span.end_ns - span.start_ns;
    if (spans_[parent].layer == kBenchLayer) {
      root_children[parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  SpanSummary summary;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    const uint64_t duration = span.end_ns - span.start_ns;
    if (span.layer == kBenchLayer) {
      // Concurrent children (queries of one session) may overlap, so the
      // covered part of a root is the union of its children's intervals.
      const uint64_t covered =
          UnionLength(root_children[i], span.start_ns, span.end_ns);
      summary.root_seconds += duration * 1e-9;
      summary.unattributed_seconds += (duration - covered) * 1e-9;
      continue;
    }
    const uint64_t self = duration > child_ns[i] ? duration - child_ns[i] : 0;
    summary.self_seconds[span.layer] += self * 1e-9;
  }
  return summary;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"layer\": \"%s\", \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"query_id\": %lld}\n",
                 span.layer.c_str(), span.name.c_str(),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.query_id));
  }
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* layer, const char* name,
                       int64_t query_id, int64_t parent)
    : recorder_(recorder), start_ns_(NowNs()) {
  index_ = recorder_.Open(layer, name, start_ns_, query_id, parent);
}

ScopedSpan::~ScopedSpan() { recorder_.Close(index_, NowNs()); }

double ScopedSpan::Seconds() const { return (NowNs() - start_ns_) * 1e-9; }

}  // namespace perfbench
