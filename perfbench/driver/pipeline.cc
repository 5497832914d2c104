// File-to-answer analytics jobs (pipeline-twitter). One job:
// LoadEdges, Prepare out, Prepare out+in, then the workload's algorithms on
// the prepared handle. Every job's answers are checked against sequential
// references computed from the generated graph before timing starts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver/workloads.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/reference.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/gen/datasets.h"
#include "src/io/edge_io.h"
#include "src/io/loader.h"

namespace perfbench {

namespace {

using egraph::AlgoStats;
using egraph::Direction;
using egraph::EdgeList;
using egraph::ExecutionContext;
using egraph::GraphHandle;
using egraph::Layout;
using egraph::RunConfig;
using egraph::VertexId;

// Per-vertex tolerance of PageRank against RefPagerank: parallel pull sums
// in a different order than the sequential reference.
constexpr double kPagerankRelTol = 1e-4;
constexpr double kPagerankAbsTol = 1e-9;
constexpr int kPagerankIterations = 10;

// Indexes kKindNames.
enum Kind { kBfs = 0, kSssp = 1, kPagerank = 2, kWcc = 3, kNumKinds = 4 };

struct References {
  VertexId source = 0;
  std::vector<uint32_t> levels;
  std::vector<float> dist;
  std::vector<float> rank;
  std::vector<VertexId> labels;
};

struct Answer {
  Kind kind = kBfs;
  double seconds = 0.0;        // the Run* call
  double since_job_start = 0.0;  // from the job's first byte loaded
  int iterations = 0;
  double algorithm_seconds = 0.0;
  int64_t edges_scanned = 0;
  int pull_rounds = 0;
  bool ok = false;
};

struct JobResult {
  double load_s = 0.0;
  double build_out_s = 0.0;
  double build_in_s = 0.0;
  double setup_s = 0.0;
  double job_s = 0.0;
  double csr_mb = 0.0;
  double run_wall_s = 0.0;  // summed Run* wall time
  double run_cpu_s = 0.0;   // process CPU time during Run* calls
  uint64_t steals = 0;
  std::vector<Answer> answers;
};

uint64_t TotalSteals(ExecutionContext& ctx) {
  uint64_t total = 0;
  for (uint64_t steals : ctx.pool().StealCountsPerWorker()) {
    total += steals;
  }
  return total;
}

// Hop levels implied by a BFS parent tree (UINT32_MAX when unreached or when
// the parent chain does not lead back to the source).
std::vector<uint32_t> LevelsFromParents(const std::vector<VertexId>& parent,
                                        VertexId source) {
  constexpr uint32_t kUnknown = std::numeric_limits<uint32_t>::max() - 1;
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const size_t n = parent.size();
  std::vector<uint32_t> level(n, kUnknown);
  std::vector<VertexId> chain;
  for (VertexId v = 0; v < n; ++v) {
    VertexId u = v;
    chain.clear();
    while (level[u] == kUnknown) {
      if (u == source) {
        level[u] = 0;
        break;
      }
      if (parent[u] == egraph::kInvalidVertex || parent[u] >= n ||
          chain.size() > n) {
        level[u] = kNone;
        break;
      }
      chain.push_back(u);
      u = parent[u];
    }
    uint32_t l = level[u];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      l = l == kNone ? kNone : l + 1;
      level[*it] = l;
    }
  }
  return level;
}

bool PagerankClose(const std::vector<float>& got, const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t v = 0; v < got.size(); ++v) {
    const double diff = std::fabs(static_cast<double>(got[v]) - want[v]);
    if (diff > kPagerankAbsTol + kPagerankRelTol * std::fabs(want[v])) {
      return false;
    }
  }
  return true;
}

void FillEngine(const AlgoStats& stats, Answer& answer) {
  answer.iterations = stats.iterations;
  answer.algorithm_seconds = stats.algorithm_seconds;
  for (const egraph::obs::IterationRecord& record : stats.trace.iterations) {
    answer.edges_scanned += record.edges_scanned;
    answer.pull_rounds += record.direction == Direction::kPull ? 1 : 0;
  }
}

// Outputs of one job, checked once the job's clock has stopped.
struct Outputs {
  std::optional<egraph::BfsResult> bfs;
  std::optional<egraph::SsspResult> sssp;
  std::optional<egraph::PagerankResult> pagerank;
  std::optional<egraph::WccResult> wcc;
};

// Times one Run* call into a new answer of `job` and returns its result.
template <typename Call>
auto TimedRun(Kind kind, ExecutionContext& ctx, SpanRecorder& spans, uint64_t job_start_ns,
              JobResult& job, Call&& call) {
  Answer& answer = job.answers.emplace_back();
  answer.kind = kind;
  const uint64_t steals_before = TotalSteals(ctx);
  const double cpu_before = ProcessCpuSeconds();
  ScopedSpan span(spans, "algos", kKindNames[kind]);
  auto result = call();
  answer.seconds = span.Seconds();
  answer.since_job_start = (NowNs() - job_start_ns) * 1e-9;
  job.run_cpu_s += ProcessCpuSeconds() - cpu_before;
  job.run_wall_s += answer.seconds;
  job.steals += TotalSteals(ctx) - steals_before;
  FillEngine(result.stats, answer);
  return result;
}

// One job, from the file to the last answer. `spans` is either the run's
// recorder or a disabled one (untraced jobs).
JobResult RunJob(const std::string& path, const References& refs,
                 ExecutionContext& ctx, SpanRecorder& spans) {
  JobResult job;
  Outputs out;
  std::optional<GraphHandle> handle;  // freed after the job's clock stops
  {
    ScopedSpan job_span(spans, kBenchLayer, "job");
    {
      ScopedSpan span(spans, "io", "io.load_edges");
      handle.emplace(egraph::LoadEdges(path, egraph::kMediumMemory));
      job.load_s = span.Seconds();
    }
    egraph::PrepareConfig prepare;
    {
      ScopedSpan span(spans, "layout", "layout.prepare_out");
      handle->Prepare(prepare);
      job.build_out_s = span.Seconds();
    }
    {
      ScopedSpan span(spans, "layout", "layout.prepare_in");
      prepare.need_in = true;
      handle->Prepare(prepare);
      job.build_in_s = span.Seconds();
    }
    job.setup_s = job.load_s + job.build_out_s + job.build_in_s;

    RunConfig bfs;
    bfs.direction = Direction::kPushPull;
    out.bfs = TimedRun(kBfs, ctx, spans, job_span.start_ns(), job, [&] {
      return egraph::RunBfs(*handle, refs.source, bfs, ctx);
    });
    out.sssp = TimedRun(kSssp, ctx, spans, job_span.start_ns(), job, [&] {
      return egraph::RunSssp(*handle, refs.source, RunConfig(), ctx);
    });
    RunConfig pull;
    pull.direction = Direction::kPull;
    pull.sync = egraph::Sync::kLockFree;
    egraph::PagerankOptions pagerank;
    pagerank.iterations = kPagerankIterations;
    out.pagerank = TimedRun(kPagerank, ctx, spans, job_span.start_ns(), job, [&] {
      return egraph::RunPagerank(*handle, pagerank, pull, ctx);
    });
    RunConfig edge_array;
    edge_array.layout = Layout::kEdgeArray;
    out.wcc = TimedRun(kWcc, ctx, spans, job_span.start_ns(), job,
                       [&] { return egraph::RunWcc(*handle, edge_array, ctx); });
    job.job_s = job_span.Seconds();
  }
  job.csr_mb = static_cast<double>(handle->out_csr().MemoryBytes() +
                                   handle->in_csr().MemoryBytes()) /
               (1 << 20);
  for (Answer& answer : job.answers) {
    switch (answer.kind) {
      case kBfs:
        answer.ok = LevelsFromParents(out.bfs->parent, refs.source) == refs.levels;
        break;
      case kSssp:
        answer.ok = out.sssp->dist == refs.dist;
        break;
      case kPagerank:
        answer.ok = PagerankClose(out.pagerank->rank, refs.rank);
        break;
      default:
        answer.ok = out.wcc->label == refs.labels;
        break;
    }
  }
  return job;
}

VertexId TopHub(const EdgeList& graph) {
  std::vector<uint32_t> degree(graph.num_vertices(), 0);
  for (const egraph::Edge& edge : graph.edges()) {
    ++degree[edge.src];
  }
  return static_cast<VertexId>(std::max_element(degree.begin(), degree.end()) -
                               degree.begin());
}

// Sequential references, computed concurrently (one thread each).
References ComputeReferences(const EdgeList& graph) {
  References refs;
  refs.source = TopHub(graph);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { refs.levels = egraph::RefBfsLevels(graph, refs.source); });
  threads.emplace_back([&] { refs.dist = egraph::RefDijkstra(graph, refs.source); });
  threads.emplace_back(
      [&] { refs.rank = egraph::RefPagerank(graph, kPagerankIterations, 0.85f); });
  threads.emplace_back([&] { refs.labels = egraph::RefWccLabels(graph); });
  for (std::thread& thread : threads) {
    thread.join();
  }
  return refs;
}

}  // namespace

Report RunPipeline(const Options& options, SpanRecorder& spans) {
  const int scale = options.scale > 0 ? options.scale : 20;
  Report report;
  report.info["scale"] = std::to_string(scale);

  // --- Inputs, before any timing. ---
  std::filesystem::create_directories(options.data_dir);
  const std::string path = options.data_dir + "/" + options.workload + "-" +
                           std::to_string(scale) + "-" + std::to_string(options.seed) +
                           ".bin";
  References refs;
  {
    EdgeList graph = egraph::DatasetTwitter(scale, options.seed);
    graph.AssignRandomWeights(0.1f, 1.0f, options.seed * 31);
    egraph::WriteBinaryEdges(path, graph);
    refs = ComputeReferences(graph);
    report.info["vertices"] = std::to_string(graph.num_vertices());
    report.info["edges"] = std::to_string(graph.num_edges());
  }
  if (options.corrupt_expected) {
    refs.dist[refs.source] = 1.0f;  // the source's distance is 0
  }
  const double file_bytes = static_cast<double>(std::filesystem::file_size(path));

  egraph::ExecutionContextOptions ctx_options;
  ctx_options.name = "perfbench";
  ctx_options.num_threads = kThreads;
  ExecutionContext ctx(ctx_options);
  ExecutionContext::Scope scope(ctx);
  ResetPeakRss();

  // --- Untimed warm-up job (first-touch page faults), then timed jobs. ---
  SpanRecorder off(false);
  std::vector<JobResult> jobs;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  auto account = [&](const JobResult& job) {
    for (const Answer& answer : job.answers) {
      report.Check(answer.ok);
    }
  };
  account(RunJob(path, refs, ctx, off));
  const uint64_t timed_start = NowNs();
  while (jobs.size() < 2 || (NowNs() - timed_start) * 1e-9 < options.seconds) {
    // Traced runs alternate recorded and unrecorded jobs to measure the
    // cost of recording.
    const bool record = options.trace && jobs.size() % 2 == 0;
    jobs.push_back(RunJob(path, refs, ctx, record ? spans : off));
    account(jobs.back());
    const JobResult& job = jobs.back();
    std::string answers;
    for (const Answer& answer : job.answers) {
      answers.append(" ").append(kKindNames[answer.kind]).append("=");
      answers.append(std::to_string(answer.seconds));
    }
    std::fprintf(stderr, "# job %zu: job_s=%.4f load=%.4f out=%.4f in=%.4f%s\n", jobs.size(),
                 job.job_s, job.load_s, job.build_out_s, job.build_in_s, answers.c_str());
    (record ? traced_s : untraced_s).push_back(jobs.back().job_s);
  }
  report.Set("peak_rss_mb", PeakRssMb());
  std::filesystem::remove(path);

  // --- End-to-end metrics. ---
  std::vector<double> setup_s, job_s, load_s, out_s, in_s, csr_mb;
  std::vector<double> job_p50_ms, job_p90_ms;
  size_t answers = 0;
  std::vector<double> per_kind_s[kNumKinds], rounds[kNumKinds], round_us[kNumKinds];
  std::vector<double> steals;
  double run_wall = 0.0, run_cpu = 0.0, edges = 0.0, algo_s = 0.0;
  double pull_rounds = 0.0, total_rounds = 0.0;
  for (const JobResult& job : jobs) {
    setup_s.push_back(job.setup_s);
    job_s.push_back(job.job_s);
    load_s.push_back(job.load_s);
    out_s.push_back(job.build_out_s);
    in_s.push_back(job.build_in_s);
    csr_mb.push_back(job.csr_mb);
    steals.push_back(static_cast<double>(job.steals));
    run_wall += job.run_wall_s;
    run_cpu += job.run_cpu_s;
    std::vector<double> answer_ms;
    for (const Answer& answer : job.answers) {
      answer_ms.push_back(answer.since_job_start * 1e3);
      ++answers;
      per_kind_s[answer.kind].push_back(answer.seconds);
      rounds[answer.kind].push_back(answer.iterations);
      round_us[answer.kind].push_back(
          answer.algorithm_seconds / std::max(1, answer.iterations) * 1e6);
      edges += static_cast<double>(answer.edges_scanned);
      algo_s += answer.algorithm_seconds;
      pull_rounds += answer.pull_rounds;
      total_rounds += answer.iterations;
    }
    job_p50_ms.push_back(Percentile(answer_ms, 50));
    job_p90_ms.push_back(Percentile(answer_ms, 90));
  }
  report.Set("setup_s", Median(setup_s));
  report.Set("job_s", Median(job_s));
  // A pipeline's "query" is one answer of a job: its latency runs from the
  // job's start (the file) to the answer. Percentiles are taken over each
  // job's answers, then the median over jobs: pooled answers of 2-4 kinds
  // would put p50 on the edge between two kinds, where one slow job moves it.
  // Saturation is answers per second of back-to-back jobs.
  report.Set("saturation_qps", static_cast<double>(answers) / Sum(job_s));
  report.Set("query_p50_ms", Median(job_p50_ms));
  report.Set("query_p90_ms", Median(job_p90_ms));
  report.info["jobs"] = std::to_string(jobs.size());
  report.info["answers"] = std::to_string(answers);

  // --- Per-layer metrics. ---
  report.Set("io.load_s", Median(load_s));
  report.Set("io.load_gbps", file_bytes / Median(load_s) * 1e-9);
  report.Set("layout.build_out_s", Median(out_s));
  report.Set("layout.build_in_s", Median(in_s));
  report.Set("layout.csr_mb", Median(csr_mb));
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string name = kKindNames[k];
    report.Set("algos." + name + "_s", Median(per_kind_s[k]));
    report.Set("engine.rounds." + name, Median(rounds[k]));
    report.Set("engine.round_us." + name, Median(round_us[k]));
  }
  report.Set("engine.edges_per_s", algo_s > 0.0 ? edges / algo_s : 0.0);
  report.Set("engine.pull_round_frac", total_rounds > 0.0 ? pull_rounds / total_rounds : 0.0);
  report.Set("util.cpu_busy_frac", run_cpu / (run_wall * kThreads));
  report.Set("util.steals", Median(steals));
  if (options.trace) {
    SetTraceMetrics(spans, traced_s, untraced_s, report);
  }
  return report;
}

void SetTraceMetrics(const SpanRecorder& spans, const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s, Report& report) {
  const SpanSummary summary = spans.Summarize();
  if (summary.root_seconds <= 0.0) {
    return;
  }
  for (const auto& [layer, seconds] : summary.self_seconds) {
    report.Set("bench.self_frac." + layer, seconds / summary.root_seconds);
  }
  report.Set("bench.unattributed_frac", summary.unattributed_seconds / summary.root_seconds);
  if (!traced_s.empty() && !untraced_s.empty()) {
    report.Set("bench.trace_overhead_frac", Median(traced_s) / Median(untraced_s) - 1.0);
  }
}

}  // namespace perfbench
