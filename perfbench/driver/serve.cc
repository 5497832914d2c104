// Open-loop query serving with streaming updates (serve-updates) over the
// symmetrized Twitter proxy, served from a SnapshotStore. A run sets up
// several times (file load, epoch-0 build, session start), then measures
// saturation bursts (the whole burst submitted at once) and an open-loop
// phase in which one generator thread sends queries on a fixed-rate schedule
// and applies mirrored insert/delete batches at a fixed rate.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "driver/workloads.h"
#include "src/algos/bfs.h"
#include "src/algos/pagerank.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/gen/datasets.h"
#include "src/io/edge_io.h"
#include "src/io/loader.h"
#include "src/serve/checksum.h"
#include "src/serve/query_session.h"
#include "src/snapshot/delta.h"
#include "src/snapshot/snapshot_store.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using egraph::EdgeList;
using egraph::ExecutionContext;
using egraph::GraphHandle;
using egraph::VertexId;
using egraph::serve::QueryKind;
using egraph::serve::QuerySession;
using egraph::serve::ServeQuery;
using egraph::serve::ServeResult;
using egraph::snapshot::EdgeUpdate;
using egraph::snapshot::SnapshotStore;

constexpr int kPoolSize = 80;        // distinct queries; also the burst size
constexpr int kSetups = 3;           // set-ups per run, median reported
constexpr double kBurstShare = 0.3;  // share of --seconds spent in bursts
// Offered load. Bursts of the pool measured saturation_qps at 79-115 q/s on
// a shared 4-core x86-64 VM whose speed drifts by about 20% from run to run.
// At 30-40 q/s, slow runs and back-to-back merges pushed the open loop into
// the steep part of the latency curve (p50/p90 spreads across runs above
// 0.25); 15 q/s keeps it clear. The store receives two batches of 1,000
// updates a second.
constexpr double kOfferedQps = 15.0;
constexpr double kUpdateBatchesPerSecond = 2.0;
constexpr int kUpdateBatchSize = 1000;  // before mirroring
constexpr uint64_t kObservePeriodNs = 200'000;
// Submission order of a burst, by kind: whole-graph PageRank and WCC first,
// then SSSP, then BFS.
constexpr int kCostRank[] = {3, 2, 0, 1};

// Pool composition per 40 queries: mostly BFS and SSSP point queries, plus
// a small share of whole-graph WCC and PageRank. The shares keep the p50 and
// p90 latency inside the BFS and SSSP clusters rather than on a boundary
// between two kinds.
constexpr int kMixPer40[] = {27, 11, 1, 1};  // bfs, sssp, pagerank, wcc

int KindIndex(QueryKind kind) { return static_cast<int>(kind); }

std::vector<ServeQuery> MakePool(const EdgeList& graph, int size, uint64_t seed) {
  std::vector<uint32_t> degree(graph.num_vertices(), 0);
  for (const egraph::Edge& edge : graph.edges()) {
    ++degree[edge.src];
  }
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 17;
  std::vector<ServeQuery> pool;
  for (int i = 0; static_cast<int>(pool.size()) < size; ++i) {
    const int slot = i % 40;
    int kind = 0;
    for (int acc = kMixPer40[0]; slot >= acc; acc += kMixPer40[++kind]) {
    }
    ServeQuery query;
    query.kind = static_cast<QueryKind>(kind);
    query.config.symmetric_input = true;
    if (query.kind == QueryKind::kBfs) {
      query.config.direction = egraph::Direction::kPushPull;
    } else if (query.kind == QueryKind::kPagerank) {
      query.config.direction = egraph::Direction::kPull;
      query.config.sync = egraph::Sync::kLockFree;
    }
    do {  // random non-isolated source
      query.source = static_cast<VertexId>(egraph::SplitMix64(state) % degree.size());
    } while (degree[query.source] == 0);
    pool.push_back(query);
  }
  return pool;
}

// The query stream is a series of seeded permutations of the pool, so every
// aligned stretch of |pool| queries has the pool's exact mix.
std::vector<int> NextPermutation(size_t pool_size, uint64_t& state) {
  std::vector<int> perm(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    perm[i] = static_cast<int>(i);
  }
  for (size_t i = pool_size - 1; i > 0; --i) {
    std::swap(perm[i], perm[egraph::SplitMix64(state) % (i + 1)]);
  }
  return perm;
}

// The checksum the session would report for `query` on `handle`, computed
// by running it alone.
uint64_t SerialChecksum(GraphHandle& handle, const ServeQuery& query,
                        ExecutionContext& ctx) {
  switch (query.kind) {
    case QueryKind::kBfs:
      return egraph::serve::ChecksumBfs(
          egraph::RunBfs(handle, query.source, query.config, ctx).parent);
    case QueryKind::kSssp:
      return egraph::serve::ChecksumSssp(
          egraph::RunSssp(handle, query.source, query.config, ctx).dist);
    case QueryKind::kPagerank: {
      egraph::PagerankOptions options;
      options.iterations = query.iterations;
      return egraph::serve::ChecksumPagerank(
          egraph::RunPagerank(handle, options, query.config, ctx).rank);
    }
    case QueryKind::kWcc:
      return egraph::serve::ChecksumWcc(egraph::RunWcc(handle, query.config, ctx).label);
  }
  return 0;
}

// Neighbor lists are sorted like a snapshot epoch's, so PageRank pull sums in
// the same order as on the served epoch.
std::vector<uint64_t> SerialChecksums(EdgeList graph, const std::vector<ServeQuery>& pool,
                                      int threads) {
  GraphHandle handle(std::move(graph));
  egraph::PrepareConfig prepare;
  prepare.need_in = true;
  prepare.symmetric_input = true;
  prepare.sort_neighbors = true;
  handle.Prepare(prepare);
  handle.Freeze();
  egraph::ExecutionContextOptions ctx_options;
  ctx_options.num_threads = threads;
  ExecutionContext ctx(ctx_options);
  std::vector<uint64_t> checksums;
  for (const ServeQuery& query : pool) {
    checksums.push_back(SerialChecksum(handle, query, ctx));
  }
  return checksums;
}

// ~80% inserts of random pairs, ~20% deletes of existing base edges, each
// mirrored so the stream stays symmetric like the base graph.
std::vector<std::vector<EdgeUpdate>> MakeUpdateBatches(const EdgeList& base, int batches,
                                                       int batch_size, uint64_t seed) {
  uint64_t state = seed * 0xA0761D6478BD642FULL + 3;
  const VertexId n = base.num_vertices();
  const size_t m = base.edges().size();
  std::vector<std::vector<EdgeUpdate>> out;
  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < batch_size; ++i) {
      if (egraph::SplitMix64(state) % 5 == 0) {
        const egraph::Edge& victim = base.edges()[egraph::SplitMix64(state) % m];
        batch.push_back({victim.src, victim.dst, /*insert=*/false});
      } else {
        batch.push_back({static_cast<VertexId>(egraph::SplitMix64(state) % n),
                         static_cast<VertexId>(egraph::SplitMix64(state) % n),
                         /*insert=*/true});
      }
    }
    out.push_back(egraph::snapshot::MirrorUpdates(batch));
  }
  return out;
}

std::unique_ptr<QuerySession> NewSession(SnapshotStore& store, uint64_t seed) {
  egraph::serve::QuerySessionOptions options;
  options.concurrency = kThreads;
  options.threads_per_query = 1;
  options.seed = seed;
  return std::make_unique<QuerySession>(store, options);
}

struct SetupTimes {
  double total_s = 0.0;
  double load_s = 0.0;
  double build_out_s = 0.0;
};

// One set-up: file load and the store's epoch-0 build, until a session
// accepts queries.
SetupTimes SetUp(const std::string& path, SpanRecorder& spans,
                 std::unique_ptr<SnapshotStore>& store, uint64_t seed) {
  SetupTimes times;
  ScopedSpan root(spans, kBenchLayer, "setup");
  EdgeList edges;
  {
    ScopedSpan span(spans, "io", "io.load_edges");
    edges = egraph::LoadEdges(path, egraph::kMediumMemory);
    times.load_s = span.Seconds();
  }
  {
    ScopedSpan span(spans, "snapshot", "snapshot.build_epoch0");
    egraph::snapshot::SnapshotOptions options;
    options.symmetric = true;
    // Every batch (mirrored: twice its size) triggers a background refreeze.
    options.refreeze_threshold = 2 * static_cast<size_t>(kUpdateBatchSize);
    store = std::make_unique<SnapshotStore>(std::move(edges), options);
    times.build_out_s = store->Pin().handle->preprocess_seconds();
  }
  {
    ScopedSpan span(spans, "serve", "serve.session_start");
    NewSession(*store, seed)->Drain();
  }
  times.total_s = root.Seconds();
  return times;
}

// Turns each result's request trace into serve/algos spans under `root`.
void AddQuerySpans(SpanRecorder& spans, int64_t root, const std::vector<ServeResult>& results) {
  if (!spans.enabled()) {
    return;
  }
  for (const ServeResult& r : results) {
    const int64_t request = spans.Add("serve", "serve.request", r.trace.submit_ns,
                                      r.trace.done_ns, root, r.id);
    spans.Add("algos", kKindNames[KindIndex(r.kind)], r.trace.exec_start_ns,
              r.trace.done_ns, request, r.id);
  }
}

// What the store looked like each time the observer saw a new epoch.
struct EpochSample {
  uint64_t ns = 0;
  uint64_t epoch = 0;
  int64_t updates_merged = 0;
  int64_t epochs_published = 0;
  double merge_seconds = 0.0;
};

// Polls the store while updates flow: epoch publications (for update lag
// and refreeze time) and the epoch chain's retained memory.
class StoreObserver {
 public:
  explicit StoreObserver(SnapshotStore& store) : store_(store) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~StoreObserver() { Stop(); }

  StoreObserver(const StoreObserver&) = delete;
  StoreObserver& operator=(const StoreObserver&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  const std::vector<EpochSample>& samples() const { return samples_; }
  int64_t chain_length_max() const { return chain_length_max_; }
  int64_t retained_bytes_max() const { return retained_bytes_max_; }

 private:
  void Loop() {
    Sample();
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kObservePeriodNs));
      Sample();
    }
    Sample();
  }

  void Sample() {
    const egraph::snapshot::SnapshotStoreStats stats = store_.stats();
    if (samples_.empty() || stats.epoch != samples_.back().epoch) {
      samples_.push_back(EpochSample{NowNs(), stats.epoch, stats.updates_merged,
                                     stats.epochs_published, stats.merge_seconds});
      const egraph::snapshot::SnapshotChainStats chain = store_.chain_stats();
      chain_length_max_ = std::max(chain_length_max_, chain.chain_length);
      retained_bytes_max_ = std::max(retained_bytes_max_, chain.retained_bytes);
    }
  }

  SnapshotStore& store_;
  std::atomic<bool> stop_{false};
  std::vector<EpochSample> samples_;  // observer thread only until Stop()
  int64_t chain_length_max_ = 0;
  int64_t retained_bytes_max_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

// Sorted copy of an edge list's (src, dst) pairs, for multiset comparison.
std::vector<egraph::Edge> SortedEdges(const EdgeList& graph) {
  std::vector<egraph::Edge> edges = graph.edges();
  std::sort(edges.begin(), edges.end(), [](const egraph::Edge& a, const egraph::Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return edges;
}

EdgeList Unweighted(EdgeList graph) {
  graph.mutable_weights().clear();
  return graph;
}

// Re-runs, alone, every query that ran on the epoch (other than 0) serving
// the most results, on that epoch's graph rebuilt from the base and the
// update prefix it merged; each result must match.
void CheckBusiestEpoch(const EdgeList& base, const std::vector<EdgeUpdate>& all,
                       const std::vector<EpochSample>& samples,
                       const std::vector<ServeQuery>& pool,
                       const std::vector<ServeResult>& results,
                       const std::map<int64_t, int>& pool_of, int threads,
                       Report& report) {
  std::map<uint64_t, int> per_epoch;
  for (const ServeResult& r : results) {
    per_epoch[r.epoch] += r.epoch == 0 ? 0 : 1;
  }
  uint64_t busiest = 0;
  for (const auto& [epoch, count] : per_epoch) {
    if (count > 0 && (busiest == 0 || count > per_epoch[busiest])) {
      busiest = epoch;
    }
  }
  const auto sample = std::find_if(samples.begin(), samples.end(),
                                   [&](const EpochSample& s) { return s.epoch == busiest; });
  if (busiest == 0 || sample == samples.end()) {
    report.Check(false);  // no later epoch served anything, or it went unobserved
    return;
  }
  const std::span<const EdgeUpdate> prefix(all.data(),
                                           static_cast<size_t>(sample->updates_merged));
  const std::vector<uint64_t> want = SerialChecksums(
      egraph::snapshot::ApplyUpdatesToEdgeList(base, prefix), pool, threads);
  for (const ServeResult& r : results) {
    if (r.epoch == busiest) {
      report.Check(r.checksum == want[pool_of.at(r.id)]);
    }
  }
}

}  // namespace

Report RunServe(const Options& options, SpanRecorder& spans) {
  const int scale = options.scale > 0 ? options.scale : 18;
  const double burst_budget_s = options.seconds * kBurstShare;
  const double open_s = options.seconds - burst_budget_s;
  const size_t open_queries = static_cast<size_t>(kOfferedQps * open_s);
  const int update_batches = static_cast<int>(kUpdateBatchesPerSecond * open_s);
  Report report;
  report.info["scale"] = std::to_string(scale);
  report.info["rate_qps"] = std::to_string(kOfferedQps);

  // --- Inputs, before any timing. ---
  std::filesystem::create_directories(options.data_dir);
  const std::string path = options.data_dir + "/" + options.workload + "-" +
                           std::to_string(scale) + "-" + std::to_string(options.seed) +
                           ".bin";
  std::vector<ServeQuery> pool;
  std::vector<uint64_t> expected;
  std::vector<std::vector<EdgeUpdate>> batches;
  {
    EdgeList directed = egraph::DatasetTwitter(scale, options.seed);
    directed.AssignRandomWeights(0.1f, 1.0f, options.seed * 31);
    EdgeList graph = directed.MakeUndirected();
    directed = EdgeList();
    egraph::WriteBinaryEdges(path, graph);
    report.info["vertices"] = std::to_string(graph.num_vertices());
    report.info["edges"] = std::to_string(graph.num_edges());
    pool = MakePool(graph, kPoolSize, options.seed);
    batches = MakeUpdateBatches(graph, update_batches, kUpdateBatchSize, options.seed);
    // Epochs of a snapshot store are unweighted (SSSP counts hops there).
    expected = SerialChecksums(Unweighted(std::move(graph)), pool, kThreads);
  }
  if (options.corrupt_expected) {
    expected[0] ^= 1;
  }
  uint64_t order_state = options.seed * 0xD1B54A32D192ED03ULL + 5;
  std::vector<int> order;
  size_t next_in_order = 0;
  std::map<int64_t, int> pool_of;  // query id -> pool index
  // The stream's next query, as query `id`.
  auto draw = [&](int64_t id) {
    if (next_in_order == order.size()) {
      order = NextPermutation(pool.size(), order_state);
      next_in_order = 0;
    }
    const int p = order[next_in_order++];
    pool_of[id] = p;
    ServeQuery query = pool[p];
    query.id = id;
    return query;
  };
  ResetPeakRss();

  // --- Set-up, several times; the last one is served. ---
  std::vector<SetupTimes> setups;
  std::unique_ptr<SnapshotStore> store;
  for (int i = 0; i < kSetups; ++i) {
    store.reset();
    setups.push_back(SetUp(path, spans, store, options.seed));
  }
  const double csr_mb =
      static_cast<double>(store->Pin().handle->out_csr().MemoryBytes()) / (1 << 20);

  // Every result is checked: accepted, ok, and (on the graph the reference
  // ran on) the serial checksum.
  std::map<std::pair<int, uint64_t>, uint64_t> seen;  // (pool, epoch) -> checksum
  auto check = [&](const std::vector<ServeResult>& results) {
    for (const ServeResult& r : results) {
      const int p = pool_of.at(r.id);
      bool ok = r.ok && r.trace.Complete();
      if (r.epoch == 0) {
        ok = ok && r.checksum == expected[p];
      }
      // The same query on the same epoch must give the same answer.
      const auto [it, inserted] = seen.emplace(std::make_pair(p, r.epoch), r.checksum);
      ok = ok && (inserted || it->second == r.checksum);
      report.Check(ok);
    }
  };
  auto submit = [&](QuerySession& session, const ServeQuery& query) {
    const bool accepted = session.Submit(query) == egraph::serve::SubmitStatus::kAccepted;
    if (!accepted) {
      report.Check(false);
    }
    return accepted;
  };

  // --- Saturation bursts: the whole burst submitted at once. ---
  SpanRecorder off(false);
  std::vector<double> burst_s, burst_qps, traced_s, untraced_s;
  std::vector<ServeResult> all_results;
  int64_t next_id = 0;
  const uint64_t bursts_start = NowNs();
  while (burst_s.size() < 2 || (NowNs() - bursts_start) * 1e-9 < burst_budget_s) {
    const bool record = options.trace && burst_s.size() % 2 == 0;
    SpanRecorder& recorder = record ? spans : off;
    std::unique_ptr<QuerySession> session = NewSession(*store, options.seed + burst_s.size());
    std::vector<ServeResult> results;
    double seconds = 0.0;
    {
      // Heaviest kinds first, so the burst's makespan measures throughput
      // rather than which slow query happened to be submitted last.
      std::vector<ServeQuery> queries;
      for (size_t i = 0; i < pool.size(); ++i) {
        queries.push_back(draw(next_id++));
      }
      std::stable_sort(queries.begin(), queries.end(),
                       [](const ServeQuery& a, const ServeQuery& b) {
                         return kCostRank[KindIndex(a.kind)] < kCostRank[KindIndex(b.kind)];
                       });
      ScopedSpan root(recorder, kBenchLayer, "burst");
      for (const ServeQuery& query : queries) {
        submit(*session, query);
      }
      results = session->Drain();
      seconds = root.Seconds();
      AddQuerySpans(recorder, root.index(), results);
    }
    std::fprintf(stderr, "# burst %zu: %.4f s, %zu queries\n", burst_s.size() + 1, seconds,
                 results.size());
    burst_s.push_back(seconds);
    burst_qps.push_back(static_cast<double>(results.size()) / seconds);
    (record ? traced_s : untraced_s).push_back(seconds);
    check(results);
    all_results.insert(all_results.end(), results.begin(), results.end());
  }

  // --- Open loop: fixed-rate queries (and update batches) from this thread. ---
  std::vector<double> latency_ms, queue_wait_ms, admission_us, generator_lag_ms;
  std::vector<double> apply_us, update_due_ns;
  std::vector<int64_t> update_cumulative;
  std::unique_ptr<QuerySession> session = NewSession(*store, options.seed + 1000);
  StoreObserver observer(*store);
  std::map<int64_t, uint64_t> due_of;
  std::vector<ServeResult> open_results;
  int64_t rejected_full = 0;
  int64_t open_root = -1;
  double open_cpu_s = 0.0;
  double open_wall_s = 0.0;
  {
    ScopedSpan root(spans, kBenchLayer, "open_loop");
    open_root = root.index();
    const double cpu_before = ProcessCpuSeconds();
    const uint64_t start = NowNs() + 1'000'000;
    const double query_gap_ns = 1e9 / kOfferedQps;
    const double update_gap_ns = 1e9 / kUpdateBatchesPerSecond;
    size_t sent = 0;
    int applied = 0;
    int64_t cumulative = 0;
    while (sent < open_queries || applied < update_batches) {
      const uint64_t query_due =
          sent < open_queries ? start + static_cast<uint64_t>(sent * query_gap_ns) : UINT64_MAX;
      const uint64_t update_due =
          applied < update_batches
              ? start + static_cast<uint64_t>((applied + 0.5) * update_gap_ns)
              : UINT64_MAX;
      const uint64_t due = std::min(query_due, update_due);
      const uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      generator_lag_ms.push_back((static_cast<double>(NowNs()) - static_cast<double>(due)) * 1e-6);
      if (update_due < query_due) {
        const std::vector<EdgeUpdate>& batch = batches[applied++];
        cumulative += static_cast<int64_t>(batch.size());
        ScopedSpan span(spans, "snapshot", "snapshot.apply", -1, root.index());
        store->Apply(batch);
        apply_us.push_back(span.Seconds() * 1e6);
        update_due_ns.push_back(static_cast<double>(due));
        update_cumulative.push_back(cumulative);
      } else {
        const int64_t id = next_id++;
        due_of[id] = due;
        submit(*session, draw(id));
        ++sent;
      }
    }
    open_results = session->Drain();
    open_wall_s = root.Seconds();
    open_cpu_s = ProcessCpuSeconds() - cpu_before;
    rejected_full = session->stats().rejected_full;
    AddQuerySpans(spans, root.index(), open_results);
  }
  check(open_results);
  for (const ServeResult& r : open_results) {
    latency_ms.push_back((r.trace.done_ns - due_of.at(r.id)) * 1e-6);
    queue_wait_ms.push_back(r.trace.QueueWaitSeconds() * 1e3);
    admission_us.push_back(r.trace.AdmissionSeconds() * 1e6);
  }
  all_results.insert(all_results.end(), open_results.begin(), open_results.end());

  // --- Updates: publish the tail, then check the final epoch's edge set. ---
  report.Set("peak_rss_mb", PeakRssMb());
  store->Flush();
  observer.Stop();
  std::vector<EdgeUpdate> all;
  for (const std::vector<EdgeUpdate>& batch : batches) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  const EdgeList base = Unweighted(egraph::ReadBinaryEdges(path));
  report.Check(store->stats().updates_merged == static_cast<int64_t>(all.size()));
  const EdgeList want = egraph::snapshot::ApplyUpdatesToEdgeList(base, all);
  // Epoch edge lists are canonical: src-major with sorted neighbors.
  report.Check(SortedEdges(want) == store->Pin().handle->edges().edges());
  CheckBusiestEpoch(base, all, observer.samples(), pool, all_results, pool_of,
                    kThreads, report);
  const double file_bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);

  // --- End-to-end metrics. ---
  std::vector<double> setup_s, load_s, out_s;
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.total_s);
    load_s.push_back(s.load_s);
    out_s.push_back(s.build_out_s);
  }
  report.Set("setup_s", Median(setup_s));
  report.Set("job_s", Median(burst_s));
  report.Set("saturation_qps", Median(burst_qps));
  report.Set("query_p50_ms", Percentile(latency_ms, 50));
  report.Set("query_p90_ms", Percentile(latency_ms, 90));
  report.info["bursts"] = std::to_string(burst_s.size());
  report.info["burst_size"] = std::to_string(pool.size());
  report.info["timed_queries"] = std::to_string(latency_ms.size());

  // --- Per-layer metrics. ---
  report.Set("io.load_s", Median(load_s));
  report.Set("io.load_gbps", file_bytes / Median(load_s) * 1e-9);
  report.Set("layout.build_out_s", Median(out_s));
  report.Set("layout.csr_mb", csr_mb);
  std::vector<double> seconds_by_kind[4], rounds_by_kind[4], round_us_by_kind[4];
  std::vector<double> execute_ms_by_kind[4];
  for (const ServeResult& r : all_results) {
    const int k = KindIndex(r.kind);
    seconds_by_kind[k].push_back(r.seconds);
    rounds_by_kind[k].push_back(r.iterations);
    round_us_by_kind[k].push_back(r.seconds / std::max(1, r.iterations) * 1e6);
    execute_ms_by_kind[k].push_back(r.trace.ExecuteSeconds() * 1e3);
  }
  for (int k = 0; k < 4; ++k) {
    const std::string name = kKindNames[k];
    report.Set("algos." + name + "_s", Median(seconds_by_kind[k]));
    report.Set("engine.rounds." + name, Median(rounds_by_kind[k]));
    report.Set("engine.round_us." + name, Median(round_us_by_kind[k]));
    report.Set("serve.execute_p50_ms." + name, Median(execute_ms_by_kind[k]));
  }
  report.Set("util.cpu_busy_frac", open_cpu_s / (open_wall_s * kThreads));
  report.Set("serve.queue_wait_p50_ms", Percentile(queue_wait_ms, 50));
  report.Set("serve.queue_wait_p90_ms", Percentile(queue_wait_ms, 90));
  report.Set("serve.admission_p90_us", Percentile(admission_us, 90));
  report.Set("serve.rejected_full", static_cast<double>(rejected_full));
  report.Set("bench.generator_lag_p90_ms", Percentile(generator_lag_ms, 90));
  const std::vector<EpochSample>& samples = observer.samples();
  std::vector<double> lag_ms, refreeze_ms;
  for (size_t b = 0; b < update_cumulative.size(); ++b) {
    for (const EpochSample& s : samples) {
      if (s.updates_merged >= update_cumulative[b]) {
        lag_ms.push_back((static_cast<double>(s.ns) - update_due_ns[b]) * 1e-6);
        break;
      }
    }
  }
  for (size_t i = 1; i < samples.size(); ++i) {
    const int64_t published = samples[i].epochs_published - samples[i - 1].epochs_published;
    if (published > 0) {
      refreeze_ms.push_back((samples[i].merge_seconds - samples[i - 1].merge_seconds) /
                            static_cast<double>(published) * 1e3);
    }
  }
  report.Set("snapshot.apply_us", Median(apply_us));
  report.Set("snapshot.refreeze_p50_ms", Percentile(refreeze_ms, 50));
  report.Set("snapshot.refreeze_p90_ms", Percentile(refreeze_ms, 90));
  report.Set("snapshot.update_lag_p50_ms", Percentile(lag_ms, 50));
  report.Set("snapshot.update_lag_p90_ms", Percentile(lag_ms, 90));
  report.Set("snapshot.retained_mb",
             static_cast<double>(observer.retained_bytes_max()) / (1 << 20));
  report.Set("snapshot.chain_length_max", static_cast<double>(observer.chain_length_max()));
  report.Set("snapshot.epochs", static_cast<double>(samples.back().epochs_published));
  report.info["update_batches"] = std::to_string(update_cumulative.size());
  // Merge spans end where the observer saw the epoch publish.
  for (size_t i = 1; i < samples.size(); ++i) {
    const double merge_s = samples[i].merge_seconds - samples[i - 1].merge_seconds;
    spans.Add("snapshot", "snapshot.merge",
              samples[i].ns - static_cast<uint64_t>(merge_s * 1e9), samples[i].ns,
              open_root);
  }
  if (options.trace) {
    SetTraceMetrics(spans, traced_s, untraced_s, report);
  }
  return report;
}

}  // namespace perfbench
