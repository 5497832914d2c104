#include "driver/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <utility>

namespace perfbench {

namespace {

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-expected") {
      options.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--scale") {
      options.scale = std::stoi(value);
    } else if (key == "--data-dir") {
      options.data_dir = value;
    } else if (key == "--spans-out") {
      options.spans_out = value;
    } else {
      Usage("unknown option " + key);
    }
  }
  if (options.workload.empty()) {
    Usage("--workload is required");
  }
  if (options.seconds <= 0.0) {
    Usage("--seconds must be positive");
  }
  return options;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"saturation_qps", "1/s"},
      {"query_p50_ms", "ms"},
      {"query_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"io.load_s", "s"},
      {"io.load_gbps", "GB/s"},
      {"layout.build_out_s", "s"},
      {"layout.build_in_s", "s"},
      {"layout.csr_mb", "MB"},
      {"algos.bfs_s", "s"},
      {"algos.sssp_s", "s"},
      {"algos.pagerank_s", "s"},
      {"algos.wcc_s", "s"},
      {"engine.rounds.bfs", "count"},
      {"engine.rounds.sssp", "count"},
      {"engine.rounds.pagerank", "count"},
      {"engine.rounds.wcc", "count"},
      {"engine.round_us.bfs", "us"},
      {"engine.round_us.sssp", "us"},
      {"engine.round_us.pagerank", "us"},
      {"engine.round_us.wcc", "us"},
      {"engine.edges_per_s", "1/s"},
      {"engine.pull_round_frac", "frac"},
      {"util.cpu_busy_frac", "frac"},
      {"util.steals", "count"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p90_ms", "ms"},
      {"serve.execute_p50_ms.bfs", "ms"},
      {"serve.execute_p50_ms.sssp", "ms"},
      {"serve.execute_p50_ms.pagerank", "ms"},
      {"serve.execute_p50_ms.wcc", "ms"},
      {"serve.admission_p90_us", "us"},
      {"serve.rejected_full", "count"},
      {"snapshot.apply_us", "us"},
      {"snapshot.refreeze_p50_ms", "ms"},
      {"snapshot.refreeze_p90_ms", "ms"},
      {"snapshot.update_lag_p50_ms", "ms"},
      {"snapshot.update_lag_p90_ms", "ms"},
      {"snapshot.retained_mb", "MB"},
      {"snapshot.chain_length_max", "count"},
      {"snapshot.epochs", "count"},
      {"bench.self_frac.io", "frac"},
      {"bench.self_frac.layout", "frac"},
      {"bench.self_frac.algos", "frac"},
      {"bench.self_frac.serve", "frac"},
      {"bench.self_frac.snapshot", "frac"},
      {"bench.unattributed_frac", "frac"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.generator_lag_p90_ms", "ms"},
  };
  return metrics;
}

void PrintReport(const Report& report, bool trace) {
  std::string info = "# info";
  for (const auto& [key, value] : report.info) {
    info += " " + key + "=" + value;
  }
  std::printf("%s\n", info.c_str());

  bool measured = true;
  if (!trace) {
    for (const MetricSpec& spec : EndToEndMetrics()) {
      const auto it = report.metrics.find(spec.name);
      if (it == report.metrics.end() || !(it->second > 0.0)) {
        std::fprintf(stderr, "perfbench_driver: end-to-end metric %s not measured\n",
                     spec.name);
        measured = false;
      }
    }
  }
  const bool correct = measured && report.failed == 0 && report.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = report.metrics.find(spec.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
    line.append(first ? "\"" : ", \"").append(spec.name).append("\": {\"value\": ");
    line.append(buffer).append(", \"unit\": \"").append(spec.unit).append("\"}");
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(position);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (position - static_cast<double>(lo));
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ResetPeakRss() {
  // "5" resets the peak resident set size (Linux >= 4.0).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
