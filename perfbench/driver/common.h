// Shared plumbing of the benchmark driver: command-line options, the metric
// catalogue (every metric the driver can print, with its unit), sample
// statistics, and process-level probes (peak RSS, CPU time).
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Threads of the library's pool (pipelines) and session workers (serving).
inline constexpr int kThreads = 4;

// Algorithm names as metrics spell them, indexed like serve::QueryKind.
inline constexpr const char* kKindNames[] = {"bfs", "sssp", "pagerank", "wcc"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int scale = 0;               // 0: the workload's default
  std::string data_dir = ".bench_build/data";
  std::string spans_out;       // traced runs: where the span dump goes
  // Smoke test: corrupt one expected output, which must raise failed.
  bool corrupt_expected = false;
};

// Parses `--key value` pairs; exits with a message on anything unknown.
Options ParseOptions(int argc, char** argv);

// Every metric the driver prints. End-to-end metrics are printed by
// untraced runs, per-layer metrics by traced runs; a run prints every name
// of its catalogue, so a metric of a layer the workload does not call reads
// 0 there.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// What one run measured.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;   // name -> value
  std::map<std::string, std::string> info; // printed on a "# info" line

  void Set(const std::string& name, double value) { metrics[name] = value; }
  // Counts one checked operation; `ok == false` counts it as failed.
  void Check(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// Prints the info line and the final result line for `report`, emitting the
// catalogue selected by `trace`. An untraced run with an end-to-end metric
// that was not measured is reported incorrect.
void PrintReport(const Report& report, bool trace);

// Sample statistics; 0 for no samples. Percentile interpolates linearly
// between the two nearest samples (Percentile(v, 50) == Median(v)).
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double p);
double Sum(const std::vector<double>& values);

// Steady-clock nanoseconds (same clock as obs::RequestNowNs).
uint64_t NowNs();
double ProcessCpuSeconds();
// Resets the kernel's peak-RSS high-water mark (VmHWM) for this process.
void ResetPeakRss();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
