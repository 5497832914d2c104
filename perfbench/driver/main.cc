// Benchmark driver: runs one named workload with a seed for a fixed time and
// prints an info line plus one JSON result line (see perfbench/README.md).
//
//   perfbench_driver --workload pipeline-twitter --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <exception>
#include <thread>

#include "driver/common.h"
#include "driver/spans.h"
#include "driver/workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseOptions(argc, argv);
  SpanRecorder spans(options.trace);
  Report report;
  try {
    if (options.workload == "pipeline-twitter") {
      report = RunPipeline(options, spans);
    } else if (options.workload == "serve-updates") {
      report = RunServe(options, spans);
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (options.trace && !options.spans_out.empty() && !spans.Write(options.spans_out)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", options.spans_out.c_str());
    return 1;
  }
  report.info["workload"] = options.workload;
  report.info["seed"] = std::to_string(options.seed);
  report.info["threads"] = std::to_string(kThreads);
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.info["trace"] = std::to_string(options.trace ? 1 : 0);
  report.info["spans"] = std::to_string(spans.size());
  if (report.attempted > 0) {
    report.info["failed_frac"] = std::to_string(static_cast<double>(report.failed) /
                                                static_cast<double>(report.attempted));
  }
  PrintReport(report, options.trace);
  return 0;
}
