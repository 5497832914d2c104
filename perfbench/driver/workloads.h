// The benchmark's workloads. Each generates its inputs from the seed before
// any timing, resets the peak-RSS mark, measures for options.seconds, and
// checks every answer it times.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include "driver/common.h"
#include "driver/spans.h"

namespace perfbench {

// pipeline-twitter: file-to-answer analytics jobs.
Report RunPipeline(const Options& options, SpanRecorder& spans);

// serve-updates: open-loop query serving beside streaming updates.
Report RunServe(const Options& options, SpanRecorder& spans);

// Fills the self-time, unattributed and trace-overhead metrics of a traced
// run. `traced_s` / `untraced_s` are the unit times (jobs or bursts) run
// with and without span recording.
void SetTraceMetrics(const SpanRecorder& spans, const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
