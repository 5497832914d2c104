// Shared algorithm-run plumbing: the configuration selecting which of the
// paper's techniques to enable, and the per-run statistics every algorithm
// reports (iteration counts, per-iteration times, frontier sizes,
// push/pull decisions).
#ifndef SRC_ALGOS_COMMON_H_
#define SRC_ALGOS_COMMON_H_

#include <cstdint>
#include <vector>

#include "src/engine/execution_context.h"
#include "src/engine/graph_handle.h"
#include "src/engine/options.h"
#include "src/obs/trace.h"

namespace egraph {

struct RunConfig {
  Layout layout = Layout::kAdjacency;
  Direction direction = Direction::kPush;
  Sync sync = Sync::kAtomics;
  // Work partitioning for edge traversals. Edge-balanced is the default:
  // it is never worse than fixed grains on skewed degree distributions and
  // costs one prefix sum per round; kVertex remains for the ablation.
  Balance balance = Balance::kEdge;
  PushPullConfig pushpull;
  // Pre-processing method used when the run has to build a missing layout.
  BuildMethod method = BuildMethod::kRadixSort;
  // The handle's edge list is already symmetric (undirected): pull and
  // push-pull reuse the out-CSR as the in-CSR (paper section 6.1.3).
  bool symmetric_input = false;
};

struct AlgoStats {
  int iterations = 0;
  double algorithm_seconds = 0.0;
  std::vector<double> per_iteration_seconds;
  std::vector<int64_t> frontier_sizes;  // active vertices entering each round
  std::vector<bool> used_pull;          // push-pull decisions, when applicable
  // Per-iteration engine trace (frontier shape, edges scanned/relaxed,
  // direction actually used); also deposited in obs::TraceSink for export.
  obs::EngineTrace trace;
};

// Builds the layouts `config` needs on `handle` (cost lands in
// handle.preprocess_seconds()). Called by every Run* entry point so that a
// bare handle works out of the box; benches typically Prepare explicitly
// first to control and measure the method. Thread-safe against a frozen
// handle: concurrent callers needing the same layout pay one build between
// them (GraphHandle's per-layout call_once).
//
// Every Run* entry point additionally takes an ExecutionContext& (defaulted
// to ExecutionContext::Default(), so existing call sites are unchanged) and
// opens a context Scope for its duration: the run's parallel loops execute
// on the context's pool, its trace lands in the context's sink, and its
// EdgeMap rounds reuse the context's scratch.
void PrepareForRun(GraphHandle& handle, const RunConfig& config);

}  // namespace egraph

#endif  // SRC_ALGOS_COMMON_H_
