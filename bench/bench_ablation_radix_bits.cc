// Ablation (google-benchmark): width of the radix CSR build's top-level
// split. The paper uses 8-bit digits (256 buckets); this sweep shows why —
// narrow digits leave few, wide buckets whose per-vertex cursor arrays
// spill out of cache and starve the parallel place pass, wide digits blow
// up the per-chunk histograms and the split's bucket-cursor working set.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/layout/csr_builder.h"

namespace {

using namespace egraph;

void BM_RadixBuild(benchmark::State& state) {
  const int digit_bits = static_cast<int>(state.range(0));
  // A fixed mid-size graph keeps google-benchmark iterations reasonable.
  const EdgeList graph = DatasetRmat(std::min(bench::Scale(), 16));
  for (auto _ : state) {
    BuildStats stats;
    Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort, &stats,
                       digit_bits);
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}

}  // namespace

BENCHMARK(BM_RadixBuild)->Arg(2)->Arg(4)->Arg(8)->Arg(11)->Arg(16)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
