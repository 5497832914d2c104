// Shard aggregation, as a cache-model mechanism: the write stream of one
// all-active push round over the out-CSR, replayed as a striped scatter and
// as Grappa-style owner-aggregated flushes over 16 balanced contiguous shards
// (TracePushScatterWrites / TracePushAggregatedWrites, src/cachesim/trace.h).
//
// The pattern exists only as this replay because, executed, it lost to the
// striped-lock and atomic push on the wall clock up to scale 23 on 4 cores
// (EXPERIMENTS.md, deviation 4): the cells are evidence of the mechanism,
// not of speed.
//
// Hard gate (exit 1): when the vertex state exceeds the modeled cache —
// which is what creates the remote misses in the first place — the
// aggregated write stream must miss less than the striped scatter.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cachesim/cache_model.h"
#include "src/cachesim/trace.h"
#include "src/layout/csr_builder.h"
#include "src/layout/range_partition.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  PrintBanner("Shard aggregation: striped-lock scatter vs sharded aggregated flushes",
              "in the cache model the random remote write stream of a push round "
              "collapses into owner-local writes plus sequential batch appends",
              "rmat at EG_SCALE");

  const EdgeList graph = Rmat();
  const Csr out = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  const VertexId n = out.num_vertices();

  // Shards balanced by each vertex's push cost (1 + out-degree).
  constexpr int kShards = 16;
  std::vector<uint64_t> score(n);
  for (VertexId v = 0; v < n; ++v) {
    score[v] = 1 + out.Degree(v);
  }
  const std::vector<VertexId> shard_bounds = BalancedVertexRanges(score, kShards);

  CacheConfig small_cache;
  small_cache.size_bytes = 256u << 10;  // model a per-core L2 slice
  const uint64_t state_bytes = static_cast<uint64_t>(n) * 4;

  CacheModel scatter_cache(small_cache);
  TracePushScatterWrites(scatter_cache, out);
  CacheModel aggregated_cache(small_cache);
  TracePushAggregatedWrites(aggregated_cache, out, shard_bounds);

  // Miss counts are deterministic, so they are the regression cells (the
  // "seconds" slot carries a count).
  RecordResult("cachesim scatter write misses", static_cast<double>(scatter_cache.misses()));
  RecordResult("cachesim aggregated write misses",
               static_cast<double>(aggregated_cache.misses()));

  Table table({"write stream", "misses", "miss ratio"});
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.1f%%", 100.0 * scatter_cache.MissRatio());
  table.AddRow({"striped scatter", std::to_string(scatter_cache.misses()), ratio});
  std::snprintf(ratio, sizeof(ratio), "%.1f%%", 100.0 * aggregated_cache.MissRatio());
  table.AddRow({"owner-aggregated", std::to_string(aggregated_cache.misses()), ratio});
  table.Print("simulated write misses: one all-active push round, 16 shards, 256 KiB cache");

  // With everything resident both streams see compulsory misses only and
  // the comparison is meaningless.
  if (state_bytes > 4 * small_cache.size_bytes &&
      aggregated_cache.misses() >= scatter_cache.misses()) {
    std::fprintf(stderr,
                 "GATE FAILED: aggregated write stream misses (%llu) not below striped "
                 "scatter (%llu)\n",
                 static_cast<unsigned long long>(aggregated_cache.misses()),
                 static_cast<unsigned long long>(scatter_cache.misses()));
    return 1;
  }
  std::printf("all shard-aggregation gates passed\n");
  return 0;
}
