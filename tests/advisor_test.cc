// Advisor tests: the section 9 roadmap must reproduce the paper's Tables
// 5 and 6 "best approach" picks from algorithm traits + graph shape alone.
#include <gtest/gtest.h>

#include "src/engine/advisor.h"
#include "src/gen/datasets.h"
#include "src/gen/rmat.h"
#include "src/graph/stats.h"

namespace egraph {
namespace {

GraphStats PowerLawStats() {
  return ComputeStats(DatasetRmat(/*scale=*/12));
}

GraphStats RoadStats() {
  return ComputeStats(DatasetUsRoad(/*scale=*/12));
}

TEST(Advisor, SpmvAlwaysEdgeArray) {
  for (const auto& stats : {PowerLawStats(), RoadStats()}) {
    const Recommendation rec = Advise(TraitsSpmv(), stats, {4});
    EXPECT_EQ(rec.layout, Layout::kEdgeArray);
    EXPECT_FALSE(rec.numa_partition);
  }
}

TEST(Advisor, BfsAdjacencyPush) {
  const Recommendation rec = Advise(TraitsBfs(), PowerLawStats(), {4});
  EXPECT_EQ(rec.layout, Layout::kAdjacency);
  EXPECT_EQ(rec.direction, Direction::kPush);
  // Paper: NUMA partitioning hurts BFS even on big machines.
  EXPECT_FALSE(rec.numa_partition);
}

TEST(Advisor, PagerankPowerLawGetsGridLockFree) {
  const Recommendation rec = Advise(TraitsPagerank(), PowerLawStats(), {1});
  EXPECT_EQ(rec.layout, Layout::kGrid);
  EXPECT_EQ(rec.sync, Sync::kLockFree);  // lock removal always when possible
}

TEST(Advisor, PagerankRoadGetsEdgeArray) {
  // Paper Table 5: Pagerank on US-Road -> edge array (grid's miss-ratio gain
  // too small on low-degree graphs).
  const Recommendation rec = Advise(TraitsPagerank(), RoadStats(), {1});
  EXPECT_EQ(rec.layout, Layout::kEdgeArray);
}

TEST(Advisor, NumaOnlyOnBigMachinesForLongRuns) {
  EXPECT_FALSE(Advise(TraitsPagerank(), PowerLawStats(), {1}).numa_partition);
  EXPECT_FALSE(Advise(TraitsPagerank(), PowerLawStats(), {2}).numa_partition);
  EXPECT_TRUE(Advise(TraitsPagerank(), PowerLawStats(), {4}).numa_partition);
  EXPECT_FALSE(Advise(TraitsBfs(), PowerLawStats(), {4}).numa_partition);
  EXPECT_FALSE(Advise(TraitsSpmv(), PowerLawStats(), {4}).numa_partition);
}

TEST(Advisor, WccLowDiameterEdgeArrayHighDiameterAdjacency) {
  // Paper Table 6: WCC best on edge array for RMAT/Twitter, adjacency for
  // US-Road.
  EXPECT_EQ(Advise(TraitsWcc(), PowerLawStats(), {4}).layout, Layout::kEdgeArray);
  EXPECT_EQ(Advise(TraitsWcc(), RoadStats(), {4}).layout, Layout::kAdjacency);
}

TEST(Advisor, SsspLikeBfs) {
  const Recommendation rec = Advise(TraitsSssp(), PowerLawStats(), {4});
  EXPECT_EQ(rec.layout, Layout::kAdjacency);
  EXPECT_EQ(rec.direction, Direction::kPush);
}

TEST(Advisor, AlsAdjacencyPullLockFree) {
  // Paper Table 6: ALS -> adjacency list, pull, no locks.
  const Recommendation rec = Advise(TraitsAls(), PowerLawStats(), {2});
  EXPECT_EQ(rec.layout, Layout::kAdjacency);
  EXPECT_EQ(rec.direction, Direction::kPull);
  EXPECT_EQ(rec.sync, Sync::kLockFree);
}

TEST(Advisor, NeverRecommendsPushPull) {
  // Section 9: "We do not find any algorithm or directed graph for which
  // switching between a pull mode without locks and push mode is beneficial
  // when looking at end-to-end execution time."
  for (const auto traits : {TraitsBfs(), TraitsWcc(), TraitsSssp(), TraitsPagerank(),
                            TraitsSpmv(), TraitsAls()}) {
    for (const auto& stats : {PowerLawStats(), RoadStats()}) {
      EXPECT_NE(Advise(traits, stats, {4}).direction, Direction::kPushPull) << traits.name;
    }
  }
}

TEST(Advisor, RationaleIsNonEmpty) {
  const Recommendation rec = Advise(TraitsBfs(), PowerLawStats(), {2});
  EXPECT_FALSE(rec.rationale.empty());
}

TEST(Advisor, MemoryBudgetFallsBackToEdgeArray) {
  // Roadmap step 5: an adjacency recommendation whose CSR cannot fit the
  // machine's memory budget falls back to the edge array, which builds
  // nothing beyond the input. Unconstrained (0) keeps adjacency.
  MachineTraits unconstrained{4};
  EXPECT_EQ(Advise(TraitsBfs(), PowerLawStats(), unconstrained).layout,
            Layout::kAdjacency);

  MachineTraits tiny{4};
  tiny.memory_budget_bytes = 1 << 10;  // 1 KiB: no scale-12 CSR fits
  const Recommendation rec = Advise(TraitsBfs(), PowerLawStats(), tiny);
  EXPECT_EQ(rec.layout, Layout::kEdgeArray);
  EXPECT_EQ(rec.direction, Direction::kPush);
  EXPECT_EQ(rec.sync, Sync::kAtomics);
  EXPECT_NE(rec.rationale.find("memory budget"), std::string::npos);

  // A budget that comfortably fits the CSR does not fall back.
  MachineTraits roomy{4};
  roomy.memory_budget_bytes = 1ULL << 40;
  EXPECT_EQ(Advise(TraitsBfs(), PowerLawStats(), roomy).layout, Layout::kAdjacency);
}

TEST(Advisor, WorkerCountNeverPicksAnotherLayout) {
  // Subset-active algorithms on a dense power-law graph stay on adjacency
  // push with atomics however many workers run them: the sharded push that
  // a worker-count rule used to pick measured 2-3x slower for SSSP on the
  // wall clock (EXPERIMENTS.md).
  const GraphStats stats = PowerLawStats();
  ASSERT_GE(stats.avg_degree, 6.0);  // dense: not the low-degree branch
  for (const int workers : {8, 64}) {
    MachineTraits machine;
    machine.workers = workers;
    for (const AlgorithmTraits& traits : {TraitsBfs(), TraitsSssp()}) {
      const Recommendation rec = Advise(traits, stats, machine);
      EXPECT_EQ(rec.layout, Layout::kAdjacency) << traits.name << " at " << workers;
      EXPECT_EQ(rec.direction, Direction::kPush) << traits.name << " at " << workers;
      EXPECT_EQ(rec.sync, Sync::kAtomics) << traits.name << " at " << workers;
    }
  }
}

TEST(Advisor, MemoryBudgetKeepsAlsOnAdjacencyPull) {
  // ALS runs only on adjacency, so the budget never moves it; its pull stays
  // lock-free (one writer per destination).
  MachineTraits tiny{2};
  tiny.memory_budget_bytes = 1 << 10;
  const Recommendation rec = Advise(TraitsAls(), PowerLawStats(), tiny);
  EXPECT_EQ(rec.layout, Layout::kAdjacency);
  EXPECT_EQ(rec.direction, Direction::kPull);
  EXPECT_EQ(rec.sync, Sync::kLockFree);
}

}  // namespace
}  // namespace egraph
