#include "src/engine/graph_handle.h"

#include <cstdio>
#include <cstdlib>

#include "src/obs/phase.h"
#include "src/util/parallel.h"

namespace egraph {

uint32_t GraphHandle::AutoGridBlocks(VertexId num_vertices) {
  // Target ~4k vertices per block (so a block's metadata is a few tens of
  // KB, well inside any LLC), capped at the paper's 256 blocks. At the
  // paper's RMAT-26 scale this yields the 256x256 grid they found best.
  uint32_t blocks = num_vertices / 4096;
  if (blocks < 4) {
    blocks = 4;
  }
  if (blocks > 256) {
    blocks = 256;
  }
  return blocks;
}

void GraphHandle::CheckBuildPhase(const char* operation) const {
  if (frozen()) {
    std::fprintf(stderr,
                 "GraphHandle::%s called on a frozen handle; mutation is only "
                 "legal during the build phase (before Freeze()).\n",
                 operation);
    std::abort();
  }
}

void GraphHandle::AddPreprocessSeconds(double seconds) {
  std::lock_guard<std::mutex> guard(stats_mutex_);
  preprocess_seconds_ += seconds;
}

double GraphHandle::preprocess_seconds() const {
  std::lock_guard<std::mutex> guard(stats_mutex_);
  return preprocess_seconds_;
}

void GraphHandle::ResetPreprocessClock() {
  std::shared_lock<std::shared_mutex> build_guard(build_mutex_);
  CheckBuildPhase("ResetPreprocessClock");
  std::lock_guard<std::mutex> guard(stats_mutex_);
  preprocess_seconds_ = 0.0;
}

void GraphHandle::Freeze() {
  // Exclusive acquisition waits out every in-flight Prepare / InstallCsr /
  // DropLayouts holding the lock shared: a mutation that began before the
  // freeze completes before frozen_ is published, and one that begins after
  // observes frozen_ (its shared_lock orders it after this critical
  // section) and aborts in CheckBuildPhase. Idempotent.
  std::unique_lock<std::shared_mutex> build_guard(build_mutex_);
  frozen_.store(true, std::memory_order_release);
}

void GraphHandle::Prepare(const PrepareConfig& config) {
  // Shared: concurrent Prepare calls still overlap (the per-layout
  // call_once guards do the real serialization), but a Freeze() cannot land
  // mid-build — it waits for this scope to exit.
  std::shared_lock<std::shared_mutex> build_guard(build_mutex_);
  obs::ScopedPhase phase(obs::Phase::kPreprocess);
  switch (config.layout) {
    case Layout::kEdgeArray:
      // Nothing to build: the input layout is the computation layout.
      break;
    case Layout::kAdjacency: {
      if (config.symmetric_input && config.need_in) {
        // Undirected input: the incoming lists are the outgoing lists.
        in_aliases_out_.store(true, std::memory_order_release);
      }
      const bool build_out = config.need_out || (config.symmetric_input && config.need_in);
      if (build_out) {
        std::call_once(once_->out, [&] {
          if (out_csr_.has_value()) {
            return;  // installed by InstallCsr; nothing to build
          }
          BuildStats stats;
          out_csr_ = BuildCsr(graph_, EdgeDirection::kOut, config.method, &stats,
                              config.radix_digit_bits);
          double seconds = stats.seconds;
          if (config.sort_neighbors) {
            seconds += out_csr_->SortNeighborLists();
          }
          AddPreprocessSeconds(seconds);
        });
      }
      if (config.need_in && !config.symmetric_input) {
        std::call_once(once_->in, [&] {
          if (in_csr_.has_value()) {
            return;
          }
          BuildStats stats;
          in_csr_ = BuildCsr(graph_, EdgeDirection::kIn, config.method, &stats,
                             config.radix_digit_bits);
          double seconds = stats.seconds;
          if (config.sort_neighbors) {
            seconds += in_csr_->SortNeighborLists();
          }
          AddPreprocessSeconds(seconds);
        });
      }
      break;
    }
    case Layout::kGrid: {
      std::call_once(once_->grid, [&] {
        if (grid_.has_value()) {
          return;
        }
        GridOptions options;
        options.num_blocks =
            config.grid_blocks != 0 ? config.grid_blocks : AutoGridBlocks(num_vertices());
        options.method = config.method;
        BuildStats stats;
        grid_ = BuildGrid(graph_, options, &stats);
        AddPreprocessSeconds(stats.seconds);
      });
      break;
    }
  }
}

void GraphHandle::InstallCsr(EdgeDirection direction, Csr csr, double build_seconds) {
  std::shared_lock<std::shared_mutex> build_guard(build_mutex_);
  CheckBuildPhase("InstallCsr");
  if (direction == EdgeDirection::kOut) {
    out_csr_ = std::move(csr);
  } else {
    in_csr_ = std::move(csr);
  }
  AddPreprocessSeconds(build_seconds);
}

void GraphHandle::DropLayouts() {
  std::shared_lock<std::shared_mutex> build_guard(build_mutex_);
  CheckBuildPhase("DropLayouts");
  // Clear the alias before the CSRs go away: has_in_csr() must never see
  // in_aliases_out_ == true after out_csr_ has been reset, and a later
  // asymmetric re-Prepare must not inherit a stale alias. (The drop itself
  // is single-owner — see the header — this ordering keeps the flag
  // consistent with the layouts at every step.)
  in_aliases_out_.store(false, std::memory_order_release);
  out_csr_.reset();
  in_csr_.reset();
  grid_.reset();
  // Re-arm the call_once guards so the next Prepare builds again.
  once_ = std::make_unique<LayoutOnce>();
}

}  // namespace egraph
