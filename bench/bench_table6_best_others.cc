// Table 6: best end-to-end approaches for WCC, SpMV, SSSP and ALS across
// graphs. Paper: SpMV -> edge array always (no pre-processing); WCC -> edge
// array on low-diameter graphs but adjacency on US-Road; SSSP -> adjacency
// push; ALS -> adjacency pull (no locks).
//
// WCC also gets a row for the layout the advisor passed over, so both sides
// of its trade-off are timed: the paper's edge-array WCC paid one full scan
// per propagation round, which is what made adjacency win on US-Road; this
// library's edge-array WCC is one union-find pass at any diameter.
#include "bench/bench_common.h"
#include "src/algos/als.h"
#include "src/algos/spmv.h"
#include "src/algos/sssp.h"
#include "src/algos/wcc.h"
#include "src/engine/advisor.h"
#include "src/graph/stats.h"
#include "src/util/timer.h"

int main() {
  using namespace egraph;
  using namespace egraph::bench;
  PrintBanner("Table 6: best approaches for WCC / SpMV / SSSP / ALS",
              "SpMV: edge array everywhere; WCC: edge array (low diameter) vs "
              "adjacency (US-Road); SSSP: adjacency push; ALS: adjacency pull",
              "rmat + twitter-proxy + us-road-proxy + netflix-proxy at EG_SCALE");

  Table table({"algo", "graph", "layout", "propagation", "preproc(s)", "algorithm(s)",
               "total(s)"});
  auto add = [&table](const char* algo, const char* graph_name, const Recommendation& rec,
                      double preproc, double algo_seconds, bool picked = true) {
    RecordResult(std::string(algo) + (picked ? " best" : " not picked"), preproc + algo_seconds,
                 graph_name);
    table.AddRow({picked ? algo : std::string(algo) + " (not picked)", graph_name,
                  LayoutName(rec.layout),
                  std::string(DirectionName(rec.direction)) +
                      (rec.sync == Sync::kLockFree ? " (no lock)" : ""),
                  Sec(preproc), Sec(algo_seconds), Sec(preproc + algo_seconds)});
  };

  struct Dataset {
    const char* name;
    EdgeList graph;
  };
  Dataset datasets[] = {
      {"RMAT", Rmat()}, {"Twitter", Twitter()}, {"US-Road", UsRoad()}};

  for (Dataset& dataset : datasets) {
    const GraphStats stats = ComputeStats(dataset.graph);
    // --- WCC, on the advisor's layout and on the one it passed over ---
    {
      const Recommendation rec = Advise(TraitsWcc(), stats, MachineTraits{1});
      Recommendation other = rec;
      other.layout =
          rec.layout == Layout::kAdjacency ? Layout::kEdgeArray : Layout::kAdjacency;
      for (const bool picked : {true, false}) {
        const Recommendation& row = picked ? rec : other;
        RunConfig config;
        config.layout = row.layout;
        config.direction = row.direction;
        config.sync = row.sync;
        // Symmetrization + doubled CSR is WCC's adjacency pre-processing.
        const bool symmetrize = row.layout == Layout::kAdjacency;
        Timer sym_timer;
        GraphHandle handle(symmetrize ? dataset.graph.MakeUndirected() : dataset.graph);
        const double sym_seconds = symmetrize ? sym_timer.Seconds() : 0.0;
        const WccResult result = RunWcc(handle, config);
        add("WCC", dataset.name, row, sym_seconds + handle.preprocess_seconds(),
            result.stats.algorithm_seconds, picked);
      }
    }
    // --- SpMV ---
    {
      const Recommendation rec = Advise(TraitsSpmv(), stats, MachineTraits{1});
      EdgeList weighted = dataset.graph;
      weighted.AssignRandomWeights(0.1f, 1.0f, 11);
      GraphHandle handle(std::move(weighted));
      RunConfig config;
      config.layout = rec.layout;
      const std::vector<float> x(handle.num_vertices(), 1.0f);
      const SpmvResult result = RunSpmv(handle, x, config);
      add("SpMV", dataset.name, rec, handle.preprocess_seconds(),
          result.stats.algorithm_seconds);
    }
    // --- SSSP ---
    {
      const Recommendation rec = Advise(TraitsSssp(), stats, MachineTraits{1});
      EdgeList weighted = dataset.graph;
      weighted.AssignRandomWeights(0.5f, 2.0f, 13);
      GraphHandle handle(std::move(weighted));
      RunConfig config;
      config.layout = rec.layout;
      config.direction = rec.direction;
      config.sync = rec.sync;
      const SsspResult result = RunSssp(handle, GoodSource(dataset.graph), config);
      add("SSSP", dataset.name, rec, handle.preprocess_seconds(),
          result.stats.algorithm_seconds);
    }
  }

  // --- ALS on the bipartite Netflix proxy ---
  {
    const BipartiteGraph data = DatasetNetflix(Scale());
    const GraphStats stats = ComputeStats(data.edges);
    const Recommendation rec = Advise(TraitsAls(), stats, MachineTraits{1});
    GraphHandle handle(data.edges);
    const AlsResult result = RunAls(handle, data.num_users, AlsOptions{}, RunConfig{});
    add("ALS", "Netflix", rec, handle.preprocess_seconds(),
        result.stats.algorithm_seconds);
  }
  table.Print("Table 6");
  return 0;
}
