// Ablation: the EGCMPR01 compressed storage format vs the plain CSR.
//
// The compressed layout is a storage format only: kernels run on the plain
// CSR a load decodes it into. For a power-law graph (twitter proxy) and a
// high-diameter road network it reports, per dataset:
//   - footprint and bytes/edge (chunked delta-varint stream + the three
//     metadata tables vs plain offsets + neighbor array) and encode time,
//   - a whole-file load of the compressed file into a sorted CSR, next to
//     the plain route to a CSR (binary edge file load + radix build),
//   - the selective loader's decoded-vs-skipped byte split for the vertex
//     range [n/4, n/2).
//
// Hard gates (exit 1): the compressed form must be strictly smaller than
// the plain CSR on BOTH datasets (the road lattice is the adversarial case
// for chunk metadata); the whole-file load must equal the sorted plain CSR
// exactly; and the selective load must decode strictly fewer bytes than the
// whole stream while producing exactly the requested rows. No wall-clock
// gate: the times are reported, not judged.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/io/compressed_io.h"
#include "src/io/edge_io.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr_builder.h"
#include "src/util/timer.h"

namespace {

using namespace egraph;
using namespace egraph::bench;

constexpr int kReps = 5;

int failures = 0;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::string Ratio(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", value);
  return buffer;
}

// Rows [v_lo, v_hi) of `got` (row i = vertex v_lo + i) equal those of
// `want`: neighbors and weight bit patterns exact.
bool SameRows(const Csr& got, const Csr& want, VertexId v_lo, VertexId v_hi) {
  if (got.num_vertices() != v_hi - v_lo) {
    return false;
  }
  for (VertexId v = v_lo; v < v_hi; ++v) {
    const VertexId row = v - v_lo;
    const auto n_got = got.Neighbors(row);
    const auto n_want = want.Neighbors(v);
    const auto w_got = got.Weights(row);
    const auto w_want = want.Weights(v);
    if (!std::equal(n_got.begin(), n_got.end(), n_want.begin(), n_want.end()) ||
        !std::equal(w_got.begin(), w_got.end(), w_want.begin(), w_want.end(),
                    [](float a, float b) {
                      return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
                    })) {
      return false;
    }
  }
  return true;
}

void RunDataset(const std::string& dataset, const EdgeList& graph, Table& footprint_table,
                Table& load_table) {
  const std::string edge_path = "ablation_compression_" + dataset + ".bin";
  const std::string egc_path = "ablation_compression_" + dataset + ".egc";
  WriteBinaryEdges(edge_path, graph);

  // Footprint and encode: the sorted plain out-CSR vs its compressed
  // encoding.
  Csr sorted = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  sorted.SortNeighborLists();
  CompressedCsr compressed;
  double encode_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    compressed = CompressedCsr::FromCsr(sorted, &encode_seconds);
    RecordResult("encode", encode_seconds, dataset);
  }
  // Bytes/edge is machine-independent, so recording it as a cell lets the
  // CI regression gate catch a compression-ratio blowup too.
  RecordResult("bytes per edge compressed", compressed.BytesPerEdge(), dataset);
  footprint_table.AddRow(
      {dataset, Table::FormatCount(static_cast<int64_t>(sorted.MemoryBytes())),
       Table::FormatCount(static_cast<int64_t>(compressed.MemoryBytes())),
       Ratio(compressed.RatioVsPlain()), Sec(encode_seconds)});
  Gate(compressed.MemoryBytes() < sorted.MemoryBytes(),
       dataset + ": compressed form not smaller than plain CSR");
  WriteCompressedCsr(egc_path, compressed);

  // Whole-file loads into a CSR: the plain route (edge file + radix build)
  // next to the compressed file's decode.
  double plain_seconds = 0.0;
  double compressed_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer plain_timer;
    const Csr built =
        BuildCsr(ReadBinaryEdges(edge_path), EdgeDirection::kOut, BuildMethod::kRadixSort);
    plain_seconds = plain_timer.Seconds();
    RecordResult("edge file load + csr build", plain_seconds, dataset);

    Timer compressed_timer;
    const Csr loaded = ReadCompressedCsr(egc_path);
    compressed_seconds = compressed_timer.Seconds();
    RecordResult("compressed file load", compressed_seconds, dataset);
    Gate(built.num_edges() == sorted.num_edges(),
         dataset + ": edge file load lost edges");
    Gate(SameRows(loaded, sorted, 0, sorted.num_vertices()),
         dataset + ": whole-file load differs from the sorted plain CSR");
  }
  load_table.AddRow({"whole-file load", dataset, Sec(plain_seconds),
                     Sec(compressed_seconds), Ratio(1.0)});

  // Selective load of [n/4, n/2): exactly those rows, and only their bytes.
  {
    SelectiveCompressedLoader loader(egc_path);
    const VertexId n = loader.num_vertices();
    const DecodedRange range = loader.LoadRange(n / 4, n / 2);
    const auto& stats = loader.stats();
    Gate(SameRows(range.csr, sorted, n / 4, n / 2),
         dataset + ": selective load rows differ from the sorted plain CSR");
    Gate(stats.bytes_decoded < loader.stream_bytes(),
         dataset + ": selective loader decoded the whole stream");
    Gate(stats.bytes_decoded + stats.bytes_skipped == loader.stream_bytes(),
         dataset + ": selective loader byte accounting broken");
    const double fraction =
        static_cast<double>(stats.bytes_decoded) / static_cast<double>(loader.stream_bytes());
    // Machine-independent, like bytes per edge.
    RecordResult("selective load byte fraction", fraction, dataset);
    load_table.AddRow({"selective load [n/4, n/2)", dataset, "-",
                       Table::FormatCount(static_cast<int64_t>(stats.bytes_decoded)) + " of " +
                           Table::FormatCount(static_cast<int64_t>(loader.stream_bytes())) +
                           " bytes",
                       Ratio(fraction)});
  }
  std::remove(edge_path.c_str());
  std::remove(egc_path.c_str());
}

}  // namespace

int main() {
  const EdgeList twitter = Twitter();
  const EdgeList road = UsRoad();
  PrintBanner("Ablation compression: EGCMPR01 storage format vs plain CSR",
              "smaller than the plain CSR on both graph shapes, loads decode into the "
              "identical sorted CSR, selective loads touch only their bytes",
              DescribeDataset("twitter-proxy", twitter) + "; " +
                  DescribeDataset("us-road", road));

  Table footprint_table({"dataset", "plain bytes", "compressed bytes", "ratio", "encode"});
  Table load_table(
      {"cell", "dataset", "edge file + build", "compressed file", "share of stream read"});
  RunDataset("twitter-proxy", twitter, footprint_table, load_table);
  RunDataset("us-road", road, footprint_table, load_table);

  footprint_table.Print("Footprint");
  load_table.Print("Loads into a CSR (+ selective loading)");
  if (failures != 0) {
    std::fprintf(stderr, "%d compression-ablation gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all compression gates passed\n");
  return 0;
}
