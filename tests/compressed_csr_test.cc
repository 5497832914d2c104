// Compressed storage format tests: an EGCMPR01 file written from a CSR must
// load back — whole or as any vertex range — into exactly the sorted plain
// CSR, weights bit for bit, on every graph family; power-law graphs must
// actually compress.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/gen/erdos_renyi.h"
#include "src/gen/rmat.h"
#include "src/gen/road.h"
#include "src/io/compressed_io.h"
#include "src/layout/compressed_csr.h"
#include "src/layout/csr_builder.h"
#include "src/layout/reorder.h"

namespace egraph {
namespace {

// A file path unique to this process and test, removed when the test ends.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("egraph_compressed_test_" + std::to_string(::getpid()) + "_" + tag + ".egc"))
                  .string()) {}
  ~ScratchFile() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Csr SortedCsr(const EdgeList& graph) {
  Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  csr.SortNeighborLists();
  return csr;
}

// Encodes `graph`'s (unsorted) out-CSR at `chunk_edges` and writes it.
CompressedCsr WriteEncoded(const EdgeList& graph, uint32_t chunk_edges,
                           const std::string& path) {
  const CompressedCsr compressed = CompressedCsr::FromCsr(
      BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort), nullptr, chunk_edges);
  WriteCompressedCsr(path, compressed);
  return compressed;
}

std::vector<uint32_t> WeightBits(std::span<const float> weights) {
  std::vector<uint32_t> bits;
  for (const float w : weights) {
    bits.push_back(std::bit_cast<uint32_t>(w));
  }
  return bits;
}

// `got` holds rows [v_lo, v_lo + got.num_vertices()) of `want`: offsets
// rebased to the range, neighbors and weight bit patterns exact. (A range
// without edges has no weights either, as any edgeless CSR.)
void ExpectRowsEqual(const Csr& got, const Csr& want, VertexId v_lo, const std::string& what) {
  ASSERT_EQ(got.offsets().size(), static_cast<size_t>(got.num_vertices()) + 1) << what;
  const EdgeIndex base = want.offsets()[v_lo];
  for (VertexId i = 0; i <= got.num_vertices(); ++i) {
    ASSERT_EQ(got.offsets()[i], want.offsets()[v_lo + i] - base) << what << " offset " << i;
  }
  const EdgeIndex end = want.offsets()[v_lo + got.num_vertices()];
  ASSERT_TRUE(std::equal(got.neighbors().begin(), got.neighbors().end(),
                         want.neighbors().begin() + static_cast<int64_t>(base),
                         want.neighbors().begin() + static_cast<int64_t>(end)))
      << what;
  if (want.has_weights() && end > base) {
    EXPECT_EQ(WeightBits(got.weights()),
              WeightBits(std::span<const float>(want.weights().data() + base, end - base)))
        << what;
  }
}

// --- The graph family (after KaMinPar's TEST_ON_ALL_GRAPHS) ----------------

void AddBoth(EdgeList& graph, VertexId a, VertexId b) {
  graph.AddEdge(a, b);
  graph.AddEdge(b, a);
}

EdgeList EmptyGraph() { return EdgeList(8, {}); }

EdgeList PathGraph() {
  EdgeList graph(300, {});
  for (VertexId v = 0; v + 1 < 300; ++v) {
    AddBoth(graph, v, v + 1);
  }
  return graph;
}

EdgeList StarGraph() {
  EdgeList graph(201, {});
  for (VertexId v = 1; v <= 200; ++v) {
    AddBoth(graph, 0, v);
  }
  return graph;
}

EdgeList GridGraph() {
  constexpr VertexId kSide = 20;
  EdgeList graph(kSide * kSide, {});
  for (VertexId r = 0; r < kSide; ++r) {
    for (VertexId c = 0; c < kSide; ++c) {
      const VertexId v = r * kSide + c;
      if (c + 1 < kSide) {
        AddBoth(graph, v, v + 1);
      }
      if (r + 1 < kSide) {
        AddBoth(graph, v, v + kSide);
      }
    }
  }
  return graph;
}

EdgeList CompleteBipartiteGraph() {
  constexpr VertexId kLeft = 20;
  constexpr VertexId kRight = 30;
  EdgeList graph(kLeft + kRight, {});
  for (VertexId a = 0; a < kLeft; ++a) {
    for (VertexId b = kLeft; b < kLeft + kRight; ++b) {
      AddBoth(graph, a, b);
    }
  }
  return graph;
}

EdgeList CompleteGraph() {
  constexpr VertexId kN = 40;
  EdgeList graph(kN, {});
  for (VertexId a = 0; a < kN; ++a) {
    for (VertexId b = 0; b < kN; ++b) {
      if (a != b) {
        graph.AddEdge(a, b);
      }
    }
  }
  return graph;
}

EdgeList MatchingGraph() {
  EdgeList graph(200, {});
  for (VertexId v = 0; v < 200; v += 2) {
    AddBoth(graph, v, v + 1);
  }
  return graph;
}

// A star whose hub sits mid-range (so its first delta is negative) with more
// than 5 x kDefaultChunkEdges leaves, inserted in scattered order.
EdgeList HubStarGraph() {
  constexpr VertexId kN = 5 * CompressedCsr::kDefaultChunkEdges + 38;  // 678
  constexpr VertexId kHub = kN / 2;
  EdgeList graph(kN, {});
  for (VertexId i = 0; i < kN; ++i) {
    const VertexId leaf = (i * 37) % kN;  // 37 is coprime to kN: a permutation
    if (leaf != kHub) {
      AddBoth(graph, kHub, leaf);
    }
  }
  return graph;
}

EdgeList RmatGraph() {
  RmatOptions options;
  options.scale = 10;
  return GenerateRmat(options);
}

EdgeList UniformGraph() {
  ErdosRenyiOptions options;
  options.num_vertices = 1000;
  options.num_edges = 20000;
  return GenerateErdosRenyi(options);
}

EdgeList RoadGraph() {
  RoadOptions options;
  options.width = 32;
  options.height = 32;
  return GenerateRoad(options);
}

struct Family {
  const char* name;
  EdgeList (*make)();
};

const Family kFamilies[] = {
    {"rmat", RmatGraph},
    {"uniform", UniformGraph},
    {"road", RoadGraph},
    {"empty", EmptyGraph},
    {"path", PathGraph},
    {"star", StarGraph},
    {"grid", GridGraph},
    {"complete_bipartite", CompleteBipartiteGraph},
    {"complete", CompleteGraph},
    {"matching", MatchingGraph},
    {"hub_star", HubStarGraph},
};

// Each family member runs unweighted and weighted, at the default chunk
// size and at 3 edges per chunk (so every list of degree > 3 spans chunks).
struct Variant {
  bool weighted;
  uint32_t chunk_edges;
};
const Variant kVariants[] = {
    {false, CompressedCsr::kDefaultChunkEdges},
    {true, CompressedCsr::kDefaultChunkEdges},
    {false, 3},
    {true, 3},
};

std::string VariantName(const Variant& variant) {
  return std::string(variant.weighted ? "weighted" : "unweighted") + "/chunk" +
         std::to_string(variant.chunk_edges);
}

EdgeList MakeVariant(int family, const Variant& variant) {
  EdgeList graph = kFamilies[family].make();
  if (variant.weighted) {
    graph.AssignRandomWeights(0.1f, 3.0f, 99);
  }
  return graph;
}

class CompressedCsrFamilyTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedCsrFamilyTest, DecodeMatchesSortedCsr) {
  for (const Variant& variant : kVariants) {
    const std::string what = std::string(kFamilies[GetParam()].name) + " " + VariantName(variant);
    const EdgeList graph = MakeVariant(GetParam(), variant);
    const ScratchFile file(kFamilies[GetParam()].name);
    const CompressedCsr compressed = WriteEncoded(graph, variant.chunk_edges, file.path());
    const Csr want = SortedCsr(graph);
    const Csr got = ReadCompressedCsr(file.path());
    ASSERT_EQ(got.num_vertices(), want.num_vertices()) << what;
    ASSERT_EQ(compressed.num_edges(), want.num_edges()) << what;
    ExpectRowsEqual(got, want, 0, what);
  }
}

// Ranges around the highest-degree vertex: starting at it, ending just past
// it, covering it alone, stopping short of it, plus an empty range and a
// middle third — each must load exactly its rows and read exactly its bytes.
TEST_P(CompressedCsrFamilyTest, RangeLoadsMatchSortedCsr) {
  for (const Variant& variant : kVariants) {
    const std::string what = std::string(kFamilies[GetParam()].name) + " " + VariantName(variant);
    const EdgeList graph = MakeVariant(GetParam(), variant);
    const ScratchFile file(kFamilies[GetParam()].name);
    const CompressedCsr compressed = WriteEncoded(graph, variant.chunk_edges, file.path());
    const Csr want = SortedCsr(graph);
    const VertexId n = want.num_vertices();
    VertexId hub = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (want.Degree(v) > want.Degree(hub)) {
        hub = v;
      }
    }
    const VertexId after = std::min(hub + 1, n);
    const std::vector<std::pair<VertexId, VertexId>> ranges = {
        {0, n},     {hub, after}, {0, hub},   {hub, n},
        {after, n}, {hub, hub},   {hub / 2, std::min(after + 2, n)}, {n / 3, 2 * n / 3}};
    SelectiveCompressedLoader loader(file.path());
    uint64_t bytes = 0;
    for (const auto& [lo, hi] : ranges) {
      const std::string range_what =
          what + " [" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
      const DecodedRange range = loader.LoadRange(lo, hi);
      EXPECT_EQ(range.v_lo, lo) << range_what;
      EXPECT_EQ(range.v_hi, hi) << range_what;
      ASSERT_EQ(range.csr.num_vertices(), hi - lo) << range_what;
      ExpectRowsEqual(range.csr, want, lo, range_what);
      bytes += compressed.ByteOffset(hi) - compressed.ByteOffset(lo);
      EXPECT_EQ(loader.stats().bytes_decoded, bytes) << range_what;
    }
  }
}

std::string FamilyParamName(const ::testing::TestParamInfo<int>& info) {
  return kFamilies[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(Families, CompressedCsrFamilyTest,
                         ::testing::Range(0, static_cast<int>(std::size(kFamilies))),
                         FamilyParamName);

TEST(CompressedCsr, SelfLoopAndDuplicateNeighbors) {
  EdgeList graph;
  graph.set_num_vertices(4);
  graph.AddEdge(2, 2);  // self loop: first delta is zero
  graph.AddEdge(2, 1);  // negative first delta when sorted ([1, 2, 2, 3])
  graph.AddEdge(2, 2);  // duplicate: zero delta mid-stream
  graph.AddEdge(2, 3);
  const ScratchFile file("self_loop");
  WriteEncoded(graph, CompressedCsr::kDefaultChunkEdges, file.path());
  const Csr loaded = ReadCompressedCsr(file.path());
  const auto neighbors = loaded.Neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(neighbors.begin(), neighbors.end()),
            (std::vector<VertexId>{1, 2, 2, 3}));
}

// Degrees straddling the chunk threshold: ce-1, ce, ce+1, 2*ce, plus empty
// and degree-1 vertices. With chunk_edges=4 every boundary case is hit.
TEST(CompressedCsr, ChunkBoundaryRoundTrip) {
  constexpr uint32_t kChunkEdges = 4;
  const std::vector<uint32_t> degrees = {0, 1, 3, 4, 5, 8, 0, 9};
  EdgeList graph;
  graph.set_num_vertices(16);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    for (uint32_t i = 0; i < degrees[v]; ++i) {
      graph.AddEdge(v, (v * 7 + i * 3) % 16);  // scattered, unsorted targets
    }
  }
  const ScratchFile file("chunk_boundary");
  const CompressedCsr compressed = WriteEncoded(graph, kChunkEdges, file.path());
  for (VertexId v = 0; v < degrees.size(); ++v) {
    EXPECT_EQ(compressed.chunk_begin()[v + 1] - compressed.chunk_begin()[v],
              (degrees[v] + kChunkEdges - 1) / kChunkEdges)
        << "vertex " << v;
  }
  const Csr want = SortedCsr(graph);
  const Csr got = ReadCompressedCsr(file.path());
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ExpectRowsEqual(got, want, 0, "chunk boundary");
}

// A mega hub splits into many chunks; every chunk re-anchors at the owner,
// so its whole list must still load in sorted order, and a range that skips
// the hub must skip every one of its bytes.
TEST(CompressedCsr, MegaHubSplitsAndSlices) {
  constexpr uint32_t kChunkEdges = 8;
  const VertexId leaves = 1000;
  EdgeList graph(leaves + 1, {});
  for (VertexId v = 1; v <= leaves; ++v) {
    graph.AddEdge(0, ((v * 37) % leaves) + 1);  // scattered insertion order
  }
  const ScratchFile file("mega_hub");
  const CompressedCsr compressed = WriteEncoded(graph, kChunkEdges, file.path());
  EXPECT_EQ(compressed.chunk_begin()[1], (leaves + kChunkEdges - 1) / kChunkEdges);

  SelectiveCompressedLoader loader(file.path());
  const DecodedRange hub = loader.LoadRange(0, 1);
  const auto full = hub.csr.Neighbors(0);
  ASSERT_EQ(full.size(), leaves);
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
  EXPECT_EQ(loader.stats().bytes_decoded, loader.stream_bytes());

  const DecodedRange rest = loader.LoadRange(1, leaves + 1);
  EXPECT_EQ(rest.csr.num_edges(), 0u);
  EXPECT_EQ(loader.stats().bytes_decoded, loader.stream_bytes());
  EXPECT_EQ(loader.stats().chunks_decoded, static_cast<uint64_t>(compressed.num_chunks()));
}

// Weighted graphs must round-trip their weights bit-exactly through the
// interleaved varint stream, permuted alongside the sorted neighbors.
TEST(CompressedCsr, WeightedRoundTripIsBitExact) {
  RmatOptions options;
  options.scale = 8;
  EdgeList graph = GenerateRmat(options);
  graph.AssignRandomWeights(0.1f, 3.0f, 99);
  const ScratchFile file("weighted");
  const CompressedCsr compressed =
      WriteEncoded(graph, CompressedCsr::kDefaultChunkEdges, file.path());
  ASSERT_TRUE(compressed.has_weights());
  const Csr got = ReadCompressedCsr(file.path());
  const Csr want = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  ASSERT_TRUE(got.has_weights());
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    // Multi-edges with equal neighbor ids may be stored in either order, so
    // the comparison is on (neighbor, weight-bit-pattern) multisets —
    // bit-exact: the stream stores each float's bit pattern verbatim.
    auto pairs = [](std::span<const VertexId> n, std::span<const float> w) {
      std::vector<std::pair<VertexId, uint32_t>> out;
      for (size_t i = 0; i < n.size(); ++i) {
        out.emplace_back(n[i], std::bit_cast<uint32_t>(w[i]));
      }
      return out;
    };
    const auto neighbors = got.Neighbors(v);
    ASSERT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end())) << "vertex " << v;
    auto got_pairs = pairs(neighbors, got.Weights(v));
    auto want_pairs = pairs(want.Neighbors(v), want.Weights(v));
    std::sort(got_pairs.begin(), got_pairs.end());
    std::sort(want_pairs.begin(), want_pairs.end());
    EXPECT_EQ(got_pairs, want_pairs) << "vertex " << v;
  }
}

// Adversarial varint: a run of continuation bytes longer than any valid
// 64-bit varint, or cut off by the end of the buffer. The checked decoder
// must report failure rather than read past the end or shift past 64 bits.
TEST(CompressedCsr, DecodeVarintBoundsCorruptContinuationRun) {
  const std::vector<uint8_t> hostile(16, 0x80);  // never terminates
  const uint8_t* cursor = hostile.data();
  uint64_t value = 0;
  EXPECT_FALSE(CompressedCsr::DecodeVarintChecked(
      cursor, hostile.data() + hostile.size(), &value));
  // Bounded: consumed at most 10 bytes (64/7 rounded up).
  EXPECT_LE(cursor - hostile.data(), 10);

  // Truncated buffer: continuation bit set on the last byte.
  const std::vector<uint8_t> truncated = {0xFF, 0xFF};
  cursor = truncated.data();
  EXPECT_FALSE(CompressedCsr::DecodeVarintChecked(
      cursor, truncated.data() + truncated.size(), &value));

  // A maximal valid varint still decodes.
  const std::vector<uint8_t> max_varint = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                           0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  cursor = max_varint.data();
  ASSERT_TRUE(CompressedCsr::DecodeVarintChecked(
      cursor, max_varint.data() + max_varint.size(), &value));
  EXPECT_EQ(value, UINT64_MAX);
}

TEST(CompressedCsr, LocalNeighborhoodsCompressWell) {
  // Road lattice: neighbors are id-adjacent, so deltas are tiny.
  RoadOptions options;
  options.width = 64;
  options.height = 64;
  const EdgeList graph = GenerateRoad(options);
  const Csr csr = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  const CompressedCsr compressed = CompressedCsr::FromCsr(csr);
  EXPECT_LT(compressed.RatioVsPlain(), 0.9);
}

TEST(CompressedCsr, ReorderingImprovesCompression) {
  // BFS ordering clusters neighbor ids, shrinking deltas — pre-processing
  // (reorder) traded for memory, the paper's central currency.
  RmatOptions options;
  options.scale = 12;
  const EdgeList graph = GenerateRmat(options);
  const Csr plain = BuildCsr(graph, EdgeDirection::kOut, BuildMethod::kRadixSort);
  const CompressedCsr before = CompressedCsr::FromCsr(plain);

  const Reordering reordering = ComputeReordering(graph, ReorderMethod::kBfsOrder);
  const EdgeList relabeled = ApplyReordering(graph, reordering);
  const Csr reordered = BuildCsr(relabeled, EdgeDirection::kOut, BuildMethod::kRadixSort);
  const CompressedCsr after = CompressedCsr::FromCsr(reordered);

  EXPECT_LT(after.MemoryBytes(), before.MemoryBytes());
}

}  // namespace
}  // namespace egraph
