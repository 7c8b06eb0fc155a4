// Binary snapshot round-trips (bit-identical columns) and corruption
// handling: truncation, trailing garbage, checksum flips, header lies, and
// a seeded mutation sweep over both loaders.
#include "graph/snapshot.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "util/bytes.h"
#include "util/mutation_testing.h"
#include "util/random.h"

namespace rtr {
namespace {

// Exercises every structural wrinkle at once: multiple node types, dangling
// nodes (2 and 5 have no out-arcs), parallel edges that must accumulate,
// and a self-loop.
Graph TrickyGraph() {
  GraphBuilder b;
  NodeTypeId paper = b.AddNodeType("paper");
  NodeTypeId author = b.AddNodeType("author");
  b.AddNode(paper);           // 0
  b.AddNode(author);          // 1
  b.AddNode(paper);           // 2: dangling
  b.AddNode(kUntypedNode);    // 3
  b.AddNode(author);          // 4
  b.AddNode(paper);           // 5: dangling, never referenced at all
  b.AddDirectedEdge(0, 1, 1.25);
  b.AddDirectedEdge(0, 1, 0.75);  // parallel: merges to 2.0
  b.AddDirectedEdge(0, 2, 3.0);
  b.AddUndirectedEdge(1, 3, 0.5);
  b.AddDirectedEdge(3, 3, 1.0);   // self-loop
  b.AddDirectedEdge(4, 0, 7.0);
  b.AddDirectedEdge(4, 2, 0.125);
  return b.Build().value();
}

Graph RandomGraph(uint64_t seed, size_t n = 60) {
  Rng rng(seed);
  GraphBuilder b;
  NodeTypeId t1 = b.AddNodeType("x");
  for (size_t i = 0; i < n; ++i) {
    b.AddNode(rng.NextBernoulli(0.5) ? t1 : kUntypedNode);
  }
  for (size_t e = 0; e < 4 * n; ++e) {
    b.AddDirectedEdge(static_cast<NodeId>(rng.NextUint64(n)),
                      static_cast<NodeId>(rng.NextUint64(n)),
                      0.1 + rng.NextDouble());
  }
  return b.Build().value();
}

template <typename T>
void ExpectColumnsEq(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal: the snapshot stores the
    // column bytes verbatim.
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(T)), 0) << "index " << i;
  }
}

void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_EQ(a.type_names(), b.type_names());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.node_type(v), b.node_type(v));
    EXPECT_EQ(a.out_weight(v), b.out_weight(v));
  }
  ExpectColumnsEq(a.out_offsets(), b.out_offsets());
  ExpectColumnsEq(a.out_targets(), b.out_targets());
  ExpectColumnsEq(a.out_arc_weights(), b.out_arc_weights());
  ExpectColumnsEq(a.out_probs(), b.out_probs());
  ExpectColumnsEq(a.in_offsets(), b.in_offsets());
  ExpectColumnsEq(a.in_sources(), b.in_sources());
  ExpectColumnsEq(a.in_arc_weights(), b.in_arc_weights());
  ExpectColumnsEq(a.in_probs(), b.in_probs());
}

std::string Snapshot(const Graph& g) {
  std::ostringstream out;
  EXPECT_TRUE(SaveGraphSnapshot(g, out).ok());
  return out.str();
}

StatusOr<Graph> Load(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadGraphSnapshot(in);
}

TEST(SnapshotTest, RoundTripTrickyGraphBitIdentical) {
  Graph g = TrickyGraph();
  StatusOr<Graph> loaded = Load(Snapshot(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsIdentical(g, *loaded);
}

TEST(SnapshotTest, RoundTripRandomGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = RandomGraph(seed);
    StatusOr<Graph> loaded = Load(Snapshot(g));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectGraphsIdentical(g, *loaded);
  }
}

TEST(SnapshotTest, RoundTripEmptyGraph) {
  Graph g = GraphBuilder().Build().value();
  StatusOr<Graph> loaded = Load(Snapshot(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 0u);
  EXPECT_EQ(loaded->num_arcs(), 0u);
  EXPECT_EQ(loaded->type_names(), g.type_names());
}

// The probs column must survive save->load exactly, even after
// parallel-edge accumulation produced values a text round-trip could only
// approximately reconstruct.
TEST(SnapshotTest, ProbColumnBitIdenticalUnderParallelEdgeAccumulation) {
  GraphBuilder b;
  b.AddNodes(3);
  for (int i = 0; i < 10; ++i) {
    b.AddDirectedEdge(0, 1, 0.1);   // accumulates fp round-off
    b.AddDirectedEdge(0, 2, 0.3);
  }
  Graph g = b.Build().value();
  StatusOr<Graph> loaded = Load(Snapshot(g));
  ASSERT_TRUE(loaded.ok());
  ExpectColumnsEq(g.out_probs(), loaded->out_probs());
  ExpectColumnsEq(g.in_probs(), loaded->in_probs());
}

TEST(SnapshotTest, TruncationRejectedAtEveryLength) {
  Graph g = TrickyGraph();
  const std::string bytes = Snapshot(g);
  // Chop at a spread of lengths including mid-header and mid-column.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{63}, size_t{64},
                      bytes.size() / 2, bytes.size() - 8, bytes.size() - 1}) {
    StatusOr<Graph> loaded = Load(bytes.substr(0, keep));
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  Graph g = TrickyGraph();
  StatusOr<Graph> loaded = Load(Snapshot(g) + "extra");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, PayloadCorruptionCaughtByChecksum) {
  Graph g = TrickyGraph();
  std::string bytes = Snapshot(g);
  bytes[bytes.size() - 3] ^= 0x40;  // flip one payload bit
  StatusOr<Graph> loaded = Load(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, BadMagicRejected) {
  std::string bytes = Snapshot(TrickyGraph());
  bytes[0] = 'X';
  EXPECT_FALSE(Load(bytes).ok());
}

TEST(SnapshotTest, BadVersionRejected) {
  std::string bytes = Snapshot(TrickyGraph());
  bytes[8] = 99;  // version field
  EXPECT_FALSE(Load(bytes).ok());
}

TEST(SnapshotTest, LyingArcCountRejected) {
  // Inflate the header's arc count: the exact-size check must fire before
  // any allocation based on it.
  std::string bytes = Snapshot(TrickyGraph());
  uint64_t huge = uint64_t{1} << 40;
  std::memcpy(&bytes[32], &huge, sizeof(huge));  // num_arcs field
  StatusOr<Graph> loaded = Load(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, LyingNodeCountRejected) {
  // A node count past the u32 NodeId range must be rejected outright.
  std::string bytes = Snapshot(TrickyGraph());
  uint64_t huge = uint64_t{1} << 32;
  std::memcpy(&bytes[24], &huge, sizeof(huge));  // num_nodes field
  StatusOr<Graph> loaded = Load(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, FileRoundTripAndAutoDetect) {
  Graph g = TrickyGraph();
  const std::string dir = testing::TempDir();
  const std::string snap_path = dir + "/rtr_snapshot_test.rtrsnap";
  const std::string text_path = dir + "/rtr_snapshot_test.txt";
  ASSERT_TRUE(SaveGraphSnapshotToFile(g, snap_path).ok());
  ASSERT_TRUE(SaveGraphToFile(g, text_path).ok());

  EXPECT_TRUE(IsSnapshotFile(snap_path).value());
  EXPECT_FALSE(IsSnapshotFile(text_path).value());

  // Auto-detection routes both formats to a working loader.
  StatusOr<Graph> from_snap = LoadGraphAuto(snap_path);
  ASSERT_TRUE(from_snap.ok());
  ExpectGraphsIdentical(g, *from_snap);
  StatusOr<Graph> from_text = LoadGraphAuto(text_path);
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(from_text->num_arcs(), g.num_arcs());
}

TEST(SnapshotTest, MissingFileRejected) {
  EXPECT_FALSE(LoadGraphSnapshotFromFile("/nonexistent/x.rtrsnap").ok());
  EXPECT_FALSE(IsSnapshotFile("/nonexistent/x.rtrsnap").ok());
  EXPECT_FALSE(LoadGraphAuto("/nonexistent/x.rtrsnap").ok());
}

// Loading a snapshot must behave exactly like the builder output in the
// algorithms: spot-check a transition probability and a walk sample.
TEST(SnapshotTest, LoadedGraphBehavesIdentically) {
  Graph g = RandomGraph(11);
  Graph loaded = Load(Snapshot(g)).value();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.out_degree(v), loaded.out_degree(v));
    EXPECT_EQ(g.in_degree(v), loaded.in_degree(v));
    EXPECT_EQ(g.SampleOutNeighbor(v, 0.37), loaded.SampleOutNeighbor(v, 0.37));
  }
  EXPECT_EQ(g.TransitionProb(3, 5), loaded.TransitionProb(3, 5));
  EXPECT_EQ(g.MemoryBytes(), loaded.MemoryBytes());
}

// ---------------------------------------------------------------------------
// v2 generation field (graph/store.h) and v1 compatibility.

TEST(SnapshotTest, GenerationRoundTrip) {
  Graph g = TrickyGraph();
  std::ostringstream out;
  ASSERT_TRUE(SaveGraphSnapshot(g, out, 42).ok());
  std::istringstream in(out.str());
  uint64_t generation = 0;
  StatusOr<Graph> loaded = LoadGraphSnapshot(in, &generation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(generation, 42u);
  ExpectGraphsIdentical(g, *loaded);
}

TEST(SnapshotTest, DefaultGenerationIsZero) {
  std::istringstream in(Snapshot(TrickyGraph()));
  uint64_t generation = 99;
  ASSERT_TRUE(LoadGraphSnapshot(in, &generation).ok());
  EXPECT_EQ(generation, 0u);
}

TEST(SnapshotTest, V1SnapshotLoadsAsGenerationZero) {
  // A v1 file is byte-identical to a v2 file at generation 0 except for the
  // version word; rewriting it exercises the legacy-load path.
  std::string bytes = Snapshot(TrickyGraph());
  const uint32_t v1 = 1;
  std::memcpy(&bytes[8], &v1, sizeof(v1));
  std::istringstream in(bytes);
  uint64_t generation = 99;
  StatusOr<Graph> loaded = LoadGraphSnapshot(in, &generation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(generation, 0u);
  ExpectGraphsIdentical(TrickyGraph(), *loaded);
}

TEST(SnapshotTest, V1SnapshotWithNonzeroReservedFieldRejected) {
  // v1 wrote a zeroed reserved word where v2 keeps the generation; a v1
  // header with that word set is corrupt, not "a generation".
  std::ostringstream out;
  ASSERT_TRUE(SaveGraphSnapshot(TrickyGraph(), out, 7).ok());
  std::string bytes = out.str();
  const uint32_t v1 = 1;
  std::memcpy(&bytes[8], &v1, sizeof(v1));
  StatusOr<Graph> loaded = Load(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, ReadSnapshotFileInfoReportsHeader) {
  Graph g = TrickyGraph();
  const std::string path = testing::TempDir() + "/rtr_snapshot_info.rtrsnap";
  ASSERT_TRUE(SaveGraphSnapshotToFile(g, path, 7).ok());
  StatusOr<SnapshotFileInfo> info = ReadSnapshotFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->generation, 7u);
  EXPECT_EQ(info->num_types, g.type_names().size());
  EXPECT_EQ(info->num_nodes, g.num_nodes());
  EXPECT_EQ(info->num_arcs, g.num_arcs());
  EXPECT_NE(info->payload_checksum, 0u);
}

TEST(SnapshotTest, ReadSnapshotFileInfoRejectsMissingAndCorrupt) {
  EXPECT_FALSE(ReadSnapshotFileInfo("/nonexistent/x.rtrsnap").ok());
  const std::string path =
      testing::TempDir() + "/rtr_snapshot_badheader.rtrsnap";
  std::string bytes = Snapshot(TrickyGraph());
  bytes[0] = 'X';  // break the magic
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_FALSE(ReadSnapshotFileInfo(path).ok());
}

TEST(SnapshotTest, LoadGraphAutoReportsGeneration) {
  Graph g = TrickyGraph();
  const std::string dir = testing::TempDir();
  const std::string snap_path = dir + "/rtr_snapshot_gen.rtrsnap";
  const std::string text_path = dir + "/rtr_snapshot_gen.txt";
  ASSERT_TRUE(SaveGraphSnapshotToFile(g, snap_path, 5).ok());
  ASSERT_TRUE(SaveGraphToFile(g, text_path).ok());
  uint64_t generation = 99;
  ASSERT_TRUE(LoadGraphAuto(snap_path, &generation).ok());
  EXPECT_EQ(generation, 5u);
  generation = 99;
  ASSERT_TRUE(LoadGraphAuto(text_path, &generation).ok());
  EXPECT_EQ(generation, 0u);  // text graphs carry no generation
}

// ---------------------------------------------------------------------------
// Seeded mutation sweep over the decoder. Every mutant of a valid v1/v2/v3
// file must map to OK or a typed IoError from both loaders; an accepted
// graph must be safe to traverse end to end.

// Header field offsets (see the layout in graph/snapshot.h).
constexpr size_t kVersionAt = 8;
constexpr size_t kNumTypesAt = 16;
constexpr size_t kChecksumAt = 48;
constexpr size_t kHeaderSize = 64;

// Recomputes the payload checksum, so a payload mutant gets past the
// integrity pass and reaches the structural validation behind it.
void Reseal(std::string* bytes) {
  WriteWord(bytes, kChecksumAt,
            Fnv1a64Words(std::string_view(*bytes).substr(kHeaderSize)));
}

// The four consecutive count words are num_types, num_nodes, num_arcs and
// type_block_bytes.
const MutationFormat kSnapshotFormat = {
    .header_bytes = kHeaderSize,
    .count_offsets = {kNumTypesAt, kNumTypesAt + 8, kNumTypesAt + 16,
                      kNumTypesAt + 24},
    .reseal = Reseal,
};

void SetVersion(std::string* bytes, uint32_t version) {
  std::memcpy(bytes->data() + kVersionAt, &version, sizeof(version));
}

void AppendF32Section(std::string* bytes, std::span<const double> probs) {
  for (double p : probs) {
    const float f = static_cast<float>(p);
    bytes->append(reinterpret_cast<const char*>(&f), sizeof(f));
  }
  bytes->append((8 - bytes->size() % 8) % 8, '\0');
}

// The three on-disk versions of one graph: v1 (generation word zero), v2
// at a nonzero generation, and v3 (v2 plus the two legacy f32 prob
// sections under the checksum).
std::vector<std::string> AllVersions(const Graph& g) {
  std::string v1 = Snapshot(g);
  SetVersion(&v1, 1);
  std::ostringstream out;
  EXPECT_TRUE(SaveGraphSnapshot(g, out, 9).ok());
  const std::string v2 = out.str();
  std::string v3 = v2;
  SetVersion(&v3, 3);
  AppendF32Section(&v3, g.out_probs());
  AppendF32Section(&v3, g.in_probs());
  Reseal(&v3);
  return {v1, v2, v3};
}

// Reads every element of every span an algorithm may touch; under ASan an
// out-of-bounds offset, endpoint or type id fails here.
void TraverseEverySpan(const Graph& g) {
  double sink = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LT(g.node_type(v), g.type_names().size());
    sink += static_cast<double>(g.type_name(g.node_type(v)).size());
    sink += g.out_weight(v);
    for (NodeId t : g.out_targets(v)) ASSERT_LT(t, g.num_nodes());
    for (NodeId s : g.in_sources(v)) ASSERT_LT(s, g.num_nodes());
    for (double p : g.out_probs(v)) sink += p;
    for (double w : g.out_arc_weights(v)) sink += w;
    for (double p : g.in_probs(v)) sink += p;
    for (double w : g.in_arc_weights(v)) sink += w;
    const NodeId next = g.SampleOutNeighbor(v, 0.5);
    ASSERT_TRUE(next == kInvalidNode || next < g.num_nodes());
  }
  volatile double keep = sink;
  (void)keep;
}

// Column-for-column byte equality; unlike ExpectGraphsIdentical it holds
// for NaN payloads a resealed mutant may carry.
void ExpectSameBytes(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.type_names(), b.type_names());
  ExpectColumnsEq(a.node_types(), b.node_types());
  ExpectColumnsEq(a.out_offsets(), b.out_offsets());
  ExpectColumnsEq(a.out_targets(), b.out_targets());
  ExpectColumnsEq(a.out_arc_weights(), b.out_arc_weights());
  ExpectColumnsEq(a.out_probs(), b.out_probs());
  ExpectColumnsEq(a.out_weights(), b.out_weights());
  ExpectColumnsEq(a.in_offsets(), b.in_offsets());
  ExpectColumnsEq(a.in_sources(), b.in_sources());
  ExpectColumnsEq(a.in_arc_weights(), b.in_arc_weights());
  ExpectColumnsEq(a.in_probs(), b.in_probs());
}

// Mapped loads skip the checksum, so only the decoder guards the pad bytes
// there: a nonzero one must fail both loaders, even resealed.
TEST(SnapshotTest, NonzeroTypeNamePaddingRejectedByBothLoaders) {
  const Graph g = TrickyGraph();
  size_t names_bytes = 0;
  for (const std::string& name : g.type_names()) {
    names_bytes += sizeof(uint32_t) + name.size();
  }
  std::string bytes = Snapshot(g);
  ASSERT_LT(names_bytes, ReadWord(bytes, kNumTypesAt + 24));  // has padding
  bytes[kHeaderSize + names_bytes] = 1;
  Reseal(&bytes);

  const std::string path = testing::TempDir() + "/rtr_snapshot_pad.rtrsnap";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  for (const StatusOr<Graph>& result : {Load(bytes), LoadGraphMapped(path)}) {
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST(SnapshotTest, SeededMutantsGiveOkOrIoErrorFromBothLoaders) {
  const std::string path =
      testing::TempDir() + "/rtr_snapshot_mutant.rtrsnap";
  Rng rng(20130408);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const Graph& g : {TrickyGraph(), RandomGraph(3), RandomGraph(4, 17)}) {
    for (const std::string& original : AllVersions(g)) {
      ASSERT_TRUE(Load(original).ok());  // each unmutated version loads
      for (int i = 0; i < 160; ++i) {
        const Mutant mutant = Mutate(original, kSnapshotFormat, rng);
        const std::string& bytes = mutant.bytes;
        SCOPED_TRACE("mutation " +
                     std::to_string(static_cast<int>(mutant.kind)) +
                     (mutant.sealed ? " (resealed)" : "") + ", version " +
                     std::to_string(ReadWord(original, kVersionAt, 4)) +
                     ", iteration " + std::to_string(i));

        std::istringstream in(bytes);
        StatusOr<Graph> bulk = LoadGraphSnapshot(in);
        {
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        StatusOr<Graph> mapped = LoadGraphMapped(path);

        for (const StatusOr<Graph>* result : {&bulk, &mapped}) {
          if (result->ok()) {
            TraverseEverySpan(**result);
          } else {
            EXPECT_EQ(result->status().code(), StatusCode::kIoError)
                << result->status().ToString();
          }
        }
        if (mutant.kind == Mutation::kTruncate) {
          EXPECT_FALSE(bulk.ok());
          EXPECT_FALSE(mapped.ok());
        }
        if (bulk.ok()) {
          // The mapped loader runs the same structural checks, skipping
          // only the checksum, so it accepts whatever the bulk loader does
          // and exposes the same columns.
          ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
          ExpectSameBytes(*bulk, *mapped);
          // Without a resealed checksum, only the header-only generation
          // word can change and still load.
          if (!mutant.sealed) ExpectGraphsIdentical(g, *bulk);
          ++accepted;
        } else {
          ++rejected;
        }
      }
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rtr
