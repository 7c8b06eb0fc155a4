// Zero-copy mapped snapshot loading: bit-identity against the owning
// loader, MapMode resolution, bulk-read fallback (with its counter),
// read-and-skip of legacy v3 files, and the copy-on-write contract of delta
// application on a mapped base generation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/store.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace rtr {
namespace {

// Structural wrinkles the span accessors must survive: multiple node
// types, dangling nodes (empty per-node spans), parallel edges (merged by
// the builder), and a self-loop.
Graph TrickyGraph() {
  GraphBuilder b;
  NodeTypeId paper = b.AddNodeType("paper");
  NodeTypeId author = b.AddNodeType("author");
  b.AddNode(paper);           // 0
  b.AddNode(author);          // 1
  b.AddNode(paper);           // 2: dangling (no out-arcs)
  b.AddNode(kUntypedNode);    // 3
  b.AddNode(author);          // 4
  b.AddNode(paper);           // 5: fully isolated
  b.AddDirectedEdge(0, 1, 1.25);
  b.AddDirectedEdge(0, 1, 0.75);  // parallel: merges to 2.0
  b.AddDirectedEdge(0, 2, 3.0);
  b.AddUndirectedEdge(1, 3, 0.5);
  b.AddDirectedEdge(3, 3, 1.0);   // self-loop
  b.AddDirectedEdge(4, 0, 7.0);
  b.AddDirectedEdge(4, 2, 0.125);
  return b.Build().value();
}

Graph RandomGraph(uint64_t seed, size_t n = 200) {
  Rng rng(seed);
  GraphBuilder b;
  NodeTypeId t1 = b.AddNodeType("x");
  for (size_t i = 0; i < n; ++i) {
    b.AddNode(rng.NextBernoulli(0.5) ? t1 : kUntypedNode);
  }
  for (size_t e = 0; e < 5 * n; ++e) {
    b.AddDirectedEdge(static_cast<NodeId>(rng.NextUint64(n)),
                      static_cast<NodeId>(rng.NextUint64(n)),
                      0.1 + rng.NextDouble());
  }
  return b.Build().value();
}

template <typename T>
void ExpectColumnsEq(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;
  // Bit-identical, not approximately equal: the mapped loader exposes the
  // file bytes verbatim.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
}

void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_EQ(a.type_names(), b.type_names());
  ExpectColumnsEq(a.node_types(), b.node_types());
  ExpectColumnsEq(a.out_weights(), b.out_weights());
  ExpectColumnsEq(a.out_offsets(), b.out_offsets());
  ExpectColumnsEq(a.out_targets(), b.out_targets());
  ExpectColumnsEq(a.out_arc_weights(), b.out_arc_weights());
  ExpectColumnsEq(a.out_probs(), b.out_probs());
  ExpectColumnsEq(a.in_offsets(), b.in_offsets());
  ExpectColumnsEq(a.in_sources(), b.in_sources());
  ExpectColumnsEq(a.in_arc_weights(), b.in_arc_weights());
  ExpectColumnsEq(a.in_probs(), b.in_probs());
}

std::string WriteSnapshot(const Graph& g, const std::string& name,
                          uint64_t generation = 0) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveGraphSnapshotToFile(g, path, generation).ok());
  return path;
}

uint64_t FallbackCount() {
  return obs::MetricsRegistry::Default()
      .GetCounter("rtr_store_mmap_fallbacks")
      ->value();
}

TEST(MmapTest, MappedLoadIsBitIdenticalToOwningLoad) {
  const Graph g = TrickyGraph();
  const std::string path = WriteSnapshot(g, "mmap_tricky.rtrsnap");

  StatusOr<Graph> owning = LoadGraphSnapshotFromFile(path);
  ASSERT_TRUE(owning.ok()) << owning.status().ToString();
  StatusOr<Graph> mapped = LoadGraphMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  EXPECT_FALSE(owning->is_mapped());
  EXPECT_TRUE(mapped->is_mapped());
  ExpectGraphsIdentical(*owning, *mapped);
  ExpectGraphsIdentical(g, *mapped);
}

TEST(MmapTest, PerNodeSpansMatchOnDanglingAndParallelNodes) {
  const Graph g = TrickyGraph();
  const std::string path = WriteSnapshot(g, "mmap_spans.rtrsnap");
  StatusOr<Graph> mapped = LoadGraphMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ExpectColumnsEq(g.out_targets(v), mapped->out_targets(v));
    ExpectColumnsEq(g.out_arc_weights(v), mapped->out_arc_weights(v));
    ExpectColumnsEq(g.out_probs(v), mapped->out_probs(v));
    ExpectColumnsEq(g.in_sources(v), mapped->in_sources(v));
    ExpectColumnsEq(g.in_arc_weights(v), mapped->in_arc_weights(v));
    ExpectColumnsEq(g.in_probs(v), mapped->in_probs(v));
  }
  // The dangling nodes really are dangling in both.
  EXPECT_TRUE(mapped->out_targets(2).empty());
  EXPECT_TRUE(mapped->out_targets(5).empty());
  EXPECT_TRUE(mapped->in_sources(5).empty());
  // The parallel edge merged to one arc of weight 2.0 in the mapped view.
  ASSERT_EQ(mapped->out_targets(0).size(), 2u);
  EXPECT_EQ(mapped->out_arc_weights(0)[0], 2.0);
}

TEST(MmapTest, GenerationComesFromTheHeader) {
  const std::string path =
      WriteSnapshot(TrickyGraph(), "mmap_gen.rtrsnap", /*generation=*/41);
  uint64_t generation = 0;
  StatusOr<Graph> mapped = LoadGraphMapped(path, &generation);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(generation, 41u);
}

TEST(MmapTest, TopKIsExactlyEqualOnMappedGraph) {
  const Graph owning = RandomGraph(77);
  const std::string path = WriteSnapshot(owning, "mmap_topk.rtrsnap");
  StatusOr<Graph> mapped = LoadGraphMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  core::TopKParams params;
  params.k = 10;
  for (NodeId q : {NodeId{0}, NodeId{17}, NodeId{123}}) {
    StatusOr<core::TopKResult> a =
        core::TopKRoundTripRank(owning, {q}, params);
    StatusOr<core::TopKResult> b =
        core::TopKRoundTripRank(*mapped, {q}, params);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->entries.size(), b->entries.size());
    for (size_t i = 0; i < a->entries.size(); ++i) {
      EXPECT_EQ(a->entries[i].node, b->entries[i].node);
      // Same storage bytes + same kernels => the exact same doubles.
      EXPECT_EQ(a->entries[i].lower, b->entries[i].lower);
      EXPECT_EQ(a->entries[i].upper, b->entries[i].upper);
    }
  }
}

TEST(MmapTest, MapModeNeverLoadsOwning) {
  const std::string path = WriteSnapshot(TrickyGraph(), "mmap_never.rtrsnap");
  StatusOr<Graph> g = LoadGraphAuto(path, nullptr, MapMode::kNever);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->is_mapped());
}

TEST(MmapTest, MapModePreferMapsWhenPossible) {
  const std::string path = WriteSnapshot(TrickyGraph(), "mmap_prefer.rtrsnap");
  StatusOr<Graph> g = LoadGraphAuto(path, nullptr, MapMode::kPrefer);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_mapped());
}

TEST(MmapTest, MapModeAutoHonorsEnv) {
  const std::string path = WriteSnapshot(TrickyGraph(), "mmap_env.rtrsnap");
  // The test owns the variable for its duration (the CI matrix also runs
  // the whole suite under RTR_GRAPH_MMAP=1); restore the inherited value
  // at the end.
  const char* inherited = ::getenv("RTR_GRAPH_MMAP");
  const std::string saved = inherited != nullptr ? inherited : "";

  ::unsetenv("RTR_GRAPH_MMAP");
  StatusOr<Graph> off = LoadGraphAuto(path);
  ::setenv("RTR_GRAPH_MMAP", "1", /*overwrite=*/1);
  StatusOr<Graph> on = LoadGraphAuto(path);
  if (inherited != nullptr) {
    ::setenv("RTR_GRAPH_MMAP", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("RTR_GRAPH_MMAP");
  }

  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->is_mapped());
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on->is_mapped());
  ExpectGraphsIdentical(*off, *on);
}

TEST(MmapTest, PreferFallsBackToBulkReadAndCounts) {
  const std::string path =
      WriteSnapshot(TrickyGraph(), "mmap_fallback.rtrsnap");
  const uint64_t before = FallbackCount();
  SetMmapFailForTesting(true);
  StatusOr<Graph> g = LoadGraphAuto(path, nullptr, MapMode::kPrefer);
  SetMmapFailForTesting(false);
  // The load still succeeds -- through the owning loader -- and the
  // fallback is visible in the metrics registry.
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_FALSE(g->is_mapped());
  EXPECT_EQ(FallbackCount(), before + 1);
  ExpectGraphsIdentical(TrickyGraph(), *g);
}

TEST(MmapTest, RequireDoesNotFallBack) {
  const std::string path =
      WriteSnapshot(TrickyGraph(), "mmap_require.rtrsnap");
  SetMmapFailForTesting(true);
  StatusOr<Graph> g = LoadGraphAuto(path, nullptr, MapMode::kRequire);
  SetMmapFailForTesting(false);
  EXPECT_FALSE(g.ok());
}

TEST(MmapTest, MappedLoadRejectsTextGraphs) {
  const std::string path = testing::TempDir() + "/mmap_not_snap.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a snapshot\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadGraphMapped(path).ok());
}

TEST(MmapTest, MaterializeOwningDetachesFromTheMapping) {
  const Graph g = RandomGraph(5, 80);
  const std::string path = WriteSnapshot(g, "mmap_materialize.rtrsnap");
  StatusOr<Graph> mapped = LoadGraphMapped(path);
  ASSERT_TRUE(mapped.ok());
  Graph owned = mapped->MaterializeOwning();
  EXPECT_FALSE(owned.is_mapped());
  ExpectGraphsIdentical(*mapped, owned);
  // The materialized copy survives the mapped original going away.
  *mapped = Graph();
  ExpectGraphsIdentical(g, owned);
}

TEST(MmapTest, CopyOfMappedGraphSharesTheMapping) {
  const std::string path = WriteSnapshot(TrickyGraph(), "mmap_copy.rtrsnap");
  StatusOr<Graph> mapped = LoadGraphMapped(path);
  ASSERT_TRUE(mapped.ok());
  Graph copy = *mapped;  // borrowed columns stay borrowed
  EXPECT_TRUE(copy.is_mapped());
  ExpectGraphsIdentical(*mapped, copy);
  // The copy keeps the mapping alive on its own.
  *mapped = Graph();
  ExpectGraphsIdentical(TrickyGraph(), copy);
}

// TrickyGraph() at generation 3 as written by the v3 writer (before the
// f32 columns were retired): the v2 layout plus two padded f32 prob
// sections, covered by the checksum.
constexpr unsigned char kTrickyV3Snapshot[] = {
    0x72, 0x74, 0x72, 0x2d, 0x73, 0x6e, 0x61, 0x70, 0x03, 0x00, 0x00, 0x00,
    0x40, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x72, 0x7e, 0x42, 0xd2, 0xd3, 0x49, 0x08, 0x78, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x75, 0x6e, 0x74, 0x79,
    0x70, 0x65, 0x64, 0x05, 0x00, 0x00, 0x00, 0x70, 0x61, 0x70, 0x65, 0x72,
    0x06, 0x00, 0x00, 0x00, 0x61, 0x75, 0x74, 0x68, 0x6f, 0x72, 0x00, 0x00,
    0x01, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1c, 0x40, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xc0, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9, 0x3f,
    0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xe3, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xf0, 0x3f, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f,
    0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xe5, 0x3f, 0x04, 0xf7, 0x11, 0xdc,
    0x47, 0x70, 0xef, 0x3f, 0x70, 0x1f, 0xc1, 0x7d, 0x04, 0xf7, 0x91, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x40, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x80, 0x1c, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1c, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
    0x04, 0xf7, 0x11, 0xdc, 0x47, 0x70, 0xef, 0x3f, 0x9a, 0x99, 0x99, 0x99,
    0x99, 0x99, 0xd9, 0x3f, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f,
    0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xe3, 0x3f, 0x70, 0x1f, 0xc1, 0x7d,
    0x04, 0xf7, 0x91, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
    0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xe5, 0x3f, 0xcd, 0xcc, 0xcc, 0x3e,
    0x9a, 0x99, 0x19, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0xab, 0xaa, 0xaa, 0x3e,
    0xab, 0xaa, 0x2a, 0x3f, 0x3f, 0x82, 0x7b, 0x3f, 0x24, 0xb8, 0x8f, 0x3c,
    0x00, 0x00, 0x00, 0x00, 0x3f, 0x82, 0x7b, 0x3f, 0xcd, 0xcc, 0xcc, 0x3e,
    0xab, 0xaa, 0xaa, 0x3e, 0x9a, 0x99, 0x19, 0x3f, 0x24, 0xb8, 0x8f, 0x3c,
    0x00, 0x00, 0x80, 0x3f, 0xab, 0xaa, 0x2a, 0x3f, 0x00, 0x00, 0x00, 0x00};

// A legacy v3 file still loads, through both loaders, to exactly the graph
// its v2 twin loads to: the f32 sections are size-checked and skipped.
TEST(MmapTest, V3SnapshotLoadsLikeItsV2Twin) {
  const std::string v3_path = testing::TempDir() + "/mmap_legacy_v3.rtrsnap";
  {
    std::FILE* f = std::fopen(v3_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(kTrickyV3Snapshot, 1, sizeof(kTrickyV3Snapshot), f),
              sizeof(kTrickyV3Snapshot));
    std::fclose(f);
  }
  StatusOr<SnapshotFileInfo> info = ReadSnapshotFileInfo(v3_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 3u);

  const std::string v2_path =
      WriteSnapshot(TrickyGraph(), "mmap_twin_v2.rtrsnap", /*generation=*/3);
  StatusOr<Graph> v2 = LoadGraphSnapshotFromFile(v2_path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  uint64_t bulk_generation = 0;
  uint64_t mapped_generation = 0;
  StatusOr<Graph> bulk = LoadGraphSnapshotFromFile(v3_path, &bulk_generation);
  ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();
  StatusOr<Graph> mapped = LoadGraphMapped(v3_path, &mapped_generation);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_EQ(bulk_generation, 3u);
  EXPECT_EQ(mapped_generation, 3u);
  ExpectGraphsIdentical(*v2, *bulk);
  ExpectGraphsIdentical(*v2, *mapped);
  EXPECT_EQ(bulk->MemoryBytes(), v2->MemoryBytes());
}

// The copy-on-write regression of the satellite list: applying a delta to
// a mapped base generation must build the next generation in owning
// storage, leave the mapped base untouched, and match a from-scratch
// rebuild byte for byte.
TEST(MmapTest, StoreApplyOnMappedBaseCopiesOnWrite) {
  const Graph base = RandomGraph(21, 100);
  const std::string path =
      WriteSnapshot(base, "mmap_cow.rtrsnap", /*generation=*/7);

  StatusOr<std::unique_ptr<GraphStore>> store =
      GraphStore::Open(path, MapMode::kRequire);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PinnedGraph pinned = (*store)->Pin();
  ASSERT_TRUE(pinned.graph->is_mapped());
  EXPECT_EQ(pinned.generation, 7u);

  GraphDelta delta;
  delta.base_generation = 7;
  delta.added_node_types = {kUntypedNode};
  NodeId with_arc = kInvalidNode;
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    if (!base.out_targets(v).empty()) {
      with_arc = v;
      break;
    }
  }
  ASSERT_NE(with_arc, kInvalidNode);
  delta.removed_arcs.push_back({with_arc, base.out_targets(with_arc)[0]});
  delta.added_arcs.push_back({static_cast<NodeId>(base.num_nodes()), 3, 2.5});
  delta.added_arcs.push_back({5, static_cast<NodeId>(base.num_nodes()), 1.5});

  StatusOr<uint64_t> next = (*store)->Apply(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 8u);

  // The published generation owns its columns; the retired mapped base is
  // intact under the still-held pin.
  std::shared_ptr<const Graph> current = (*store)->Current();
  EXPECT_FALSE(current->is_mapped());
  EXPECT_TRUE(pinned.graph->is_mapped());
  ExpectGraphsIdentical(base, *pinned.graph);

  // The mapped-base application matches the owning-base application.
  Graph owning_base = LoadGraphSnapshotFromFile(path).value();
  StatusOr<Graph> from_scratch = ApplyDelta(owning_base, delta);
  ASSERT_TRUE(from_scratch.ok()) << from_scratch.status().ToString();
  ExpectGraphsIdentical(*from_scratch, *current);
}

}  // namespace
}  // namespace rtr
