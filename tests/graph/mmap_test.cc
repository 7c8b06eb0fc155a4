// Zero-copy mapped snapshot loading: bit-identity against the bulk loader,
// the two MapMode values, bulk-read fallback (with its counter), the
// RTR_MMAP_VERIFY checksum pass, column sharing between copies of every
// Graph origin, and the copy-on-write contract of delta application on a
// mapped base generation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/graph_testing.h"
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

std::string WriteSnapshot(const Graph& g, const std::string& name,
                          uint64_t generation = 0) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveGraphSnapshotToFile(g, path, generation).ok());
  return path;
}

// rtr_store_mmap_fallbacks as the process-wide exposition renders it; 0
// before the first fallback registers the series.
uint64_t FallbackCount() {
  const std::string text = obs::MetricsRegistry::Default().RenderText();
  const std::string line = "\nrtr_store_mmap_fallbacks ";
  const size_t at = text.find(line);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + line.size(), nullptr, 10);
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
        core::FreshTopK(owning, {q}, params);
    StatusOr<core::TopKResult> b =
        core::FreshTopK(*mapped, {q}, params);
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

// Mapped loads skip the payload checksum unless RTR_MMAP_VERIFY is set: a
// flipped byte in a weight column passes the structural checks, so only
// the checksum pass can catch it.
TEST(MmapTest, VerifyEnvChecksumsMappedLoads) {
  const Graph g = TrickyGraph();
  const std::string path = WriteSnapshot(g, "mmap_verify.rtrsnap");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // in_arc_weights (num_arcs x f64) sits just before in_probs, the last
  // section; flip a mantissa byte of its last entry, not resealed.
  const size_t in_probs_bytes = g.num_arcs() * sizeof(double);
  ASSERT_GT(bytes.size(), in_probs_bytes + 3);
  bytes[bytes.size() - in_probs_bytes - 3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  StatusOr<Graph> bulk = LoadGraphSnapshotFromFile(path);
  ASSERT_FALSE(bulk.ok());
  EXPECT_EQ(bulk.status().code(), StatusCode::kIoError);

  // The test owns the variable for its duration; restore the inherited
  // value at the end.
  const char* inherited = ::getenv("RTR_MMAP_VERIFY");
  const std::string saved = inherited != nullptr ? inherited : "";
  ::unsetenv("RTR_MMAP_VERIFY");
  StatusOr<Graph> unverified = LoadGraphMapped(path);
  ::setenv("RTR_MMAP_VERIFY", "1", /*overwrite=*/1);
  StatusOr<Graph> verified = LoadGraphMapped(path);
  if (inherited != nullptr) {
    ::setenv("RTR_MMAP_VERIFY", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("RTR_MMAP_VERIFY");
  }

  ASSERT_TRUE(unverified.ok()) << unverified.status().ToString();
  EXPECT_TRUE(unverified->is_mapped());
  EXPECT_NE(unverified->in_arc_weights().back(),
            g.in_arc_weights().back());
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kIoError);
}

TEST(MmapTest, MappedLoadRejectsTextGraphs) {
  const std::string path = testing::TempDir() + "/mmap_not_snap.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a snapshot\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadGraphMapped(path).ok());
}

TEST(MmapTest, CopyOfMappedGraphSharesTheMapping) {
  const std::string path = WriteSnapshot(TrickyGraph(), "mmap_copy.rtrsnap");
  StatusOr<Graph> mapped = LoadGraphMapped(path);
  ASSERT_TRUE(mapped.ok());
  Graph copy = *mapped;  // mapped columns stay mapped
  EXPECT_TRUE(copy.is_mapped());
  ExpectGraphsIdentical(*mapped, copy);
  // The copy keeps the mapping alive on its own.
  *mapped = Graph();
  ExpectGraphsIdentical(TrickyGraph(), copy);
}

// Same bytes, not equal bytes: every column of `b` is the column of `a`.
void ExpectSameColumns(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.node_types().data(), b.node_types().data());
  EXPECT_EQ(a.out_offsets().data(), b.out_offsets().data());
  EXPECT_EQ(a.out_targets().data(), b.out_targets().data());
  EXPECT_EQ(a.out_arc_weights().data(), b.out_arc_weights().data());
  EXPECT_EQ(a.out_probs().data(), b.out_probs().data());
  EXPECT_EQ(a.out_weights().data(), b.out_weights().data());
  EXPECT_EQ(a.in_offsets().data(), b.in_offsets().data());
  EXPECT_EQ(a.in_sources().data(), b.in_sources().data());
  EXPECT_EQ(a.in_arc_weights().data(), b.in_arc_weights().data());
  EXPECT_EQ(a.in_probs().data(), b.in_probs().data());
}

// One storage model for every origin of a Graph: a copy shares the
// original's immutable columns in O(1), keeps them alive on its own once
// the original is gone, and carries is_mapped() over.
TEST(MmapTest, CopiesShareTheColumnsOfEveryOrigin) {
  const std::string path = WriteSnapshot(TrickyGraph(), "mmap_origins.rtrsnap");
  GraphDelta delta;
  delta.added_node_types = {kUntypedNode};
  delta.removed_arcs.push_back({4, 2});
  delta.added_arcs.push_back({6, 0, 1.5});
  delta.added_arcs.push_back({2, 6, 0.25});

  const struct {
    const char* name;
    bool mapped;
    std::function<StatusOr<Graph>()> make;
  } origins[] = {
      {"GraphBuilder::Build", false, [] { return TrickyGraph(); }},
      {"bulk load", false, [&] { return LoadGraphSnapshotFromFile(path); }},
      {"mapped load", true, [&] { return LoadGraphMapped(path); }},
      {"ApplyDelta", false, [&] { return ApplyDelta(TrickyGraph(), delta); }},
  };
  for (const auto& origin : origins) {
    SCOPED_TRACE(origin.name);
    StatusOr<Graph> original = origin.make();
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    EXPECT_EQ(original->is_mapped(), origin.mapped);

    const Graph copy = *original;
    EXPECT_EQ(copy.is_mapped(), origin.mapped);
    ExpectSameColumns(*original, copy);

    // Dropping the original leaves the copy the only owner of the bytes
    // (the ASan job catches a dangling keep-alive).
    *original = Graph();
    StatusOr<Graph> fresh = origin.make();
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ExpectGraphsIdentical(*fresh, copy);
  }
}

// Copy-on-write: applying a delta to a mapped base generation must build
// the next generation in owning storage, leave the mapped base untouched,
// and match a from-scratch rebuild byte for byte.
TEST(MmapTest, StoreApplyOnMappedBaseCopiesOnWrite) {
  const Graph base = RandomGraph(21, 100);
  const std::string path =
      WriteSnapshot(base, "mmap_cow.rtrsnap", /*generation=*/7);

  StatusOr<std::unique_ptr<GraphStore>> store =
      GraphStore::Open(path, MapMode::kPrefer);
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
