// Incremental delta application (graph/delta.h): the bit-identity contract
// against from-scratch GraphBuilder rebuilds, edge-case semantics
// (remove-then-readd, parallel inserts, appended nodes/types), structural
// diffing, malformed-delta rejection, and the on-disk delta format's
// corruption handling.
#include "graph/delta.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "graph/builder.h"
#include "util/bytes.h"
#include "util/mutation_testing.h"
#include "util/random.h"

namespace rtr {
namespace {

// Base generation with the usual structural wrinkles: two named types,
// a dangling node, a parallel edge that merged at build time, a self-loop.
Graph BaseGraph() {
  GraphBuilder b;
  NodeTypeId paper = b.AddNodeType("paper");
  NodeTypeId author = b.AddNodeType("author");
  b.AddNode(paper);           // 0
  b.AddNode(author);          // 1
  b.AddNode(paper);           // 2: dangling
  b.AddNode(kUntypedNode);    // 3
  b.AddNode(author);          // 4
  b.AddDirectedEdge(0, 1, 1.25);
  b.AddDirectedEdge(0, 1, 0.75);  // parallel: merges to 2.0
  b.AddDirectedEdge(0, 2, 3.0);
  b.AddDirectedEdge(1, 3, 0.5);
  b.AddDirectedEdge(3, 3, 1.0);   // self-loop
  b.AddDirectedEdge(4, 0, 7.0);
  return b.Build().value();
}

struct Edge {
  NodeId source;
  NodeId target;
  double weight;
};

// From-scratch reference build: the graph ApplyDelta must match bitwise.
Graph BuildReference(const std::vector<std::string>& extra_types,
                     const std::vector<NodeTypeId>& node_types,
                     const std::vector<Edge>& edges) {
  GraphBuilder b;
  for (const std::string& name : extra_types) b.AddNodeType(name);
  for (NodeTypeId t : node_types) b.AddNode(t);
  for (const Edge& e : edges) b.AddDirectedEdge(e.source, e.target, e.weight);
  return b.Build().value();
}

template <typename T>
void ExpectColumnsEq(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // The contract is bit-identity, not approximate equality.
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

// The base graph's edges in GraphBuilder staging order, for composing
// from-scratch references that extend it.
std::vector<Edge> BaseEdges() {
  return {{0, 1, 1.25}, {0, 1, 0.75}, {0, 2, 3.0},
          {1, 3, 0.5},  {3, 3, 1.0},  {4, 0, 7.0}};
}
std::vector<NodeTypeId> BaseNodeTypes() { return {1, 2, 1, 0, 2}; }

// ---------------------------------------------------------------------------
// Semantics against from-scratch rebuilds.

TEST(DeltaTest, EmptyDeltaReproducesBaseBitIdentically) {
  Graph base = BaseGraph();
  GraphDelta delta;
  EXPECT_TRUE(delta.Empty());
  StatusOr<Graph> next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectGraphsIdentical(base, *next);
}

TEST(DeltaTest, InsertArcsMatchesFromScratchRebuild) {
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.added_arcs = {{2, 4, 1.5}, {0, 3, 0.25}};
  StatusOr<Graph> next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();

  std::vector<Edge> edges = BaseEdges();
  edges.push_back({2, 4, 1.5});
  edges.push_back({0, 3, 0.25});
  Graph reference =
      BuildReference({"paper", "author"}, BaseNodeTypes(), edges);
  ExpectGraphsIdentical(reference, *next);
}

TEST(DeltaTest, InsertOnExistingArcSumsWeights) {
  // GraphBuilder's parallel-arc merge semantics: inserting over an arc adds
  // to its weight, bit-identically to staging the extra parallel edge in a
  // from-scratch build.
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.added_arcs = {{0, 2, 0.125}};
  Graph next = ApplyDelta(base, delta).value();

  std::vector<Edge> edges = BaseEdges();
  edges.push_back({0, 2, 0.125});
  Graph reference =
      BuildReference({"paper", "author"}, BaseNodeTypes(), edges);
  ExpectGraphsIdentical(reference, next);
  EXPECT_EQ(next.num_arcs(), base.num_arcs());  // merged, not appended
}

TEST(DeltaTest, RemoveArcRenormalizesTouchedRow) {
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.removed_arcs = {{0, 2}};
  Graph next = ApplyDelta(base, delta).value();

  std::vector<Edge> edges = {{0, 1, 1.25}, {0, 1, 0.75}, {1, 3, 0.5},
                             {3, 3, 1.0},  {4, 0, 7.0}};
  Graph reference =
      BuildReference({"paper", "author"}, BaseNodeTypes(), edges);
  ExpectGraphsIdentical(reference, next);
  EXPECT_EQ(next.TransitionProb(0, 1), 1.0);  // row renormalized
}

TEST(DeltaTest, RemoveThenReaddReplacesWeight) {
  // Removals apply before inserts, so remove+insert on one arc REPLACES the
  // weight instead of accumulating into it.
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.removed_arcs = {{0, 1}};
  delta.added_arcs = {{0, 1, 9.0}};
  Graph next = ApplyDelta(base, delta).value();

  std::vector<Edge> edges = {{0, 1, 9.0}, {0, 2, 3.0}, {1, 3, 0.5},
                             {3, 3, 1.0}, {4, 0, 7.0}};
  Graph reference =
      BuildReference({"paper", "author"}, BaseNodeTypes(), edges);
  ExpectGraphsIdentical(reference, next);
  EXPECT_EQ(next.num_arcs(), base.num_arcs());
}

TEST(DeltaTest, AppendsNodesAndTypes) {
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.added_type_names = {"venue"};
  delta.added_node_types = {3, 1};  // a venue (new type) and a paper
  delta.added_arcs = {{5, 0, 1.0}, {6, 5, 2.0}, {1, 6, 0.5}};
  Graph next = ApplyDelta(base, delta).value();

  ASSERT_EQ(next.num_nodes(), 7u);
  EXPECT_EQ(next.type_name(next.node_type(5)), "venue");
  EXPECT_EQ(next.type_name(next.node_type(6)), "paper");

  std::vector<NodeTypeId> node_types = BaseNodeTypes();
  node_types.push_back(3);
  node_types.push_back(1);
  std::vector<Edge> edges = BaseEdges();
  edges.push_back({5, 0, 1.0});
  edges.push_back({6, 5, 2.0});
  edges.push_back({1, 6, 0.5});
  Graph reference =
      BuildReference({"paper", "author", "venue"}, node_types, edges);
  ExpectGraphsIdentical(reference, next);
}

// The acceptance property behind the whole subsystem: a chain of random
// deltas produces, at every generation, columns AND rankings bit-identical
// to a from-scratch rebuild of the same logical graph.
TEST(DeltaTest, RandomDeltaChainsStayBitIdenticalToRebuilds) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const size_t n0 = 30;
    std::vector<NodeTypeId> node_types;
    std::vector<Edge> edges;
    for (size_t i = 0; i < n0; ++i) {
      node_types.push_back(rng.NextBernoulli(0.5) ? 1 : 0);
    }
    for (size_t e = 0; e < 3 * n0; ++e) {
      edges.push_back({static_cast<NodeId>(rng.NextUint64(n0)),
                       static_cast<NodeId>(rng.NextUint64(n0)),
                       0.1 + rng.NextDouble()});
    }
    Graph current = BuildReference({"x"}, node_types, edges);

    for (int step = 0; step < 4; ++step) {
      // Grow: a couple of nodes plus a batch of arcs over the new range.
      GraphDelta delta;
      size_t n = current.num_nodes();
      for (int a = 0; a < 2; ++a) {
        NodeTypeId t = rng.NextBernoulli(0.5) ? 1 : 0;
        delta.added_node_types.push_back(t);
        node_types.push_back(t);
      }
      n += 2;
      for (int e = 0; e < 12; ++e) {
        Edge edge{static_cast<NodeId>(rng.NextUint64(n)),
                  static_cast<NodeId>(rng.NextUint64(n)),
                  0.1 + rng.NextDouble()};
        delta.added_arcs.push_back({edge.source, edge.target, edge.weight});
        edges.push_back(edge);
      }
      Graph next = ApplyDelta(current, delta).value();
      Graph rebuilt = BuildReference({"x"}, node_types, edges);
      ExpectGraphsIdentical(rebuilt, next);

      // Rankings on the incremental build equal the rebuild's exactly.
      NodeId q = 0;
      while (next.out_degree(q) == 0) ++q;
      std::vector<double> inc = core::ExactRoundTripRankScores(next, {q});
      std::vector<double> ref = core::ExactRoundTripRankScores(rebuilt, {q});
      ASSERT_EQ(inc.size(), ref.size());
      for (size_t v = 0; v < inc.size(); ++v) {
        ASSERT_EQ(inc[v], ref[v]) << "seed " << seed << " step " << step
                                  << " node " << v;
      }
      current = std::move(next);
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed deltas: all-or-nothing rejection with InvalidArgument.

TEST(DeltaTest, DanglingInsertEndpointRejected) {
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.added_arcs = {{0, 99, 1.0}};  // target beyond the post-append range
  StatusOr<Graph> next = ApplyDelta(base, delta);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);

  delta.added_arcs = {{99, 0, 1.0}};  // dangling source
  EXPECT_EQ(ApplyDelta(base, delta).status().code(),
            StatusCode::kInvalidArgument);

  // ...but an endpoint in the appended range is fine.
  delta.added_node_types = {0};
  delta.added_arcs = {{0, 5, 1.0}};
  EXPECT_TRUE(ApplyDelta(base, delta).ok());
}

TEST(DeltaTest, RemovingAbsentArcRejected) {
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.removed_arcs = {{1, 0}};  // base has 1->3, not 1->0
  StatusOr<Graph> next = ApplyDelta(base, delta);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaTest, DuplicateRemovalRejected) {
  Graph base = BaseGraph();
  GraphDelta delta;
  delta.removed_arcs = {{0, 2}, {0, 2}};
  StatusOr<Graph> next = ApplyDelta(base, delta);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaTest, NonPositiveInsertWeightRejected) {
  Graph base = BaseGraph();
  for (double w : {0.0, -1.0}) {
    GraphDelta delta;
    delta.added_arcs = {{0, 3, w}};
    StatusOr<Graph> next = ApplyDelta(base, delta);
    ASSERT_FALSE(next.ok()) << "weight " << w;
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DeltaTest, AddedNodeTypeOutOfRangeRejected) {
  Graph base = BaseGraph();  // 3 types; one added below makes 4 (ids 0..3)
  GraphDelta delta;
  delta.added_type_names = {"venue"};
  delta.added_node_types = {4};
  StatusOr<Graph> next = ApplyDelta(base, delta);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// DiffGraphs: structural diff of append-only evolution.

TEST(DeltaTest, DiffThenApplyReproducesNextBitIdentically) {
  Graph base = BaseGraph();
  std::vector<NodeTypeId> node_types = BaseNodeTypes();
  node_types.push_back(2);
  std::vector<Edge> edges = BaseEdges();
  edges.push_back({5, 1, 4.0});
  edges.push_back({2, 5, 0.5});
  Graph next = BuildReference({"paper", "author"}, node_types, edges);

  StatusOr<GraphDelta> delta = DiffGraphs(base, next);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->added_node_types.size(), 1u);
  EXPECT_TRUE(delta->added_type_names.empty());
  Graph applied = ApplyDelta(base, *delta).value();
  ExpectGraphsIdentical(next, applied);
}

TEST(DeltaTest, DiffSurfacesWeightChangeAsRemovePlusInsert) {
  Graph base = BaseGraph();
  std::vector<Edge> edges = BaseEdges();
  edges.push_back({4, 0, 1.0});  // parallel: 4->0 becomes 8.0 in next
  Graph next = BuildReference({"paper", "author"}, BaseNodeTypes(), edges);

  GraphDelta delta = DiffGraphs(base, next).value();
  ASSERT_EQ(delta.removed_arcs.size(), 1u);
  EXPECT_EQ(delta.removed_arcs[0], (ArcRemove{4, 0}));
  ASSERT_EQ(delta.added_arcs.size(), 1u);
  EXPECT_EQ(delta.added_arcs[0].weight, 8.0);
  ExpectGraphsIdentical(next, ApplyDelta(base, delta).value());
}

TEST(DeltaTest, DiffRejectsNonAppendOnlyEvolution) {
  Graph base = BaseGraph();
  // Fewer nodes than base: nodes are never deleted.
  Graph shrunk = BuildReference({"paper", "author"}, {1, 2}, {{0, 1, 1.0}});
  EXPECT_EQ(DiffGraphs(base, shrunk).status().code(),
            StatusCode::kInvalidArgument);
  // Same size but a node changed type.
  std::vector<NodeTypeId> retyped = BaseNodeTypes();
  retyped[0] = 2;
  Graph changed = BuildReference({"paper", "author"}, retyped, BaseEdges());
  EXPECT_EQ(DiffGraphs(base, changed).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// On-disk delta files: round-trip and corruption handling.

GraphDelta SampleDelta() {
  GraphDelta delta;
  delta.base_generation = 3;
  delta.added_type_names = {"venue", "term"};
  delta.added_node_types = {3, 4, 1};
  delta.removed_arcs = {{0, 2}};
  delta.added_arcs = {{5, 0, 1.5}, {6, 7, 0.25}};
  return delta;
}

void ExpectDeltasEqual(const GraphDelta& a, const GraphDelta& b) {
  EXPECT_EQ(a.base_generation, b.base_generation);
  EXPECT_EQ(a.added_type_names, b.added_type_names);
  EXPECT_EQ(a.added_node_types, b.added_node_types);
  EXPECT_EQ(a.removed_arcs, b.removed_arcs);
  ASSERT_EQ(a.added_arcs.size(), b.added_arcs.size());
  for (size_t i = 0; i < a.added_arcs.size(); ++i) {
    EXPECT_EQ(a.added_arcs[i].source, b.added_arcs[i].source);
    EXPECT_EQ(a.added_arcs[i].target, b.added_arcs[i].target);
    // Bit-exact weights, so re-application stays deterministic.
    EXPECT_EQ(std::memcmp(&a.added_arcs[i].weight, &b.added_arcs[i].weight,
                          sizeof(double)),
              0);
  }
}

std::string DeltaBytes(const GraphDelta& delta) {
  std::ostringstream out;
  EXPECT_TRUE(SaveGraphDelta(delta, out).ok());
  return out.str();
}

StatusOr<GraphDelta> LoadDeltaBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadGraphDelta(in);
}

TEST(DeltaFileTest, RoundTripPreservesEveryField) {
  GraphDelta delta = SampleDelta();
  StatusOr<GraphDelta> loaded = LoadDeltaBytes(DeltaBytes(delta));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDeltasEqual(delta, *loaded);

  // Empty deltas round-trip too (a quiet ingestion tick).
  StatusOr<GraphDelta> empty = LoadDeltaBytes(DeltaBytes(GraphDelta{}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->Empty());
}

TEST(DeltaFileTest, FileRoundTripAndKindDetection) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/rtr_delta_test.rtrdelta";
  GraphDelta delta = SampleDelta();
  ASSERT_TRUE(SaveGraphDeltaToFile(delta, path).ok());
  StatusOr<GraphDelta> loaded = LoadGraphDeltaFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDeltasEqual(delta, *loaded);

  EXPECT_TRUE(IsDeltaFile(path).value());
  EXPECT_FALSE(IsDeltaFile("/nonexistent/x.rtrdelta").ok());
  const std::string not_delta = dir + "/rtr_delta_test.txt";
  std::ofstream(not_delta) << "rtr-graph 1\n";
  EXPECT_FALSE(IsDeltaFile(not_delta).value());
}

TEST(DeltaFileTest, ReadDeltaFileInfoReportsHeader) {
  const std::string path = testing::TempDir() + "/rtr_delta_info.rtrdelta";
  ASSERT_TRUE(SaveGraphDeltaToFile(SampleDelta(), path).ok());
  StatusOr<DeltaFileInfo> info = ReadDeltaFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kDeltaVersion);
  EXPECT_EQ(info->base_generation, 3u);
  EXPECT_EQ(info->num_added_types, 2u);
  EXPECT_EQ(info->num_added_nodes, 3u);
  EXPECT_EQ(info->num_removed_arcs, 1u);
  EXPECT_EQ(info->num_added_arcs, 2u);
  EXPECT_FALSE(ReadDeltaFileInfo("/nonexistent/x.rtrdelta").ok());
}

TEST(DeltaFileTest, TruncationRejectedAtEveryLength) {
  const std::string bytes = DeltaBytes(SampleDelta());
  for (size_t keep : {size_t{0}, size_t{7}, size_t{63}, size_t{64},
                      bytes.size() / 2, bytes.size() - 8, bytes.size() - 1}) {
    StatusOr<GraphDelta> loaded = LoadDeltaBytes(bytes.substr(0, keep));
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

TEST(DeltaFileTest, CorruptHeaderAndPayloadRejected) {
  {
    std::string bytes = DeltaBytes(SampleDelta());
    bytes[0] = 'X';  // magic
    EXPECT_FALSE(LoadDeltaBytes(bytes).ok());
  }
  {
    std::string bytes = DeltaBytes(SampleDelta());
    bytes[8] = 99;  // version
    EXPECT_FALSE(LoadDeltaBytes(bytes).ok());
  }
  {
    std::string bytes = DeltaBytes(SampleDelta());
    bytes[bytes.size() - 2] ^= 0x10;  // payload bit flip -> checksum
    StatusOr<GraphDelta> loaded = LoadDeltaBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  {
    std::string bytes = DeltaBytes(SampleDelta()) + "12345678";
    StatusOr<GraphDelta> loaded = LoadDeltaBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

TEST(DeltaFileTest, LyingOpCountRejected) {
  // Inflate the added-arc count: the size checks must fire before any
  // allocation trusts it.
  std::string bytes = DeltaBytes(SampleDelta());
  uint64_t huge = uint64_t{1} << 40;
  std::memcpy(&bytes[48], &huge, sizeof(huge));  // num_added_arcs field
  StatusOr<GraphDelta> loaded = LoadDeltaBytes(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Seeded mutation sweep over the delta decoder. Every mutant of a valid
// delta file must map to OK or a typed IoError; an accepted delta must
// apply cleanly or be refused with InvalidArgument, and must be the
// original delta unless its checksum was rewritten.

// Header field offsets (see the layout in graph/delta.h). The four u64
// counts (types, nodes, removed arcs, added arcs) are consecutive.
constexpr size_t kDeltaCountsAt = 24;
constexpr size_t kDeltaChecksumAt = 56;
constexpr size_t kDeltaHeaderSize = 64;

// Recomputes the checksum over the header fields before it and then the
// payload, so a mutant reaches the decoding and application checks behind
// it.
void Reseal(std::string* bytes) {
  const std::string_view all(*bytes);
  WriteWord(bytes, kDeltaChecksumAt,
            Fnv1a64Words(all.substr(kDeltaHeaderSize),
                         Fnv1a64Words(all.substr(0, kDeltaChecksumAt))));
}

const MutationFormat kDeltaFormat = {
    .header_bytes = kDeltaHeaderSize,
    .count_offsets = {kDeltaCountsAt, kDeltaCountsAt + 8, kDeltaCountsAt + 16,
                      kDeltaCountsAt + 24},
    .small_value_bound = 16,
    .reseal = Reseal,
};

TEST(DeltaFileTest, SeededMutantsGiveOkOrIoError) {
  const Graph base = BaseGraph();
  GraphDelta grow;  // appended nodes with arcs only, no new types
  grow.added_node_types = {2, 0};
  grow.added_arcs = {{5, 6, 0.5}, {6, 1, 2.0}, {2, 5, 1.0}, {3, 3, 0.25}};
  Rng rng(20130408);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const GraphDelta& delta : {SampleDelta(), grow, GraphDelta{}}) {
    const std::string original = DeltaBytes(delta);
    ASSERT_TRUE(ApplyDelta(base, delta).ok());  // each corpus delta applies
    for (int i = 0; i < 300; ++i) {
      const Mutant mutant = Mutate(original, kDeltaFormat, rng);
      SCOPED_TRACE("mutation " +
                   std::to_string(static_cast<int>(mutant.kind)) +
                   (mutant.sealed ? " (resealed)" : "") + ", iteration " +
                   std::to_string(i));

      StatusOr<GraphDelta> loaded = LoadDeltaBytes(mutant.bytes);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
            << loaded.status().ToString();
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_NE(mutant.kind, Mutation::kTruncate);
      if (!mutant.sealed) {
        // The checksum covers the header and the payload, so an unsealed
        // mutant that loads is the original delta, field for field.
        ExpectDeltasEqual(delta, *loaded);
        EXPECT_EQ(DeltaBytes(*loaded), original);
      }
      StatusOr<Graph> next = ApplyDelta(base, *loaded);
      if (!next.ok()) {
        EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument)
            << next.status().ToString();
      }
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rtr
