#include "core/workspace.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/bca.h"
#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "graph/builder.h"
#include "util/random.h"

namespace rtr::core {
namespace {

Graph RandomGraph(uint64_t seed, size_t n = 60) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (int extra = 0; extra < 60; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

// ---------------------------------------------------------------------------
// StampedFlags
// ---------------------------------------------------------------------------

TEST(StampedFlagsTest, SetAndTestWithinEpoch) {
  StampedFlags flags;
  flags.Reset(8);
  EXPECT_FALSE(flags.Test(3));
  flags.Set(3);
  EXPECT_TRUE(flags.Test(3));
  EXPECT_FALSE(flags.Test(4));
}

TEST(StampedFlagsTest, NewEpochInvalidatesEverything) {
  StampedFlags flags;
  flags.Reset(4);
  flags.Set(0);
  flags.Set(3);
  flags.NewEpoch();
  for (size_t i = 0; i < 4; ++i) EXPECT_FALSE(flags.Test(i));
  flags.Set(1);
  EXPECT_TRUE(flags.Test(1));
}

TEST(StampedFlagsTest, ResizeHardClears) {
  StampedFlags flags;
  flags.Reset(4);
  flags.Set(2);
  flags.Reset(8);  // growth: stamps rebuilt
  for (size_t i = 0; i < 8; ++i) EXPECT_FALSE(flags.Test(i));
}

TEST(StampedFlagsTest, EpochRolloverAtU32Wrap) {
  // A stamp written at the pre-wrap epoch must not read as set after the
  // wrap (stamp 0 / epoch 1 must keep meaning "never set").
  StampedFlags flags;
  flags.Reset(16);
  flags.ForceEpochForTest(0xffffffffu);
  flags.Set(5);
  EXPECT_TRUE(flags.Test(5));
  flags.NewEpoch();  // wraps: epoch must become 1 with all stamps cleared
  EXPECT_EQ(flags.epoch(), 1u);
  for (size_t i = 0; i < 16; ++i) EXPECT_FALSE(flags.Test(i)) << i;
  // Entries stamped with the old epoch value 0xffffffff must stay unset
  // through the next ~4 billion epochs' worth of reuse; spot-check a few.
  flags.Set(7);
  EXPECT_TRUE(flags.Test(7));
  EXPECT_FALSE(flags.Test(5));
  flags.NewEpoch();
  EXPECT_EQ(flags.epoch(), 2u);
  EXPECT_FALSE(flags.Test(7));
}

TEST(StampedFlagsTest, ResetAtWrapBoundaryAlsoClears) {
  StampedFlags flags;
  flags.Reset(4);
  flags.ForceEpochForTest(0xffffffffu);
  flags.Set(1);
  flags.Reset(4);  // same size: takes the NewEpoch path, which wraps
  EXPECT_EQ(flags.epoch(), 1u);
  EXPECT_FALSE(flags.Test(1));
}

// ---------------------------------------------------------------------------
// NodeHeap
// ---------------------------------------------------------------------------

TEST(NodeHeapTest, MaxHeapProperty) {
  NodeHeap heap;
  heap.Reset(64);
  Rng rng(11);
  std::vector<double> prio(64, 0.0);
  for (NodeId v = 0; v < 64; ++v) {
    prio[v] = rng.NextDouble();
    heap.Update(v, prio[v]);
  }
  std::vector<double> popped;
  while (!heap.empty()) {
    EXPECT_DOUBLE_EQ(heap.top_priority(), prio[heap.top()]);
    popped.push_back(heap.top_priority());
    heap.Pop();
  }
  EXPECT_EQ(popped.size(), 64u);
  EXPECT_TRUE(std::is_sorted(popped.rbegin(), popped.rend()));
}

TEST(NodeHeapTest, UpdateReKeysInPlace) {
  NodeHeap heap;
  heap.Reset(8);
  for (NodeId v = 0; v < 8; ++v) heap.Update(v, static_cast<double>(v));
  EXPECT_EQ(heap.size(), 8u);
  EXPECT_EQ(heap.top(), 7u);
  // Increase-key: node 2 overtakes everything; size must not grow
  // (one entry per node, unlike a lazy duplicate-push heap).
  heap.Update(2, 100.0);
  EXPECT_EQ(heap.size(), 8u);
  EXPECT_EQ(heap.top(), 2u);
  EXPECT_DOUBLE_EQ(heap.Priority(2), 100.0);
  // Decrease-key: node 2 drops to the bottom.
  heap.Update(2, -1.0);
  EXPECT_EQ(heap.size(), 8u);
  EXPECT_EQ(heap.top(), 7u);
  EXPECT_DOUBLE_EQ(heap.Priority(2), -1.0);
}

TEST(NodeHeapTest, RemoveArbitraryNode) {
  NodeHeap heap;
  heap.Reset(16);
  for (NodeId v = 0; v < 16; ++v) heap.Update(v, static_cast<double>(v % 7));
  EXPECT_TRUE(heap.Contains(9));
  heap.Remove(9);
  EXPECT_FALSE(heap.Contains(9));
  EXPECT_EQ(heap.size(), 15u);
  heap.Remove(9);  // no-op
  EXPECT_EQ(heap.size(), 15u);
  // Remaining pops stay sorted.
  std::vector<double> popped;
  while (!heap.empty()) {
    popped.push_back(heap.top_priority());
    heap.Pop();
  }
  EXPECT_TRUE(std::is_sorted(popped.rbegin(), popped.rend()));
}

TEST(NodeHeapTest, RandomizedAgainstReference) {
  // Drive Update/Remove/Pop randomly and cross-check the full pop order
  // against a recomputed sort of the surviving (priority, node) pairs.
  NodeHeap heap;
  const size_t n = 128;
  heap.Reset(n);
  Rng rng(23);
  std::vector<double> current(n, -1.0);  // -1 = absent
  for (int op = 0; op < 3000; ++op) {
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    double r = rng.NextDouble();
    if (r < 0.7) {
      double p = rng.NextDouble() * 10.0;
      heap.Update(v, p);
      current[v] = p;
    } else if (r < 0.85) {
      heap.Remove(v);
      current[v] = -1.0;
    } else if (!heap.empty()) {
      current[heap.top()] = -1.0;
      heap.Pop();
    }
  }
  std::vector<double> expected;
  for (NodeId v = 0; v < n; ++v) {
    if (current[v] >= 0.0) expected.push_back(current[v]);
  }
  std::sort(expected.rbegin(), expected.rend());
  std::vector<double> popped;
  while (!heap.empty()) {
    popped.push_back(heap.top_priority());
    heap.Pop();
  }
  ASSERT_EQ(popped.size(), expected.size());
  for (size_t i = 0; i < popped.size(); ++i) {
    EXPECT_DOUBLE_EQ(popped[i], expected[i]) << "pop " << i;
  }
}

TEST(NodeHeapTest, ResetClearsLiveEntries) {
  NodeHeap heap;
  heap.Reset(8);
  heap.Update(3, 1.0);
  heap.Update(5, 2.0);
  heap.Reset(8);  // same size: must still drop the live entries
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(3));
  EXPECT_FALSE(heap.Contains(5));
}

// ---------------------------------------------------------------------------
// QueryWorkspace reuse
// ---------------------------------------------------------------------------

TopKParams DefaultParams(TopKScheme scheme = TopKScheme::k2SBound) {
  TopKParams params;
  params.k = 5;
  params.epsilon = 0.01;
  params.scheme = scheme;
  return params;
}

void ExpectSameResult(const TopKResult& a, const TopKResult& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].node, b.entries[i].node) << i;
    // Bit-identical, not approximately equal: workspace reuse must not
    // perturb a single operation.
    EXPECT_EQ(a.entries[i].lower, b.entries[i].lower) << i;
    EXPECT_EQ(a.entries[i].upper, b.entries[i].upper) << i;
  }
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.active_nodes, b.active_nodes);
  EXPECT_EQ(a.active_arcs, b.active_arcs);
  EXPECT_EQ(a.active_node_ids, b.active_node_ids);
}

// The engine on a caller-held (possibly warm) workspace, result by value.
TopKResult RunOn(QueryWorkspace& ws, const Graph& g, const Query& query,
                 const TopKParams& params) {
  TopKResult result;
  EXPECT_TRUE(TopKRoundTripRank(g, query, params, ws, &result).ok());
  return result;
}

TEST(QueryWorkspaceTest, ReuseIsBitIdenticalToFreshWorkspace) {
  Graph g = RandomGraph(7);
  QueryWorkspace reused;
  TopKParams params = DefaultParams();
  for (NodeId q = 0; q < 20; ++q) {
    TopKResult warm = RunOn(reused, g, {q}, params);
    QueryWorkspace fresh;
    TopKResult cold = RunOn(fresh, g, {q}, params);
    ExpectSameResult(warm, cold);
  }
}

TEST(QueryWorkspaceTest, ReuseAcrossSchemesAndMultiNodeQueries) {
  Graph g = RandomGraph(9);
  QueryWorkspace reused;
  for (TopKScheme scheme : {TopKScheme::k2SBound, TopKScheme::kGupta,
                            TopKScheme::kSarkar, TopKScheme::kGPlusS}) {
    TopKParams params = DefaultParams(scheme);
    TopKResult warm = RunOn(reused, g, {3, 11}, params);
    TopKResult cold = FreshTopK(g, {3, 11}, params).value();
    ExpectSameResult(warm, cold);
  }
}

TEST(QueryWorkspaceTest, ReuseAcrossGraphSizes) {
  // Shrinking and growing the graph between queries must re-size cleanly.
  Graph small = RandomGraph(3, 30);
  Graph large = RandomGraph(4, 90);
  QueryWorkspace ws;
  TopKParams params = DefaultParams();
  for (int round = 0; round < 3; ++round) {
    TopKResult a = RunOn(ws, small, {1}, params);
    ExpectSameResult(a, FreshTopK(small, {1}, params).value());
    TopKResult b = RunOn(ws, large, {1}, params);
    ExpectSameResult(b, FreshTopK(large, {1}, params).value());
  }
}

TEST(QueryWorkspaceTest, ResultBufferReuseMatchesValueApi) {
  Graph g = RandomGraph(5);
  QueryWorkspace ws;
  TopKResult reused_result;
  TopKParams params = DefaultParams();
  for (NodeId q = 0; q < 12; ++q) {
    ASSERT_TRUE(TopKRoundTripRank(g, {q}, params, ws, &reused_result).ok());
    TopKResult fresh = FreshTopK(g, {q}, params).value();
    ExpectSameResult(reused_result, fresh);
  }
}

TEST(QueryWorkspaceTest, NaiveSchemeThroughWorkspace) {
  Graph g = RandomGraph(6);
  QueryWorkspace ws;
  TopKParams params = DefaultParams(TopKScheme::kNaive);
  // Twice through the same workspace: the exact buffers must reset fully.
  TopKResult first = RunOn(ws, g, {2}, params);
  TopKResult second = RunOn(ws, g, {2}, params);
  ExpectSameResult(first, second);
  ExpectSameResult(first, FreshTopK(g, {2}, params).value());
}

TEST(QueryWorkspaceTest, RepeatedQueryIsBitIdenticalToFresh) {
  // Back-to-back runs of one (query, alpha), as a worker serving a hot
  // query produces, must not move a single bit.
  Graph g = RandomGraph(11);
  QueryWorkspace reused;
  TopKParams params = DefaultParams();
  TopKResult first = RunOn(reused, g, {7}, params);
  for (int repeat = 0; repeat < 4; ++repeat) {
    TopKResult again = RunOn(reused, g, {7}, params);
    ExpectSameResult(first, again);
  }
  QueryWorkspace fresh;
  ExpectSameResult(first, RunOn(fresh, g, {7}, params));
}

TEST(QueryWorkspaceTest, QueryOrAlphaChangeMatchesFresh) {
  Graph g = RandomGraph(12);
  QueryWorkspace ws;
  TopKParams params = DefaultParams();
  TopKResult a = RunOn(ws, g, {3}, params);
  // Different query node: node 3's teleport mass must be gone.
  TopKResult b = RunOn(ws, g, {4}, params);
  ExpectSameResult(b, FreshTopK(g, {4}, params).value());
  // Different alpha on the original node.
  TopKParams other_alpha = params;
  other_alpha.alpha = 0.5;
  TopKResult c = RunOn(ws, g, {3}, other_alpha);
  ExpectSameResult(c, FreshTopK(g, {3}, other_alpha).value());
  // Back to the original (query, alpha): still matches a fresh run.
  ExpectSameResult(a, RunOn(ws, g, {3}, params));
}

TEST(QueryWorkspaceTest, BeginQueryClearsTeleportEntries) {
  QueryWorkspace ws;
  Query query = {2, 5};
  ws.BeginQuery(10);
  ws.Teleport(query, 0.25);
  EXPECT_DOUBLE_EQ(ws.teleport[2], 0.125);
  EXPECT_DOUBLE_EQ(ws.teleport[5], 0.125);
  // The next query starts from a zero vector and builds only its own mass.
  ws.BeginQuery(10);
  EXPECT_DOUBLE_EQ(ws.teleport[2], 0.0);
  EXPECT_DOUBLE_EQ(ws.teleport[5], 0.0);
  ws.Teleport({3}, 0.25);
  EXPECT_DOUBLE_EQ(ws.teleport[3], 0.25);
  EXPECT_DOUBLE_EQ(ws.teleport[2], 0.0);
}

TEST(QueryWorkspaceTest, BcaReuseMatchesFreshWorkspace) {
  Graph g = RandomGraph(8);
  QueryWorkspace ws;
  for (NodeId q : {0u, 5u, 9u, 5u}) {  // includes a repeated query
    ws.BeginQuery(g.num_nodes());
    Bca warm(g, {q}, 0.25, ws);
    FreshWorkspace fresh(g);
    Bca cold(g, {q}, 0.25, fresh);
    for (int round = 0; round < 30; ++round) {
      int a = warm.ProcessBest(4);
      int b = cold.ProcessBest(4);
      ASSERT_EQ(a, b);
      if (a == 0) break;
    }
    ASSERT_EQ(warm.seen().size(), cold.seen().size());
    for (size_t i = 0; i < warm.seen().size(); ++i) {
      EXPECT_EQ(warm.seen()[i], cold.seen()[i]);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(warm.rho()[v], cold.rho()[v]) << "node " << v;
      EXPECT_EQ(warm.mu()[v], cold.mu()[v]) << "node " << v;
    }
    EXPECT_EQ(warm.MaxResidual(), cold.MaxResidual());
  }
}

}  // namespace
}  // namespace rtr::core
