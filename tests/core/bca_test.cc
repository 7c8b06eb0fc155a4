#include "core/bca.h"

#include <numeric>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "graph/builder.h"
#include "ranking/pagerank.h"
#include "util/random.h"

namespace rtr::core {
namespace {

Graph ToyGraph() {
  // The Fig. 2 toy graph (t1=0, t2=1, p=2..8, v1..v3=9..11).
  GraphBuilder b;
  b.AddNodes(12);
  for (int i = 2; i <= 6; ++i) b.AddUndirectedEdge(0, i, 1.0);
  b.AddUndirectedEdge(1, 7, 1.0);
  b.AddUndirectedEdge(1, 8, 1.0);
  b.AddUndirectedEdge(2, 9, 1.0);
  b.AddUndirectedEdge(3, 9, 1.0);
  b.AddUndirectedEdge(7, 9, 1.0);
  b.AddUndirectedEdge(8, 9, 1.0);
  b.AddUndirectedEdge(4, 10, 1.0);
  b.AddUndirectedEdge(5, 10, 1.0);
  b.AddUndirectedEdge(6, 11, 1.0);
  return b.Build().value();
}

Graph RandomGraph(uint64_t seed, size_t n = 40) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (int extra = 0; extra < 40; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

void RunToExhaustion(Bca& bca, int max_rounds = 20000) {
  for (int i = 0; i < max_rounds && bca.total_residual() > 1e-14; ++i) {
    if (bca.ProcessBest(16) == 0) break;
  }
}

TEST(BcaTest, InitialResidualOnQuery) {
  Graph g = ToyGraph();
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  EXPECT_DOUBLE_EQ(bca.total_residual(), 1.0);
  EXPECT_DOUBLE_EQ(bca.mu()[0], 1.0);
  EXPECT_TRUE(bca.seen().empty());
}

TEST(BcaTest, MultiNodeQuerySplitsResidual) {
  Graph g = ToyGraph();
  FreshWorkspace ws(g);
  Bca bca(g, {0, 1}, 0.25, ws);
  EXPECT_DOUBLE_EQ(bca.mu()[0], 0.5);
  EXPECT_DOUBLE_EQ(bca.mu()[1], 0.5);
}

TEST(BcaTest, ProcessMovesAlphaFractionToRho) {
  Graph g = ToyGraph();
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  bca.Process(0);
  EXPECT_DOUBLE_EQ(bca.rho()[0], 0.25);
  EXPECT_NEAR(bca.total_residual(), 0.75, 1e-15);
  // Residual spread uniformly to the five papers of t1.
  for (int p = 2; p <= 6; ++p) EXPECT_NEAR(bca.mu()[p], 0.15, 1e-15);
}

TEST(BcaTest, ResidualDecreasesMonotonically) {
  Graph g = RandomGraph(1);
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  double prev = bca.total_residual();
  for (int i = 0; i < 50; ++i) {
    if (bca.ProcessBest(4) == 0) break;
    EXPECT_LE(bca.total_residual(), prev + 1e-15);
    prev = bca.total_residual();
  }
}

TEST(BcaTest, RhoIsAlwaysALowerBound) {
  Graph g = RandomGraph(2);
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {3}, params);
  FreshWorkspace ws(g);
  Bca bca(g, {3}, 0.25, ws);
  for (int i = 0; i < 40; ++i) {
    bca.ProcessBest(3);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(bca.rho()[v], f[v] + 1e-12) << "node " << v;
    }
  }
}

TEST(BcaTest, ConvergesToExactFRank) {
  Graph g = ToyGraph();
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {0}, params);
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  RunToExhaustion(bca);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(bca.rho()[v], f[v], 1e-9) << "node " << v;
  }
}

TEST(BcaTest, UnseenUpperBoundIsValid) {
  // f(q, v) <= rho(v) + unseen-upper at every stage (Prop. 4).
  Graph g = RandomGraph(3);
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {0}, params);
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  for (int i = 0; i < 60; ++i) {
    double ub = bca.UnseenUpperBound();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(f[v], bca.rho()[v] + ub + 1e-12) << "node " << v;
    }
    if (bca.ProcessBest(2) == 0) break;
  }
}

TEST(BcaTest, PaperBoundTighterThanGupta) {
  Graph g = RandomGraph(4);
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  for (int i = 0; i < 30; ++i) {
    if (bca.ProcessBest(2) == 0) break;
    EXPECT_LE(bca.UnseenUpperBound(), bca.GuptaUnseenUpperBound() + 1e-15);
  }
}

TEST(BcaTest, GuptaBoundIsValidToo) {
  Graph g = RandomGraph(5);
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {7}, params);
  FreshWorkspace ws(g);
  Bca bca(g, {7}, 0.25, ws);
  for (int i = 0; i < 40; ++i) {
    double ub = bca.GuptaUnseenUpperBound();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(f[v], bca.rho()[v] + ub + 1e-12);
    }
    if (bca.ProcessBest(3) == 0) break;
  }
}

TEST(BcaTest, DanglingNodeDropsMass) {
  GraphBuilder b;
  b.AddNodes(2);
  b.AddDirectedEdge(0, 1, 1.0);
  Graph g = b.Build().value();
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  bca.Process(0);
  bca.Process(1);
  EXPECT_DOUBLE_EQ(bca.rho()[0], 0.25);
  EXPECT_DOUBLE_EQ(bca.rho()[1], 0.75 * 0.25);
  EXPECT_NEAR(bca.total_residual(), 0.0, 1e-15);
}

TEST(BcaTest, ProcessBestPrefersHighBenefit) {
  // Node 1 has huge residual but huge degree; node 2 small residual, degree
  // 1. Arrange so 2's benefit wins.
  GraphBuilder b;
  b.AddNodes(12);
  b.AddDirectedEdge(0, 1, 10.0);  // mu(1) = 10/11
  b.AddDirectedEdge(0, 2, 1.0);   // mu(2) = 1/11
  for (NodeId t = 3; t < 12; ++t) b.AddDirectedEdge(1, t, 1.0);  // degree 9
  b.AddDirectedEdge(2, 0, 1.0);  // degree 1
  Graph g = b.Build().value();
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  bca.Process(0);
  // benefit(1) = (0.75 * 10/11) / 9 ≈ 0.0758; benefit(2) = (0.75/11) / 1
  // ≈ 0.0682 — node 1 first, then 2; with m=1 only node 1 processed.
  bca.ProcessBest(1);
  EXPECT_GT(bca.rho()[1], 0.0);
  EXPECT_EQ(bca.rho()[2], 0.0);
}

TEST(BcaTest, SeenListMatchesPositiveRho) {
  Graph g = RandomGraph(6);
  FreshWorkspace ws(g);
  Bca bca(g, {0}, 0.25, ws);
  bca.ProcessBest(5);
  bca.ProcessBest(5);
  std::vector<bool> in_seen(g.num_nodes(), false);
  for (NodeId v : bca.seen()) in_seen[v] = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(in_seen[v], bca.rho()[v] > 0.0) << "node " << v;
  }
}

}  // namespace
}  // namespace rtr::core
