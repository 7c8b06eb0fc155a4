#include "core/round_trip_rank.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/scc.h"
#include "ranking/combinators.h"
#include "util/random.h"

namespace rtr::core {
namespace {

using ranking::FTScorer;
using ranking::FTVectors;

// The toy bibliographic graph of Fig. 2.
struct ToyGraph {
  Graph graph;
  NodeId t1, t2;
  NodeId p[7];
  NodeId v1, v2, v3;
};

ToyGraph MakeToyGraph() {
  GraphBuilder b;
  ToyGraph toy;
  toy.t1 = b.AddNode();
  toy.t2 = b.AddNode();
  for (auto& pid : toy.p) pid = b.AddNode();
  toy.v1 = b.AddNode();
  toy.v2 = b.AddNode();
  toy.v3 = b.AddNode();
  for (int i = 0; i < 5; ++i) b.AddUndirectedEdge(toy.t1, toy.p[i], 1.0);
  b.AddUndirectedEdge(toy.t2, toy.p[5], 1.0);
  b.AddUndirectedEdge(toy.t2, toy.p[6], 1.0);
  b.AddUndirectedEdge(toy.p[0], toy.v1, 1.0);
  b.AddUndirectedEdge(toy.p[1], toy.v1, 1.0);
  b.AddUndirectedEdge(toy.p[5], toy.v1, 1.0);
  b.AddUndirectedEdge(toy.p[6], toy.v1, 1.0);
  b.AddUndirectedEdge(toy.p[2], toy.v2, 1.0);
  b.AddUndirectedEdge(toy.p[3], toy.v2, 1.0);
  b.AddUndirectedEdge(toy.p[4], toy.v3, 1.0);
  toy.graph = b.Build().value();
  return toy;
}

std::vector<NodeId> Ordering(const std::vector<double>& scores) {
  std::vector<NodeId> ids(scores.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return ids;
}

// ------------------------------------------------------------------
// Fig. 4: the paper's fully worked example with constant L = L' = 2.
// ------------------------------------------------------------------

TEST(ConstantLengthRoundTripTest, ReproducesFig4Exactly) {
  ToyGraph toy = MakeToyGraph();
  std::vector<double> scores =
      ConstantLengthRoundTripScores(toy.graph, toy.t1, 2, 2);
  EXPECT_NEAR(scores[toy.v1], 0.05, 1e-12);  // 4 trips x 0.0125
  EXPECT_NEAR(scores[toy.v2], 0.10, 1e-12);  // 4 trips x 0.025
  EXPECT_NEAR(scores[toy.v3], 0.05, 1e-12);  // 1 trip  x 0.05
  EXPECT_NEAR(scores[toy.t1], 0.25, 1e-12);  // 25 trips x 0.01
  // Every other node has no length-2 round trip through it.
  for (NodeId pid : toy.p) EXPECT_EQ(scores[pid], 0.0);
  EXPECT_EQ(scores[toy.t2], 0.0);
}

TEST(ConstantLengthRoundTripTest, Fig4RankingFavorsBalancedVenue) {
  // v2 (important AND specific) beats v1 (important only) and v3
  // (specific only) — the paper's headline intuition.
  ToyGraph toy = MakeToyGraph();
  std::vector<double> scores =
      ConstantLengthRoundTripScores(toy.graph, toy.t1, 2, 2);
  EXPECT_GT(scores[toy.v2], scores[toy.v1]);
  EXPECT_GT(scores[toy.v2], scores[toy.v3]);
}

TEST(ConstantLengthRoundTripTest, ZeroStepsDegenerate) {
  ToyGraph toy = MakeToyGraph();
  std::vector<double> scores =
      ConstantLengthRoundTripScores(toy.graph, toy.t1, 0, 0);
  EXPECT_DOUBLE_EQ(scores[toy.t1], 1.0);
  for (NodeId v = 0; v < toy.graph.num_nodes(); ++v) {
    if (v != toy.t1) {
      EXPECT_EQ(scores[v], 0.0);
    }
  }
}

// ------------------------------------------------------------------
// Proposition 2: r(q, v) ∝ f(q, v) t(q, v), validated against direct
// Monte-Carlo simulation of Definition 2.
// ------------------------------------------------------------------

TEST(RoundTripRankTest, DecompositionMatchesSimulation) {
  ToyGraph toy = MakeToyGraph();
  RoundTripSimParams sim;
  sim.alpha = 0.25;
  sim.num_trips = 400000;
  std::vector<double> simulated =
      SimulateRoundTripRank(toy.graph, toy.t1, sim);

  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(toy.graph, {toy.t1}, params);
  std::vector<double> t = ranking::TRank(toy.graph, {toy.t1}, params);
  double total = 0.0;
  for (size_t v = 0; v < f.size(); ++v) total += f[v] * t[v];
  ASSERT_GT(total, 0.0);
  for (NodeId v = 0; v < toy.graph.num_nodes(); ++v) {
    EXPECT_NEAR(simulated[v], f[v] * t[v] / total, 0.01)
        << "node " << v;
  }
}

TEST(RoundTripRankTest, MeasureEqualsFTimesT) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  auto rtr = MakeRoundTripRankMeasure(scorer);
  EXPECT_EQ(rtr->name(), "RoundTripRank");
  std::vector<double> scores = rtr->Score({toy.t1});
  const FTVectors& ft = scorer->Compute({toy.t1});
  for (size_t v = 0; v < scores.size(); ++v) {
    EXPECT_DOUBLE_EQ(scores[v], ft.f[v] * ft.t[v]);
  }
}

TEST(RoundTripRankTest, ToyGraphVenueOrdering) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  auto rtr = MakeRoundTripRankMeasure(scorer);
  std::vector<double> scores = rtr->Score({toy.t1});
  EXPECT_GT(scores[toy.v2], scores[toy.v1]);
  EXPECT_GT(scores[toy.v2], scores[toy.v3]);
}

TEST(RoundTripRankTest, SelfProximityIsHighest) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  auto rtr = MakeRoundTripRankMeasure(scorer);
  std::vector<double> scores = rtr->Score({toy.t1});
  EXPECT_EQ(Ordering(scores)[0], toy.t1);
}

TEST(RoundTripRankTest, ZeroWithoutReturnPath) {
  // The Sect. III-B caveat, and its resolution via MakeIrreducible.
  GraphBuilder b;
  b.AddNodes(3);
  b.AddDirectedEdge(0, 1, 1.0);
  b.AddDirectedEdge(1, 2, 1.0);
  Graph chain = b.Build().value();
  auto scorer = std::make_shared<FTScorer>(chain);
  auto rtr = MakeRoundTripRankMeasure(scorer);
  std::vector<double> scores = rtr->Score({0});
  EXPECT_EQ(scores[2], 0.0);

  Graph fixed = MakeIrreducible(chain, 1e-3).value();
  auto fixed_scorer = std::make_shared<FTScorer>(fixed);
  auto fixed_rtr = MakeRoundTripRankMeasure(fixed_scorer);
  std::vector<double> fixed_scores = fixed_rtr->Score({0});
  EXPECT_GT(fixed_scores[2], 0.0);
}

// ------------------------------------------------------------------
// RoundTripRank+ (Definition 3 / Eq. 12).
// ------------------------------------------------------------------

TEST(RoundTripRankPlusTest, BetaZeroIsFRankRanking) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  auto plus = MakeRoundTripRankPlusMeasure(scorer, 0.0);
  auto f = ranking::MakeFRankMeasure(scorer);
  EXPECT_EQ(Ordering(plus->Score({toy.t1})), Ordering(f->Score({toy.t1})));
}

TEST(RoundTripRankPlusTest, BetaOneIsTRankRanking) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  auto plus = MakeRoundTripRankPlusMeasure(scorer, 1.0);
  auto t = ranking::MakeTRankMeasure(scorer);
  EXPECT_EQ(Ordering(plus->Score({toy.t1})), Ordering(t->Score({toy.t1})));
}

TEST(RoundTripRankPlusTest, BetaHalfMatchesRoundTripRankRanking) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  auto plus = MakeRoundTripRankPlusMeasure(scorer, 0.5);
  auto rtr = MakeRoundTripRankMeasure(scorer);
  EXPECT_EQ(Ordering(plus->Score({toy.t1})), Ordering(rtr->Score({toy.t1})));
}

// Property over the beta grid: if node a dominates node b in both senses,
// every trade-off ranks a above b.
class RtrPlusBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(RtrPlusBetaSweep, DominancePreservedForAnyBeta) {
  double beta = GetParam();
  Rng rng(977 + static_cast<uint64_t>(beta * 100));
  // Random connected-ish undirected graph.
  GraphBuilder b;
  const size_t n = 30;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        1.0 + rng.NextDouble());
  }
  for (int extra = 0; extra < 25; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddUndirectedEdge(u, v, 1.0 + rng.NextDouble());
  }
  Graph g = b.Build().value();
  auto scorer = std::make_shared<FTScorer>(g);
  NodeId q = 0;
  const FTVectors& ft = scorer->Compute({q});
  auto plus = MakeRoundTripRankPlusMeasure(scorer, beta);
  std::vector<double> scores = plus->Score({q});
  int dominated_pairs = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId v = 0; v < n; ++v) {
      if (ft.f[a] > ft.f[v] && ft.t[a] > ft.t[v] && ft.f[v] > 0 &&
          ft.t[v] > 0) {
        ++dominated_pairs;
        EXPECT_GT(scores[a], scores[v])
            << "beta=" << beta << " a=" << a << " v=" << v;
      }
    }
  }
  EXPECT_GT(dominated_pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(BetaGrid, RtrPlusBetaSweep,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                           0.7, 0.8, 0.9, 1.0));

// The specificity bias does what its name says: increasing beta can only
// improve the rank of the more specific of two nodes.
TEST(RoundTripRankPlusTest, LargerBetaFavorsSpecificNode) {
  ToyGraph toy = MakeToyGraph();
  auto scorer = std::make_shared<FTScorer>(toy.graph);
  // v3 is more specific than v1 (t higher), v1 more important (f higher).
  const FTVectors& ft = scorer->Compute({toy.t1});
  ASSERT_GT(ft.f[toy.v1], ft.f[toy.v3]);
  ASSERT_GT(ft.t[toy.v3], ft.t[toy.v1]);
  auto low = MakeRoundTripRankPlusMeasure(scorer, 0.1);
  auto high = MakeRoundTripRankPlusMeasure(scorer, 0.9);
  std::vector<double> lo = low->Score({toy.t1});
  std::vector<double> hi = high->Score({toy.t1});
  EXPECT_GT(lo[toy.v1], lo[toy.v3]);  // importance bias prefers v1
  EXPECT_GT(hi[toy.v3], hi[toy.v1]);  // specificity bias prefers v3
}

TEST(SimulateRoundTripRankTest, DistributionSumsToOne) {
  ToyGraph toy = MakeToyGraph();
  RoundTripSimParams sim;
  sim.num_trips = 20000;
  std::vector<double> dist = SimulateRoundTripRank(toy.graph, toy.t1, sim);
  double total = std::accumulate(dist.begin(), dist.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SimulateRoundTripRankTest, DeterministicUnderSeed) {
  ToyGraph toy = MakeToyGraph();
  RoundTripSimParams sim;
  sim.num_trips = 5000;
  EXPECT_EQ(SimulateRoundTripRank(toy.graph, toy.t1, sim),
            SimulateRoundTripRank(toy.graph, toy.t1, sim));
}

}  // namespace
}  // namespace rtr::core
