#include "core/twosbound.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
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
  for (int extra = 0; extra < 80; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

TEST(ExactRoundTripRankScoresTest, ProductOfFAndT) {
  Graph g = RandomGraph(1);
  std::vector<double> scores = ExactRoundTripRankScores(g, {0});
  // Query has the highest self-proximity in this connected graph.
  NodeId best = 0;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (scores[v] > scores[best]) best = v;
  }
  EXPECT_EQ(best, 0u);
}

TEST(TopKRoundTripRankTest, RejectsBadArguments) {
  Graph g = RandomGraph(2);
  TopKParams params;
  params.k = 0;
  EXPECT_FALSE(FreshTopK(g, {0}, params).ok());
  params = {};
  params.epsilon = -1.0;
  EXPECT_FALSE(FreshTopK(g, {0}, params).ok());
  params.epsilon = std::nan("");
  EXPECT_FALSE(FreshTopK(g, {0}, params).ok());
  params = {};
  params.m_f = 0;
  EXPECT_FALSE(FreshTopK(g, {0}, params).ok());
  params = {};
  params.m_t = 0;
  EXPECT_FALSE(FreshTopK(g, {0}, params).ok());
  params = {};
  EXPECT_FALSE(FreshTopK(g, {}, params).ok());
  EXPECT_FALSE(FreshTopK(g, {999999}, params).ok());
  params.alpha = 1.5;
  EXPECT_FALSE(FreshTopK(g, {0}, params).ok());
}

TEST(TopKRoundTripRankTest, NaiveMatchesExactScores) {
  Graph g = RandomGraph(3);
  TopKParams params;
  params.k = 5;
  params.scheme = TopKScheme::kNaive;
  TopKResult result = FreshTopK(g, {0}, params).value();
  ASSERT_EQ(result.entries.size(), 5u);
  std::vector<double> exact = ExactRoundTripRankScores(g, {0});
  // Entries are the exact top-5, in order.
  for (size_t i = 0; i < result.entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.entries[i].lower, exact[result.entries[i].node]);
  }
  for (size_t i = 0; i + 1 < result.entries.size(); ++i) {
    EXPECT_GE(result.entries[i].lower, result.entries[i + 1].lower);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool in_result = false;
    for (const TopKEntry& e : result.entries) in_result |= (e.node == v);
    if (!in_result) {
      EXPECT_LE(exact[v], result.entries.back().lower + 1e-15);
    }
  }
}

// Epsilon-approximation contract (Sect. V-A1), checked across schemes and
// seeds: no returned node's true score may be beaten by an omitted node by
// more than epsilon, and adjacent returned nodes may only be swapped if
// their true scores differ by less than epsilon.
struct SchemeCase {
  TopKScheme scheme;
  uint64_t seed;
};

class TopKApproximation : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(TopKApproximation, EpsilonContractHolds) {
  const SchemeCase test_case = GetParam();
  Graph g = RandomGraph(test_case.seed);
  TopKParams params;
  params.k = 8;
  params.epsilon = 0.002;
  params.m_f = 10;
  params.m_t = 2;
  params.scheme = test_case.scheme;
  TopKResult result = FreshTopK(g, {0}, params).value();
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.entries.size(), 8u);

  std::vector<double> exact = ExactRoundTripRankScores(g, {0});
  std::set<NodeId> returned;
  for (const TopKEntry& e : result.entries) returned.insert(e.node);
  // (a) No omitted node beats the K-th returned node by >= epsilon.
  double kth = exact[result.entries.back().node];
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!returned.count(v)) {
      EXPECT_LT(exact[v], kth + params.epsilon) << "node " << v;
    }
  }
  // (b) Adjacent pairs are not badly swapped.
  for (size_t i = 0; i + 1 < result.entries.size(); ++i) {
    EXPECT_GT(exact[result.entries[i].node],
              exact[result.entries[i + 1].node] - params.epsilon);
  }
  // (c) Bounds returned must bracket the exact values.
  for (const TopKEntry& e : result.entries) {
    EXPECT_LE(e.lower, exact[e.node] + 1e-9);
    EXPECT_GE(e.upper, exact[e.node] - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, TopKApproximation,
    ::testing::Values(SchemeCase{TopKScheme::k2SBound, 101},
                      SchemeCase{TopKScheme::k2SBound, 102},
                      SchemeCase{TopKScheme::k2SBound, 103},
                      SchemeCase{TopKScheme::kGupta, 104},
                      SchemeCase{TopKScheme::kGupta, 105},
                      SchemeCase{TopKScheme::kSarkar, 106},
                      SchemeCase{TopKScheme::kSarkar, 107},
                      SchemeCase{TopKScheme::kGPlusS, 108},
                      SchemeCase{TopKScheme::kGPlusS, 109}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      std::string name = TopKSchemeName(info.param.scheme);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name + "_" + std::to_string(info.param.seed);
    });

TEST(TopKRoundTripRankTest, TinyEpsilonRecoversExactTopK) {
  Graph g = RandomGraph(7, 30);
  TopKParams params;
  params.k = 5;
  params.epsilon = 1e-4;
  params.m_f = 8;
  params.m_t = 2;
  TopKResult result = FreshTopK(g, {0}, params).value();
  std::vector<double> exact = ExactRoundTripRankScores(g, {0});
  std::vector<NodeId> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    if (exact[a] != exact[b]) return exact[a] > exact[b];
    return a < b;
  });
  ASSERT_EQ(result.entries.size(), 5u);
  // With well-separated scores the approximate top-K set equals the exact
  // one (ordering within epsilon-ties may differ).
  std::set<NodeId> expected(ids.begin(), ids.begin() + 5);
  for (const TopKEntry& e : result.entries) {
    EXPECT_TRUE(expected.count(e.node)) << "unexpected node " << e.node;
  }
}

TEST(TopKRoundTripRankTest, QueryRanksFirst) {
  Graph g = RandomGraph(8);
  TopKParams params;
  params.k = 3;
  TopKResult result = FreshTopK(g, {5}, params).value();
  ASSERT_FALSE(result.entries.empty());
  EXPECT_EQ(result.entries[0].node, 5u);
}

TEST(TopKRoundTripRankTest, ActiveSetSmallerThanGraph) {
  Graph g = RandomGraph(9, 400);
  TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;
  TopKResult result = FreshTopK(g, {0}, params).value();
  EXPECT_GT(result.active_nodes, 0u);
  EXPECT_LE(result.active_nodes, g.num_nodes());
  EXPECT_GT(result.active_set_bytes, 0u);
  // The naive scheme's active set is the whole graph — strictly bigger.
  params.scheme = TopKScheme::kNaive;
  TopKResult naive = FreshTopK(g, {0}, params).value();
  EXPECT_EQ(naive.active_nodes, g.num_nodes());
  EXPECT_LE(result.active_set_bytes, naive.active_set_bytes);
}

TEST(TopKRoundTripRankTest, LargerEpsilonConvergesNoSlower) {
  Graph g = RandomGraph(10, 200);
  TopKParams tight;
  tight.k = 10;
  tight.epsilon = 1e-4;
  tight.m_f = 10;
  tight.m_t = 2;
  TopKParams loose = tight;
  loose.epsilon = 0.02;
  TopKResult tight_result = FreshTopK(g, {0}, tight).value();
  TopKResult loose_result = FreshTopK(g, {0}, loose).value();
  EXPECT_LE(loose_result.rounds, tight_result.rounds);
}

TEST(TopKRoundTripRankTest, DisconnectedTargetNeverReturnedAboveZero) {
  GraphBuilder b;
  b.AddNodes(6);
  b.AddUndirectedEdge(0, 1, 1.0);
  b.AddUndirectedEdge(1, 2, 1.0);
  b.AddUndirectedEdge(3, 4, 1.0);  // separate component
  b.AddUndirectedEdge(4, 5, 1.0);
  Graph g = b.Build().value();
  TopKParams params;
  params.k = 6;
  params.epsilon = 1e-6;
  TopKResult result = FreshTopK(g, {0}, params).value();
  for (const TopKEntry& e : result.entries) {
    if (e.node >= 3) {
      EXPECT_EQ(e.lower, 0.0);
    }
  }
}

TEST(TopKRoundTripRankTest, MultiNodeQuerySupported) {
  Graph g = RandomGraph(11);
  TopKParams params;
  params.k = 5;
  params.epsilon = 1e-3;
  TopKResult result = FreshTopK(g, {0, 1}, params).value();
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.entries.size(), 5u);
  std::vector<double> exact = ExactRoundTripRankScores(g, {0, 1});
  for (const TopKEntry& e : result.entries) {
    EXPECT_LE(e.lower, exact[e.node] + 1e-9);
    EXPECT_GE(e.upper, exact[e.node] - 1e-9);
  }
}

TEST(TopKSchemeNameTest, AllNamed) {
  EXPECT_STREQ(TopKSchemeName(TopKScheme::k2SBound), "2SBound");
  EXPECT_STREQ(TopKSchemeName(TopKScheme::kGupta), "Gupta");
  EXPECT_STREQ(TopKSchemeName(TopKScheme::kSarkar), "Sarkar");
  EXPECT_STREQ(TopKSchemeName(TopKScheme::kGPlusS), "G+S");
  EXPECT_STREQ(TopKSchemeName(TopKScheme::kNaive), "Naive");
}

}  // namespace
}  // namespace rtr::core
