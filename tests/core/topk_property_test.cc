// Property tests of the 2SBound engine across parameter configurations:
// the epsilon contract must hold regardless of expansion granularity, alpha
// or query multiplicity, and the returned bounds must always bracket the
// exact values.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "graph/builder.h"
#include "util/random.h"

namespace rtr::core {
namespace {

Graph RandomGraph(uint64_t seed, size_t n = 80) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (int extra = 0; extra < 120; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

struct Config {
  int m_f;
  int m_t;
  double alpha;
  int query_size;
  std::string label;
};

class TopKConfigSweep : public ::testing::TestWithParam<Config> {};

TEST_P(TopKConfigSweep, EpsilonContractAndBracketing) {
  const Config& config = GetParam();
  Graph g = RandomGraph(314);
  Query query;
  for (int i = 0; i < config.query_size; ++i) {
    query.push_back(static_cast<NodeId>(i * 7));
  }
  TopKParams params;
  params.k = 6;
  params.epsilon = 0.003;
  params.m_f = config.m_f;
  params.m_t = config.m_t;
  params.alpha = config.alpha;
  TopKResult result = FreshTopK(g, query, params).value();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.entries.size(), 6u);

  std::vector<double> exact =
      ExactRoundTripRankScores(g, query, config.alpha);
  std::set<NodeId> returned;
  for (const TopKEntry& entry : result.entries) {
    returned.insert(entry.node);
    EXPECT_LE(entry.lower, exact[entry.node] + 1e-9);
    EXPECT_GE(entry.upper, exact[entry.node] - 1e-9);
  }
  double kth = exact[result.entries.back().node];
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!returned.count(v)) {
      EXPECT_LT(exact[v], kth + params.epsilon) << "node " << v;
    }
  }
  for (size_t i = 0; i + 1 < result.entries.size(); ++i) {
    EXPECT_GT(exact[result.entries[i].node],
              exact[result.entries[i + 1].node] - params.epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TopKConfigSweep,
    ::testing::Values(Config{1, 1, 0.25, 1, "tiny_granularity"},
                      Config{100, 5, 0.25, 1, "paper_defaults"},
                      Config{500, 50, 0.25, 1, "coarse_granularity"},
                      Config{20, 3, 0.1, 1, "low_alpha"},
                      Config{20, 3, 0.5, 1, "high_alpha"},
                      Config{50, 5, 0.25, 2, "two_node_query"},
                      Config{50, 5, 0.25, 4, "four_node_query"}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.label;
    });

TEST(TopKStressTest, ManyQueriesOnOneGraphAllSatisfyContract) {
  Graph g = RandomGraph(2718, 150);
  TopKParams params;
  params.k = 5;
  params.epsilon = 0.005;
  for (NodeId q = 0; q < 30; ++q) {
    TopKResult result = FreshTopK(g, {q}, params).value();
    ASSERT_TRUE(result.converged) << "query " << q;
    std::vector<double> exact = ExactRoundTripRankScores(g, {q});
    std::set<NodeId> returned;
    for (const TopKEntry& entry : result.entries) returned.insert(entry.node);
    double kth = exact[result.entries.back().node];
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!returned.count(v)) {
        ASSERT_LT(exact[v], kth + params.epsilon)
            << "query " << q << " node " << v;
      }
    }
  }
}

TEST(TopKStressTest, DirectedAcyclicFragmentHandled) {
  // Mostly one-way structure: many nodes cannot complete round trips; the
  // engine must converge and only return nodes with r > 0 at the top.
  GraphBuilder b;
  b.AddNodes(40);
  for (NodeId v = 0; v + 1 < 40; ++v) b.AddDirectedEdge(v, v + 1, 1.0);
  b.AddDirectedEdge(5, 0, 1.0);  // small cycle at the head
  Graph g = b.Build().value();
  TopKParams params;
  params.k = 8;
  params.epsilon = 1e-5;
  TopKResult result = FreshTopK(g, {0}, params).value();
  ASSERT_TRUE(result.converged);
  std::vector<double> exact = ExactRoundTripRankScores(g, {0});
  // The cycle nodes 0..5 are the only ones with positive RoundTripRank.
  for (size_t i = 0; i < result.entries.size() && i < 6; ++i) {
    EXPECT_GT(exact[result.entries[i].node], 0.0);
    EXPECT_LE(result.entries[i].node, 5u);
  }
}

TEST(TopKStressTest, KLargerThanPositiveSupport) {
  GraphBuilder b;
  b.AddNodes(6);
  b.AddDirectedEdge(0, 1, 1.0);
  b.AddDirectedEdge(1, 0, 1.0);
  // nodes 2..5 disconnected
  Graph g = b.Build().value();
  TopKParams params;
  params.k = 5;
  params.epsilon = 1e-6;
  TopKResult result = FreshTopK(g, {0}, params).value();
  ASSERT_GE(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].node, 0u);
  EXPECT_EQ(result.entries[1].node, 1u);
}

}  // namespace
}  // namespace rtr::core
