#include "serve/cost_model.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "graph/builder.h"
#include "util/random.h"

namespace rtr::serve {
namespace {

// Hub node 0 with `leaves` out- and in-arcs; leaf degree is 1+1.
Graph StarGraph(size_t leaves) {
  GraphBuilder b;
  b.AddNodes(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) {
    b.AddDirectedEdge(0, v, 1.0);
    b.AddDirectedEdge(v, 0, 1.0);
  }
  return b.Build().value();
}

TEST(CostFeaturesTest, DegreeFeaturesComeFromColumnarOffsets) {
  Graph g = StarGraph(64);
  core::TopKParams params;
  CostFeatures hub = CostFeaturesOf(g, {0}, params);
  CostFeatures leaf = CostFeaturesOf(g, {1}, params);
  EXPECT_DOUBLE_EQ(hub.x[0], 1.0);
  EXPECT_DOUBLE_EQ(hub.x[1], std::log2(65.0));
  EXPECT_DOUBLE_EQ(hub.x[2], std::log2(65.0));
  EXPECT_DOUBLE_EQ(leaf.x[1], std::log2(2.0));
  // Multi-node queries sum their frontiers.
  CostFeatures both = CostFeaturesOf(g, {0, 1}, params);
  EXPECT_DOUBLE_EQ(both.x[1], std::log2(66.0));
}

TEST(CostFeaturesTest, OutOfRangeNodesContributeNothing) {
  Graph g = StarGraph(4);
  core::TopKParams params;
  CostFeatures junk = CostFeaturesOf(g, {9999}, params);
  EXPECT_DOUBLE_EQ(junk.x[1], 0.0);
  EXPECT_DOUBLE_EQ(junk.x[2], 0.0);
}

TEST(CostFeaturesTest, EpsilonZeroIsClampedNotInfinite) {
  Graph g = StarGraph(4);
  core::TopKParams params;
  // NaN compares false against the floor, so a plain std::max lets it by.
  for (double epsilon : {0.0, std::nan("")}) {
    params.epsilon = epsilon;
    CostFeatures f = CostFeaturesOf(g, {1}, params);
    EXPECT_TRUE(std::isfinite(f.x[3])) << epsilon;
    EXPECT_DOUBLE_EQ(f.x[3], std::log2(1.0 / QueryCostModel::kEpsilonFloor))
        << epsilon;
  }
  // +inf is legal engine input; its feature must stay finite too.
  params.epsilon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(CostFeaturesOf(g, {1}, params).x[3], 0.0);
}

TEST(QueryCostModelTest, FixedPriorIsDeterministic) {
  // Two fresh models agree bit-for-bit before any observation — scheduling
  // decisions in tests are reproducible.
  QueryCostModel a;
  QueryCostModel b;
  Graph g = StarGraph(32);
  core::TopKParams params;
  CostFeatures f = CostFeaturesOf(g, {0}, params);
  EXPECT_EQ(a.PredictMillis(f), b.PredictMillis(f));
  EXPECT_GE(a.PredictMillis(f), QueryCostModel::kMinPredictionMillis);
  EXPECT_EQ(a.observations(), 0u);
}

TEST(QueryCostModelTest, PriorIsMonotoneInDegreeEpsilonAndK) {
  QueryCostModel model;
  Graph g = StarGraph(256);
  core::TopKParams params;
  const double hub = model.PredictMillis(CostFeaturesOf(g, {0}, params));
  const double leaf = model.PredictMillis(CostFeaturesOf(g, {1}, params));
  EXPECT_GT(hub, leaf);
  core::TopKParams tight = params;
  tight.epsilon = params.epsilon / 100.0;
  EXPECT_GT(model.PredictMillis(CostFeaturesOf(g, {0}, tight)), hub);
  core::TopKParams big_k = params;
  big_k.k = params.k * 16;
  EXPECT_GT(model.PredictMillis(CostFeaturesOf(g, {0}, big_k)), hub);
}

TEST(QueryCostModelTest, PredictionErrorShrinksOverReplayedWorkload) {
  // Ground truth is linear in the features, so RLS can nail it; the test
  // pins that decayed least squares actually converges, not how fast.
  QueryCostModel model;
  auto truth = [](const CostFeatures& f) {
    return 0.2 + 0.12 * f.x[1] + 0.05 * f.x[2] + 0.3 * f.x[3] +
           0.02 * f.x[4];
  };
  auto sample = [](Rng& rng) {
    CostFeatures f;
    f.x[0] = 1.0;
    f.x[1] = 12.0 * rng.NextDouble();
    f.x[2] = 12.0 * rng.NextDouble();
    f.x[3] = 10.0 * rng.NextDouble();
    f.x[4] = 6.0 * rng.NextDouble();
    return f;
  };
  auto eval_error = [&] {
    Rng eval_rng(7);
    double err = 0.0;
    for (int i = 0; i < 64; ++i) {
      CostFeatures f = sample(eval_rng);
      err += std::fabs(model.PredictMillis(f) - truth(f));
    }
    return err / 64.0;
  };
  const double before = eval_error();
  Rng rng(42);
  for (int i = 0; i < 400; ++i) {
    CostFeatures f = sample(rng);
    model.Observe(f, truth(f));
  }
  const double after = eval_error();
  EXPECT_EQ(model.observations(), 400u);
  EXPECT_LT(after, 0.2 * before);
  EXPECT_LT(after, 0.05);  // near-exact recovery of a noiseless target
}

TEST(QueryCostModelTest, TracksDriftThroughForgetting) {
  // The same workload at 3x the latency (a generation swap, say): the
  // decayed fit follows the new regime instead of averaging forever.
  QueryCostModel model;
  CostFeatures f;
  f.x = {1.0, 5.0, 5.0, 6.0, 3.0};
  for (int i = 0; i < 200; ++i) model.Observe(f, 2.0);
  EXPECT_NEAR(model.PredictMillis(f), 2.0, 0.05);
  for (int i = 0; i < 200; ++i) model.Observe(f, 6.0);
  EXPECT_NEAR(model.PredictMillis(f), 6.0, 0.1);
}

TEST(QueryCostModelTest, IgnoresGarbageObservations) {
  QueryCostModel model;
  CostFeatures f;
  f.x = {1.0, 2.0, 2.0, 6.0, 3.0};
  const double before = model.PredictMillis(f);
  model.Observe(f, -1.0);
  model.Observe(f, std::nan(""));
  EXPECT_EQ(model.observations(), 0u);
  EXPECT_EQ(model.PredictMillis(f), before);
}

}  // namespace
}  // namespace rtr::serve
