// Integration tests: full pipelines across modules — dataset generation ->
// task construction -> measures -> evaluation, and the exact engine vs the
// online engine vs the distributed replay on the same data.
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/round_trip_rank.h"
#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "datasets/qlog.h"
#include "dist/distributed_topk.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "ranking/combinators.h"
#include "ranking/pagerank.h"

namespace rtr {
namespace {

datasets::BibNetConfig SmallBibNetConfig() {
  datasets::BibNetConfig config;
  config.num_areas = 2;
  config.topics_per_area = 3;
  config.num_authors = 300;
  config.num_papers = 1200;
  config.terms_per_topic = 20;
  config.shared_terms = 60;
  return config;
}

datasets::QLogConfig SmallQLogConfig() {
  datasets::QLogConfig config;
  config.num_concepts = 500;
  config.num_portal_urls = 12;
  return config;
}

TEST(PipelineIntegrationTest, AuthorTaskBeatsRandomByWideMargin) {
  datasets::BibNet bibnet =
      datasets::BibNet::Generate(SmallBibNetConfig()).value();
  datasets::EvalTaskSet task = bibnet.MakeAuthorTask(30, 0, 3).value();
  auto scorer = std::make_shared<ranking::FTScorer>(task.graph);
  auto rtrank = core::MakeRoundTripRankMeasure(scorer);
  double mean = eval::MeanNdcg(task.graph, *rtrank, task, 5);
  // Random ranking over ~300 authors would score ~0.01; the measure must be
  // far above chance, demonstrating end-to-end signal.
  EXPECT_GT(mean, 0.15);
}

TEST(PipelineIntegrationTest, RoundTripRankBeatsExtremesOnAuthorTask) {
  datasets::BibNet bibnet =
      datasets::BibNet::Generate(SmallBibNetConfig()).value();
  datasets::EvalTaskSet task = bibnet.MakeAuthorTask(40, 0, 5).value();
  auto scorer = std::make_shared<ranking::FTScorer>(task.graph);
  auto balanced = core::MakeRoundTripRankMeasure(scorer);
  auto t_only = ranking::MakeTRankMeasure(scorer);
  double balanced_ndcg = eval::MeanNdcg(task.graph, *balanced, task, 5);
  double t_ndcg = eval::MeanNdcg(task.graph, *t_only, task, 5);
  // The paper's Fig. 5 Task 1 shape: the dual-sensed measure clearly beats
  // pure specificity.
  EXPECT_GT(balanced_ndcg, t_ndcg);
}

TEST(PipelineIntegrationTest, EquivalentPhraseTaskSolvableOnQLog) {
  datasets::QLog qlog = datasets::QLog::Generate(SmallQLogConfig()).value();
  datasets::EvalTaskSet task =
      qlog.MakeEquivalentPhraseTask(30, 0, 7).value();
  auto scorer = std::make_shared<ranking::FTScorer>(task.graph);
  auto rtrank = core::MakeRoundTripRankMeasure(scorer);
  EXPECT_GT(eval::MeanNdcg(task.graph, *rtrank, task, 5), 0.4);
}

TEST(PipelineIntegrationTest, TwoSBoundAgreesWithExactOnBibNet) {
  datasets::BibNet bibnet =
      datasets::BibNet::Generate(SmallBibNetConfig()).value();
  const Graph& g = bibnet.graph();
  core::TopKParams params;
  params.k = 10;
  params.epsilon = 1e-4;
  for (NodeId q : {bibnet.papers()[10].node, bibnet.papers()[500].node}) {
    core::TopKResult approx = core::FreshTopK(g, {q}, params).value();
    ASSERT_TRUE(approx.converged);
    std::vector<double> exact = core::ExactRoundTripRankScores(g, {q});
    ASSERT_EQ(approx.entries.size(), 10u);
    // Epsilon contract against the exact scores.
    double kth = exact[approx.entries.back().node];
    std::set<NodeId> returned;
    for (const auto& entry : approx.entries) returned.insert(entry.node);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!returned.count(v)) {
        EXPECT_LT(exact[v], kth + params.epsilon);
      }
    }
  }
}

TEST(PipelineIntegrationTest, DistributedMatchesLocalOnQLogSnapshot) {
  datasets::QLog qlog = datasets::QLog::Generate(SmallQLogConfig()).value();
  Subgraph snap = qlog.Snapshot(15).value();
  const Graph& g = snap.graph;
  core::TopKParams params;
  params.k = 5;
  params.epsilon = 0.005;
  // Aliasing shared_ptr: the snapshot's graph outlives the cluster here.
  dist::Cluster cluster({std::shared_ptr<const Graph>{}, &g}, 3);
  NodeId query = 0;
  while (g.out_degree(query) == 0) ++query;
  core::TopKResult local = core::FreshTopK(g, {query}, params).value();
  core::QueryWorkspace workspace;
  dist::DistributedTopKResult distributed =
      dist::DistributedTopK(cluster, {query}, params, workspace).value();
  ASSERT_EQ(distributed.topk.entries.size(), local.entries.size());
  for (size_t i = 0; i < local.entries.size(); ++i) {
    EXPECT_EQ(distributed.topk.entries[i].node, local.entries[i].node);
  }
}

TEST(PipelineIntegrationTest, BetaTuningImprovesOverWorstGridPoint) {
  datasets::QLog qlog = datasets::QLog::Generate(SmallQLogConfig()).value();
  datasets::EvalTaskSet task =
      qlog.MakeEquivalentPhraseTask(25, 25, 11).value();
  auto scorer = std::make_shared<ranking::FTScorer>(task.graph);
  eval::MeasureFactory factory = [&scorer](double beta) {
    return core::MakeRoundTripRankPlusMeasure(scorer, beta);
  };
  double beta = eval::TuneBeta(task, factory, eval::DefaultBetaGrid());
  auto tuned = factory(beta);
  double tuned_ndcg = eval::MeanNdcg(task.graph, *tuned, task, 5);
  double worst = 1.0;
  for (double b : eval::DefaultBetaGrid()) {
    auto measure = factory(b);
    worst = std::min(worst, eval::MeanNdcg(task.graph, *measure, task, 5));
  }
  EXPECT_GE(tuned_ndcg, worst);
}

TEST(PipelineIntegrationTest, WholePipelineIsDeterministic) {
  auto run = [] {
    datasets::BibNet bibnet =
        datasets::BibNet::Generate(SmallBibNetConfig()).value();
    datasets::EvalTaskSet task = bibnet.MakeVenueTask(10, 0, 13).value();
    auto scorer = std::make_shared<ranking::FTScorer>(task.graph);
    auto rtrank = core::MakeRoundTripRankMeasure(scorer);
    return eval::MeanNdcg(task.graph, *rtrank, task, 5);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(PipelineIntegrationTest, SnapshotQueriesWorkAcrossGrowth) {
  datasets::BibNet bibnet =
      datasets::BibNet::Generate(SmallBibNetConfig()).value();
  core::TopKParams params;
  params.k = 5;
  params.epsilon = 0.01;
  size_t prev_nodes = 0;
  for (int year : {1998, 2004, 2010}) {
    Subgraph snap = bibnet.Snapshot(year).value();
    EXPECT_GT(snap.graph.num_nodes(), prev_nodes);
    prev_nodes = snap.graph.num_nodes();
    NodeId query = 0;
    while (snap.graph.out_degree(query) == 0) ++query;
    core::TopKResult result =
        core::FreshTopK(snap.graph, {query}, params).value();
    EXPECT_FALSE(result.entries.empty());
    EXPECT_LE(result.active_nodes, snap.graph.num_nodes());
  }
}

}  // namespace
}  // namespace rtr
