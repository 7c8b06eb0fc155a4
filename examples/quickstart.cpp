// Quickstart: build a small graph, compute RoundTripRank exactly, then get
// the same top results with the online 2SBound engine.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

#include "core/round_trip_rank.h"
#include "core/twosbound.h"
#include "graph/builder.h"
#include "ranking/combinators.h"
#include "ranking/pagerank.h"

int main() {
  // 1. Build a graph. This is the paper's Fig. 2 toy: terms, papers, and
  //    three venues of different importance/specificity profiles.
  rtr::GraphBuilder builder;
  rtr::NodeTypeId term = builder.AddNodeType("term");
  rtr::NodeTypeId paper = builder.AddNodeType("paper");
  rtr::NodeTypeId venue = builder.AddNodeType("venue");

  rtr::NodeId t1 = builder.AddNode(term);
  rtr::NodeId t2 = builder.AddNode(term);
  rtr::NodeId p[7];
  for (auto& node : p) node = builder.AddNode(paper);
  rtr::NodeId v1 = builder.AddNode(venue);  // important, not specific
  rtr::NodeId v2 = builder.AddNode(venue);  // both
  rtr::NodeId v3 = builder.AddNode(venue);  // specific, not important

  for (int i = 0; i < 5; ++i) builder.AddUndirectedEdge(t1, p[i], 1.0);
  builder.AddUndirectedEdge(t2, p[5], 1.0);
  builder.AddUndirectedEdge(t2, p[6], 1.0);
  for (int i : {0, 1, 5, 6}) builder.AddUndirectedEdge(p[i], v1, 1.0);
  for (int i : {2, 3}) builder.AddUndirectedEdge(p[i], v2, 1.0);
  builder.AddUndirectedEdge(p[4], v3, 1.0);

  rtr::Graph graph = builder.Build().value();
  std::printf("graph: %zu nodes, %zu arcs\n\n", graph.num_nodes(),
              graph.num_arcs());

  // 2. Exact RoundTripRank via the decomposition r = f * t. The FTScorer is
  //    shared by every measure you build on it.
  auto scorer = std::make_shared<rtr::ranking::FTScorer>(graph);
  auto rtr_measure = rtr::core::MakeRoundTripRankMeasure(scorer);
  std::vector<double> scores = rtr_measure->Score({t1});
  std::printf("RoundTripRank for query t1: v1 = %.5f, v2 = %.5f, v3 = %.5f\n",
              scores[v1], scores[v2], scores[v3]);
  std::printf("=> v2 wins: it is both important and specific to t1.\n\n");

  // 3. Trade-off control: RoundTripRank+ with a specificity bias.
  auto importance_biased =
      rtr::core::MakeRoundTripRankPlusMeasure(scorer, 0.1);
  auto specificity_biased =
      rtr::core::MakeRoundTripRankPlusMeasure(scorer, 0.9);
  std::printf("beta = 0.1 prefers v1 over v3: %s\n",
              importance_biased->Score({t1})[v1] >
                      importance_biased->Score({t1})[v3]
                  ? "yes"
                  : "no");
  std::printf("beta = 0.9 prefers v3 over v1: %s\n\n",
              specificity_biased->Score({t1})[v3] >
                      specificity_biased->Score({t1})[v1]
                  ? "yes"
                  : "no");

  // 4. Online top-K without touching most of the graph: 2SBound.
  rtr::core::TopKParams params;
  params.k = 3;
  params.epsilon = 1e-4;
  rtr::core::QueryWorkspace workspace;  // per-query scratch, reusable
  rtr::core::TopKResult topk;
  rtr::Status status =
      rtr::core::TopKRoundTripRank(graph, {t1}, params, workspace, &topk);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("2SBound top-%d (eps = %g):\n", params.k, params.epsilon);
  for (const rtr::core::TopKEntry& entry : topk.entries) {
    std::printf("  node %u (%s)  r in [%.5f, %.5f]\n", entry.node,
                graph.type_name(graph.node_type(entry.node)).c_str(),
                entry.lower, entry.upper);
  }
  std::printf("converged in %d rounds touching %zu of %zu nodes\n",
              topk.rounds, topk.active_nodes, graph.num_nodes());
  return 0;
}
