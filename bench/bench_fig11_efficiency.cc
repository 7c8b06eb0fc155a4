// Reproduces Fig. 11: (a) average top-10 query time of Naive / G+S / Gupta /
// Sarkar / 2SBound under slack eps in {0.01, 0.02, 0.03} on the full BibNet;
// (b) 2SBound's approximation quality (NDCG, precision, Kendall tau against
// the exact ranking) and time as eps varies.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/twosbound.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "ranking/measure.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using rtr::NodeId;
using rtr::core::TopKParams;
using rtr::core::TopKResult;
using rtr::core::TopKScheme;
using rtr::eval::TablePrinter;

std::vector<NodeId> SampleQueries(const rtr::Graph& g, int count,
                                  uint64_t seed) {
  rtr::Rng rng(seed);
  std::vector<NodeId> queries;
  while (static_cast<int>(queries.size()) < count) {
    NodeId v = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
    if (g.out_degree(v) > 0) queries.push_back(v);
  }
  return queries;
}

std::vector<NodeId> EntryNodes(const TopKResult& result) {
  std::vector<NodeId> nodes;
  for (const auto& entry : result.entries) nodes.push_back(entry.node);
  return nodes;
}

}  // namespace

int main() {
  rtr::bench::PrintBanner(
      "Fig. 11 — efficiency and approximation quality of 2SBound",
      "K = 10, alpha = 0.25, m_f = 100, m_t = 5 on the full synthetic "
      "BibNet.");
  const int num_queries = rtr::bench::NumEfficiencyQueries();
  rtr::datasets::BibNet bibnet = rtr::bench::MakeFullBibNet();
  const rtr::Graph& g = bibnet.graph();
  std::printf("full BibNet: %zu nodes, %zu arcs, %d queries\n\n",
              g.num_nodes(), g.num_arcs(), num_queries);
  std::vector<NodeId> queries = SampleQueries(g, num_queries, 1101);

  const double epsilons[] = {0.01, 0.02, 0.03};
  const TopKScheme schemes[] = {TopKScheme::kNaive, TopKScheme::kGPlusS,
                                TopKScheme::kSarkar, TopKScheme::kGupta,
                                TopKScheme::k2SBound};

  // Exact scores per query (reused for quality metrics and = Naive's work).
  std::printf("computing exact reference rankings (Naive)...\n");
  std::vector<std::vector<double>> exact_scores;
  std::vector<double> naive_times;
  for (NodeId q : queries) {
    rtr::WallTimer timer;
    exact_scores.push_back(rtr::core::ExactRoundTripRankScores(g, {q}));
    naive_times.push_back(timer.ElapsedMillis());
  }

  // ---- Fig. 11(a): query time per scheme and slack.
  TablePrinter time_table({"Scheme", "eps=0.01 (ms)", "eps=0.02 (ms)",
                           "eps=0.03 (ms)"});
  // Collected for Fig. 11(b):
  std::vector<TopKResult> twosbound_results[3];
  std::vector<double> twosbound_times[3];

  for (TopKScheme scheme : schemes) {
    std::vector<std::string> row = {rtr::core::TopKSchemeName(scheme)};
    for (size_t e = 0; e < 3; ++e) {
      if (scheme == TopKScheme::kNaive) {
        // Naive ignores the slack: reuse the measured exact runs.
        row.push_back(TablePrinter::FormatDouble(
            rtr::Summarize(naive_times).mean, 1));
        continue;
      }
      TopKParams params;
      params.k = 10;
      params.epsilon = epsilons[e];
      params.scheme = scheme;
      std::vector<double> times;
      for (NodeId q : queries) {
        rtr::WallTimer timer;
        TopKResult result;
        {  // A fresh arena per query, built and freed inside the timed work.
          rtr::core::QueryWorkspace workspace;
          CHECK(rtr::core::TopKRoundTripRank(g, {q}, params, workspace,
                                             &result)
                    .ok());
        }
        times.push_back(timer.ElapsedMillis());
        if (scheme == TopKScheme::k2SBound) {
          twosbound_results[e].push_back(std::move(result));
          twosbound_times[e].push_back(times.back());
        }
      }
      row.push_back(TablePrinter::FormatDouble(rtr::Summarize(times).mean, 1));
    }
    time_table.AddRow(std::move(row));
    std::printf("  done: %s\n", rtr::core::TopKSchemeName(scheme));
  }
  std::printf("\nFig. 11(a) — average query time:\n");
  time_table.Print();

  rtr::SummaryStats t001 = rtr::Summarize(twosbound_times[0]);
  std::printf("\n2SBound at eps=0.01: %.0f ms, 99%% CI +/- %.0f ms\n",
              t001.mean, t001.ConfidenceHalfWidth(0.99));

  // ---- Fig. 11(b): 2SBound quality vs slack.
  std::printf("\nFig. 11(b) — 2SBound approximation quality vs slack:\n");
  TablePrinter quality_table(
      {"eps", "NDCG", "precision", "Kendall tau", "time (ms)"});
  for (size_t e = 0; e < 3; ++e) {
    double ndcg = 0.0, precision = 0.0, tau = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::vector<double>& exact = exact_scores[i];
      std::vector<NodeId> exact_topk = rtr::ranking::TopKNodes(exact, 10);
      std::vector<NodeId> approx = EntryNodes(twosbound_results[e][i]);
      ndcg += rtr::eval::NdcgAtK(approx, exact_topk, 10);
      precision += rtr::eval::PrecisionAtK(approx, exact_topk, 10);
      tau += rtr::eval::KendallTauAgainstScores(approx, exact);
    }
    double n = static_cast<double>(queries.size());
    quality_table.AddRow({TablePrinter::FormatDouble(epsilons[e], 2),
                          TablePrinter::FormatDouble(ndcg / n, 4),
                          TablePrinter::FormatDouble(precision / n, 4),
                          TablePrinter::FormatDouble(tau / n, 4),
                          TablePrinter::FormatDouble(
                              rtr::Summarize(twosbound_times[e]).mean, 1)});
  }
  quality_table.Print();
  std::printf(
      "\nShape check (paper): 2SBound is ~two orders of magnitude faster\n"
      "than Naive and 2-10x faster than G+S/Gupta/Sarkar; quality stays\n"
      "high (>= 0.9) while time shrinks as the slack grows.\n");
  return 0;
}
