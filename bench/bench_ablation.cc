// Ablation study (not a paper figure; DESIGN.md §6): sensitivity of 2SBound
// to its design choices — the expansion granularities m_f / m_t (the paper
// fixes 100 / 5 "based on some trial queries" and claims insensitivity),
// the Stage-II components (the Gupta/Sarkar/G+S grid), and the slack.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/twosbound.h"
#include "eval/experiment.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using rtr::NodeId;
using rtr::core::TopKParams;
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

double MeanQueryMillis(const rtr::Graph& g,
                       const std::vector<NodeId>& queries,
                       const TopKParams& params) {
  std::vector<double> times;
  for (NodeId q : queries) {
    rtr::WallTimer timer;
    {  // A fresh arena per query, built and freed inside the timed work.
      rtr::core::QueryWorkspace workspace;
      rtr::core::TopKResult result;
      CHECK(rtr::core::TopKRoundTripRank(g, {q}, params, workspace, &result)
                .ok());
    }
    times.push_back(timer.ElapsedMillis());
  }
  return rtr::Summarize(times).mean;
}

}  // namespace

int main() {
  rtr::bench::PrintBanner(
      "Ablation — 2SBound design choices",
      "Expansion granularity sweep, Stage-II component grid, slack sweep.\n"
      "K = 10 on the effectiveness-scale BibNet.");
  rtr::datasets::BibNet bibnet = rtr::bench::MakeEffectivenessBibNet();
  const rtr::Graph& g = bibnet.graph();
  const int num_queries = rtr::bench::NumEfficiencyQueries();
  std::vector<NodeId> queries = SampleQueries(g, num_queries, 4242);
  std::printf("BibNet: %zu nodes, %zu arcs, %d queries\n\n", g.num_nodes(),
              g.num_arcs(), num_queries);

  // --- (a) m_f sensitivity (paper default 100).
  {
    TablePrinter table({"m_f", "avg query ms"});
    for (int m_f : {10, 50, 100, 200, 500}) {
      TopKParams params;
      params.k = 10;
      params.epsilon = 0.01;
      params.m_f = m_f;
      table.AddRow({std::to_string(m_f),
                    TablePrinter::FormatDouble(
                        MeanQueryMillis(g, queries, params), 2)});
    }
    std::printf("(a) F-side expansion granularity m_f (m_t = 5):\n");
    table.Print();
  }

  // --- (b) m_t sensitivity (paper default 5).
  {
    TablePrinter table({"m_t", "avg query ms"});
    for (int m_t : {1, 5, 20, 100}) {
      TopKParams params;
      params.k = 10;
      params.epsilon = 0.01;
      params.m_t = m_t;
      table.AddRow({std::to_string(m_t),
                    TablePrinter::FormatDouble(
                        MeanQueryMillis(g, queries, params), 2)});
    }
    std::printf("\n(b) T-side expansion granularity m_t (m_f = 100):\n");
    table.Print();
  }

  // --- (c) Stage-II component grid: which side's machinery buys the
  // speedup (this is the Fig. 11 scheme grid read as an ablation).
  {
    TablePrinter table({"F bound + Stage II", "T fixpoint", "scheme",
                        "avg query ms"});
    struct Cell {
      TopKScheme scheme;
      const char* f_on;
      const char* t_on;
    };
    const Cell grid[] = {
        {TopKScheme::k2SBound, "yes", "yes"},
        {TopKScheme::kSarkar, "yes", "no"},
        {TopKScheme::kGupta, "no", "yes"},
        {TopKScheme::kGPlusS, "no", "no"},
    };
    for (const Cell& cell : grid) {
      TopKParams params;
      params.k = 10;
      params.epsilon = 0.01;
      params.scheme = cell.scheme;
      table.AddRow({cell.f_on, cell.t_on,
                    rtr::core::TopKSchemeName(cell.scheme),
                    TablePrinter::FormatDouble(
                        MeanQueryMillis(g, queries, params), 2)});
    }
    std::printf("\n(c) two-stage components (eps = 0.01):\n");
    table.Print();
  }

  // --- (d) slack sweep beyond the paper's range.
  {
    TablePrinter table({"eps", "avg query ms", "avg rounds"});
    for (double eps : {0.0001, 0.001, 0.01, 0.03, 0.1}) {
      TopKParams params;
      params.k = 10;
      params.epsilon = eps;
      std::vector<double> times, rounds;
      for (NodeId q : queries) {
        rtr::WallTimer timer;
        rtr::core::TopKResult result;
        {
          rtr::core::QueryWorkspace workspace;
          CHECK(rtr::core::TopKRoundTripRank(g, {q}, params, workspace,
                                             &result)
                    .ok());
        }
        times.push_back(timer.ElapsedMillis());
        rounds.push_back(result.rounds);
      }
      table.AddRow({TablePrinter::FormatDouble(eps, 4),
                    TablePrinter::FormatDouble(rtr::Summarize(times).mean, 2),
                    TablePrinter::FormatDouble(
                        rtr::Summarize(rounds).mean, 1)});
    }
    std::printf("\n(d) slack sweep (2SBound):\n");
    table.Print();
  }
  std::printf("\nExpected: flat-ish (a)/(b) near the paper defaults "
              "(insensitivity claim),\nthe full scheme fastest in (c), and "
              "monotone cost in (d).\n");
  return 0;
}
