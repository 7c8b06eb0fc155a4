#include "core/twosbound.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/trace.h"
#include "ranking/pagerank.h"
#include "util/logging.h"

namespace rtr::core {
namespace {

// Safety cap on expansion rounds.
constexpr int kMaxRounds = 1000000;

// Tracing reads the clock only at geometric check boundaries (O(log rounds)
// reads per query), never inside the per-round Expand loop.
inline int64_t TraceNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Builds the scheme-specific bounder options.
FBounderOptions MakeFOptions(const TopKParams& params) {
  FBounderOptions options;
  options.alpha = params.alpha;
  options.pick_per_expansion = params.m_f;
  bool weakened = params.scheme == TopKScheme::kGupta ||
                  params.scheme == TopKScheme::kGPlusS;
  options.paper_unseen_bound = !weakened;
  options.stage2 = !weakened;
  return options;
}

TBounderOptions MakeTOptions(const TopKParams& params) {
  TBounderOptions options;
  options.alpha = params.alpha;
  options.pick_per_expansion = params.m_t;
  bool weakened = params.scheme == TopKScheme::kSarkar ||
                  params.scheme == TopKScheme::kGPlusS;
  options.stage2_fixpoint = !weakened;
  return options;
}

// Exact top-K through the workspace's reusable power-iteration buffers.
void NaiveTopKInto(const Graph& g, const Query& query,
                   const TopKParams& params, QueryWorkspace& ws,
                   TopKResult* result) {
  ranking::WalkParams walk;
  walk.alpha = params.alpha;
  ranking::FRankInto(g, query, walk, &ws.exact_f, &ws.exact_scratch);
  ranking::TRankInto(g, query, walk, &ws.exact_t, &ws.exact_scratch);
  std::vector<double>& scores = ws.exact_scores;
  scores.resize(g.num_nodes());
  for (size_t v = 0; v < scores.size(); ++v) {
    scores[v] = ws.exact_f[v] * ws.exact_t[v];
  }
  std::vector<NodeId>& ids = ws.exact_ids;
  ids.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  size_t keep = std::min<size_t>(params.k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + keep, ids.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  result->converged = true;
  for (size_t i = 0; i < keep; ++i) {
    result->entries.push_back({ids[i], scores[ids[i]], scores[ids[i]]});
  }
  // The naive method's working set is the whole graph.
  result->active_nodes = g.num_nodes();
  result->active_arcs = g.num_arcs();
  result->active_set_bytes = g.MemoryBytes();
}

}  // namespace

const char* TopKSchemeName(TopKScheme scheme) {
  switch (scheme) {
    case TopKScheme::k2SBound:
      return "2SBound";
    case TopKScheme::kGupta:
      return "Gupta";
    case TopKScheme::kSarkar:
      return "Sarkar";
    case TopKScheme::kGPlusS:
      return "G+S";
    case TopKScheme::kNaive:
      return "Naive";
  }
  return "unknown";
}

std::vector<double> ExactRoundTripRankScores(const Graph& g,
                                             const Query& query,
                                             double alpha) {
  ranking::WalkParams params;
  params.alpha = alpha;
  std::vector<double> f = ranking::FRank(g, query, params);
  std::vector<double> t = ranking::TRank(g, query, params);
  std::vector<double> scores(g.num_nodes());
  for (size_t v = 0; v < scores.size(); ++v) scores[v] = f[v] * t[v];
  return scores;
}

Status TopKRoundTripRank(const Graph& g, const Query& query,
                         const TopKParams& params, QueryWorkspace& ws,
                         TopKResult* result) {
  if (params.k <= 0) return Status::InvalidArgument("k must be positive");
  if (!(params.epsilon >= 0.0)) {  // NaN fails this too
    return Status::InvalidArgument("epsilon must be a non-negative number");
  }
  if (params.m_f <= 0 || params.m_t <= 0) {
    return Status::InvalidArgument("m_f and m_t must be positive");
  }
  if (!(params.alpha > 0.0 && params.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (query.empty()) return Status::InvalidArgument("empty query");
  for (NodeId q : query) {
    if (q >= g.num_nodes()) {
      return Status::InvalidArgument("query node out of range");
    }
  }
  result->Clear();
  ws.BeginQuery(g.num_nodes());
  if (params.scheme == TopKScheme::kNaive) {
    NaiveTopKInto(g, query, params, ws, result);
    return Status::OK();
  }

  FRankBounder f_bounder(g, query, MakeFOptions(params), ws);
  TRankBounder t_bounder(g, query, MakeTOptions(params), ws);
  const size_t k = static_cast<size_t>(params.k);

  // Expansion rounds between check boundaries accrue to the Stage I span;
  // the Refine + bounds-evaluation section at each boundary accrues to the
  // Stage II span. `segment_start` carries the running segment's origin.
  obs::TraceRecorder* const trace = ws.trace;
  int64_t segment_start = trace != nullptr ? TraceNowNanos() : 0;
  auto close_segment = [&](obs::Phase phase) {
    if (trace == nullptr) return;
    const int64_t now = TraceNowNanos();
    trace->AddSpanAt(phase, now, now - segment_start);
    segment_start = now;
  };

  using Candidate = QueryWorkspace::Candidate;
  std::vector<Candidate>& candidates = ws.candidates;
  // Checking the top-K conditions costs O(|S_f| + |S_t|); schemes with weak
  // bounds can need thousands of expansion rounds, so checks back off
  // geometrically instead of running every round.
  int next_check = 1;
  for (int round = 1; round <= kMaxRounds; ++round) {
    result->rounds = round;
    // Stage I on both sides every round (cheap, amortized O(new work)).
    bool f_progress = f_bounder.Expand();
    bool t_progress = t_bounder.Expand();
    bool exhausted = !f_progress && !t_progress;
    if (round < next_check && !exhausted && round < kMaxRounds) {
      continue;
    }
    close_segment(obs::Phase::kStage1Expand);
    next_check = std::max(next_check + 1,
                          static_cast<int>(next_check * 1.25));
    // Bound initialization + Stage II refinement cost O(|neighborhood|), so
    // they run only when the top-K conditions are about to be evaluated.
    f_bounder.Refine();
    t_bounder.Refine();

    // Bounds decomposition (Eq. 15): the r-neighborhood is S_f ∩ S_t.
    candidates.clear();
    const std::vector<NodeId>& f_seen = f_bounder.seen();
    double max_f_only_upper = 0.0;  // max over S_f \ S of f-hat(q, v)
    for (NodeId v : f_seen) {
      if (t_bounder.IsSeen(v)) {
        candidates.push_back({v, f_bounder.Lower(v) * t_bounder.Lower(v),
                              f_bounder.Upper(v) * t_bounder.Upper(v)});
      } else {
        max_f_only_upper = std::max(max_f_only_upper, f_bounder.Upper(v));
      }
    }
    double max_t_only_upper = 0.0;  // max over S_t \ S of t-hat(q, v)
    for (NodeId v : t_bounder.seen()) {
      if (!f_bounder.IsSeen(v)) {
        max_t_only_upper = std::max(max_t_only_upper, t_bounder.Upper(v));
      }
    }
    // Unseen upper bound (Eq. 16).
    double f_unseen = f_bounder.UnseenUpper();
    double t_unseen = t_bounder.UnseenUpper();
    double unseen_upper =
        std::max({f_unseen * t_unseen, max_f_only_upper * t_unseen,
                  f_unseen * max_t_only_upper});

    // Candidate ranking by lower bound.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.lower != b.lower) return a.lower > b.lower;
                return a.node < b.node;
              });

    bool enough = candidates.size() >= k;
    if (enough || exhausted) {
      size_t keep = std::min(k, candidates.size());
      bool ok = true;
      if (keep > 0 && candidates.size() >= keep) {
        // Eq. 13: no other node may beat the K-th by more than epsilon.
        double kth_lower = candidates[keep - 1].lower;
        double best_other = unseen_upper;
        for (size_t i = keep; i < candidates.size(); ++i) {
          best_other = std::max(best_other, candidates[i].upper);
        }
        if (!(kth_lower > best_other - params.epsilon)) ok = false;
        // Eq. 14: adjacent pairs must be ordered within epsilon.
        for (size_t i = 0; ok && i + 1 < keep; ++i) {
          if (!(candidates[i].lower > candidates[i + 1].upper -
                                          params.epsilon)) {
            ok = false;
          }
        }
      }
      if ((ok && enough) || exhausted) {
        result->converged = ok || exhausted;
        size_t out = std::min(k, candidates.size());
        for (size_t i = 0; i < out; ++i) {
          result->entries.push_back(
              {candidates[i].node, candidates[i].lower, candidates[i].upper});
        }
        close_segment(obs::Phase::kStage2Refine);
        break;
      }
    }
    if (round == kMaxRounds) {
      // Out of budget: report the current best effort, unconverged.
      size_t out = std::min(k, candidates.size());
      for (size_t i = 0; i < out; ++i) {
        result->entries.push_back(
            {candidates[i].node, candidates[i].lower, candidates[i].upper});
      }
    }
    close_segment(obs::Phase::kStage2Refine);
  }

  // Active set accounting (Sect. V-B1): nodes of either neighborhood plus
  // their incident arcs. Sorted union of the two seen lists — O(s log s) in
  // the active-set size instead of the former O(num_nodes) scan.
  obs::ScopedSpan finalize_span(trace, obs::Phase::kFinalize);
  std::vector<NodeId>& active = ws.active_scratch;
  active.assign(f_bounder.seen().begin(), f_bounder.seen().end());
  active.insert(active.end(), t_bounder.seen().begin(),
                t_bounder.seen().end());
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  size_t arcs = 0;
  for (NodeId v : active) {
    arcs += g.out_degree(v) + g.in_degree(v);
    result->active_node_ids.push_back(v);
  }
  result->active_nodes = active.size();
  result->active_arcs = arcs;
  result->active_set_bytes = active.size() * kActiveNodeRecordBytes +
                             arcs * kActiveArcRecordBytes;
  return Status::OK();
}

}  // namespace rtr::core
