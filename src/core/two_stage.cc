#include "core/two_stage.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace rtr::core {
namespace {

// Stage II stops after this many sweeps per Refine (the fixpoint usually
// converges much earlier), or once a sweep's summed bound change falls
// below the tolerance.
constexpr int kMaxRefineSweeps = 30;
constexpr double kRefineTolerance = 1e-15;

// Gathers the rows of `nodes` into the workspace's local CSR (workspace.h)
// together with their teleport mass and current bounds. `row(v)` returns
// v's (endpoints, probs) spans in the sweep's direction. An arc to a node
// outside `nodes` points at the sentinel, whose lower bound is 0 and whose
// upper bound is `unseen_upper`: adding prob * 0 leaves a non-negative sum
// unchanged, so the sweeps below add exactly what a seen/unseen branch per
// arc would. ScatterLocalBounds must follow before the next gather.
template <typename RowFn>
void GatherLocalCsr(const std::vector<NodeId>& nodes, RowFn row,
                    const std::vector<double>& lower,
                    const std::vector<double>& upper, double unseen_upper,
                    QueryWorkspace& ws) {
  const uint32_t sentinel = static_cast<uint32_t>(nodes.size());
  ws.local_offsets.resize(nodes.size() + 1);
  ws.local_teleport.resize(nodes.size());
  ws.local_lower.resize(nodes.size() + 1);
  ws.local_upper.resize(nodes.size() + 1);
  ws.local_offsets[0] = 0;
  for (uint32_t j = 0; j < sentinel; ++j) {
    const NodeId v = nodes[j];
    ws.local_id[v] = j;
    ws.local_offsets[j + 1] = ws.local_offsets[j] + row(v).first.size();
    ws.local_teleport[j] = ws.teleport[v];
    ws.local_lower[j] = lower[v];
    ws.local_upper[j] = upper[v];
  }
  ws.local_lower[sentinel] = 0.0;
  ws.local_upper[sentinel] = unseen_upper;
  ws.local_arcs.resize(ws.local_offsets[sentinel]);
  ws.local_probs.resize(ws.local_offsets[sentinel]);
  for (uint32_t j = 0; j < sentinel; ++j) {
    const auto [ends, probs] = row(nodes[j]);
    const size_t first = ws.local_offsets[j];
    for (size_t i = 0; i < ends.size(); ++i) {
      // Unset ids (kNoLocalId) clamp to the sentinel.
      ws.local_arcs[first + i] = std::min(ws.local_id[ends[i]], sentinel);
    }
    std::copy(probs.begin(), probs.end(), ws.local_probs.begin() + first);
  }
}

// One Gauss-Seidel sweep of Eqs. 17-18 over the local CSR, in seen-list and
// arc order; returns the summed bound change.
double SweepLocalCsr(double one_minus_alpha, QueryWorkspace& ws) {
  const size_t count = ws.local_teleport.size();
  const size_t* offsets = ws.local_offsets.data();
  const uint32_t* arcs = ws.local_arcs.data();
  const double* probs = ws.local_probs.data();
  const double* teleport = ws.local_teleport.data();
  double* lower = ws.local_lower.data();
  double* upper = ws.local_upper.data();
  double change = 0.0;
  for (size_t j = 0; j < count; ++j) {
    double lo_sum = 0.0;
    double up_sum = 0.0;
    for (size_t a = offsets[j]; a < offsets[j + 1]; ++a) {
      lo_sum += probs[a] * lower[arcs[a]];
      up_sum += probs[a] * upper[arcs[a]];
    }
    const double lo = teleport[j] + one_minus_alpha * lo_sum;
    const double up = teleport[j] + one_minus_alpha * up_sum;
    if (lo > lower[j]) {
      change += lo - lower[j];
      lower[j] = lo;
    }
    if (up < upper[j]) {
      change += upper[j] - up;
      upper[j] = up;
    }
    if (upper[j] < lower[j]) upper[j] = lower[j];  // fp guard
  }
  return change;
}

// Writes the local bounds of `nodes` back to the dense arrays and unsets
// their local ids.
void ScatterLocalBounds(const std::vector<NodeId>& nodes, QueryWorkspace& ws,
                        std::vector<double>& lower,
                        std::vector<double>& upper) {
  for (size_t j = 0; j < nodes.size(); ++j) {
    lower[nodes[j]] = ws.local_lower[j];
    upper[nodes[j]] = ws.local_upper[j];
    ws.local_id[nodes[j]] = QueryWorkspace::kNoLocalId;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FRankBounder
// ---------------------------------------------------------------------------

FRankBounder::FRankBounder(const Graph& g, const Query& query,
                           const FBounderOptions& options, QueryWorkspace& ws)
    : graph_(g),
      options_(options),
      ws_(&ws),
      bca_(g, query, options.alpha, ws) {
  CHECK_GT(options.pick_per_expansion, 0);
  // Builds (or reuses, when the TRankBounder of the same query got there
  // first) the shared teleport vector alpha * I(q, v) of Eqs. 17-18.
  ws_->Teleport(query, options.alpha);
}

bool FRankBounder::Expand() {
  if (exhausted()) return false;
  return bca_.ProcessBest(options_.pick_per_expansion) > 0;
}

void FRankBounder::Refine() {
  InitializeBounds();
  if (options_.stage2) RefineStage2();
}

void FRankBounder::InitializeBounds() {
  // Nodes seen for the first time since the last refinement were covered by
  // the previous unseen upper bound; they inherit it so their individual
  // bound never exceeds the bound that already applied to them.
  const std::vector<NodeId>& seen = bca_.seen();
  std::vector<double>& lower = ws_->f_lower;
  std::vector<double>& upper = ws_->f_upper;
  for (size_t i = initialized_count_; i < seen.size(); ++i) {
    upper[seen[i]] = std::min(upper[seen[i]], unseen_upper_);
  }
  initialized_count_ = seen.size();

  double fresh = options_.paper_unseen_bound ? bca_.UnseenUpperBound()
                                             : bca_.GuptaUnseenUpperBound();
  unseen_upper_ = std::min(unseen_upper_, fresh);
  const std::vector<double>& rho = bca_.rho();
  for (NodeId v : seen) {
    lower[v] = std::max(lower[v], rho[v]);
    upper[v] = std::min(upper[v], rho[v] + unseen_upper_);
    // Bounds must stay consistent even under fp noise.
    upper[v] = std::max(upper[v], lower[v]);
  }
}

void FRankBounder::RefineStage2() {
  // The local CSR treats exactly the BCA-seen nodes as seen, which is what
  // IsSeen (lower > 0) says here: after InitializeBounds every seen node
  // has lower >= rho > 0 (BCA moves alpha * mu > 0 into rho), every other
  // node has lower 0, and the sweeps only raise seen lowers.
  const std::vector<NodeId>& nodes = bca_.seen();
  GatherLocalCsr(
      nodes,
      [this](NodeId v) {
        return std::pair(graph_.in_sources(v), graph_.in_probs(v));
      },
      ws_->f_lower, ws_->f_upper, unseen_upper_, *ws_);
  const double one_minus_alpha = 1.0 - options_.alpha;
  for (int sweep = 0; sweep < kMaxRefineSweeps; ++sweep) {
    if (SweepLocalCsr(one_minus_alpha, *ws_) < kRefineTolerance) break;
  }
  ScatterLocalBounds(nodes, *ws_, ws_->f_lower, ws_->f_upper);
}

// ---------------------------------------------------------------------------
// TRankBounder
// ---------------------------------------------------------------------------

TRankBounder::TRankBounder(const Graph& g, const Query& query,
                           const TBounderOptions& options, QueryWorkspace& ws)
    : graph_(g), options_(options), ws_(&ws) {
  CHECK_GT(options.pick_per_expansion, 0);
  CHECK_EQ(ws_->num_nodes(), g.num_nodes());
  const std::vector<double>& teleport = ws_->Teleport(query, options.alpha);
  // Stage I, first expansion (Sect. V-A3): S_t = {q}, lower = alpha * I,
  // upper = 1, unseen upper via Eq. 22.
  for (NodeId q : query) {
    CHECK_LT(q, g.num_nodes());
    if (ws_->t_in_seen[q]) continue;
    ws_->t_in_seen[q] = 1;
    ws_->t_seen.push_back(q);
    ws_->t_lower[q] = teleport[q];
  }
  for (NodeId q : ws_->t_seen) {
    int outside = 0;
    for (NodeId source : graph_.in_sources(q)) {
      if (!ws_->t_in_seen[source]) ++outside;
    }
    ws_->t_unseen_in[q] = outside;
    if (outside > 0) {
      ++border_count_;
      ws_->t_border.push_back(q);
    }
  }
  RecomputeUnseenUpper();
}

void TRankBounder::AddNode(NodeId v, double upper_init) {
  DCHECK(!ws_->t_in_seen[v]);
  ws_->t_in_seen[v] = 1;
  ws_->t_seen.push_back(v);
  ws_->t_lower[v] = ws_->teleport[v] > 0.0 ? ws_->teleport[v] : 0.0;
  ws_->t_upper[v] = upper_init;
}

void TRankBounder::CompactBorderList() {
  // Border membership is monotone: once unseen_in_count hits zero it stays
  // zero, so stale entries can simply be dropped.
  std::vector<NodeId>& border = ws_->t_border;
  size_t keep = 0;
  for (NodeId v : border) {
    if (ws_->t_unseen_in[v] > 0) border[keep++] = v;
  }
  border.resize(keep);
}

bool TRankBounder::Expand() {
  if (border_count_ == 0) return false;
  CompactBorderList();
  std::vector<NodeId>& border = ws_->t_border;
  DCHECK_EQ(border.size(), border_count_);

  // Pick up to m border nodes with the largest upper bounds.
  const std::vector<double>& upper = ws_->t_upper;
  size_t count =
      std::min<size_t>(options_.pick_per_expansion, border.size());
  std::partial_sort(
      border.begin(), border.begin() + count, border.end(),
      [&upper](NodeId a, NodeId b) { return upper[a] > upper[b]; });
  std::vector<NodeId>& picked = ws_->t_picked;
  picked.assign(border.begin(), border.begin() + count);

  // Bring all in-neighbors of the picked border nodes into S_t. The
  // workspace's stamped flags dedup nodes reachable through several picked
  // borders (epoch bump instead of clearing a hash set).
  std::vector<NodeId>& fresh = ws_->t_fresh;
  fresh.clear();
  StampedFlags& pending = ws_->t_pending;
  pending.NewEpoch();
  for (NodeId b : picked) {
    for (NodeId source : graph_.in_sources(b)) {
      if (!ws_->t_in_seen[source] && !pending.Test(source)) {
        pending.Set(source);
        fresh.push_back(source);
      }
    }
  }
  // Decrement the unseen-in counters of previously seen nodes that gain a
  // newly seen in-neighbor.
  for (NodeId u : fresh) {
    for (NodeId target : graph_.out_targets(u)) {
      if (ws_->t_in_seen[target]) {
        if (--ws_->t_unseen_in[target] == 0) --border_count_;
      }
    }
  }
  double upper_init = unseen_upper_;  // valid: these nodes were unseen
  for (NodeId u : fresh) AddNode(u, upper_init);
  for (NodeId u : fresh) {
    int outside = 0;
    for (NodeId source : graph_.in_sources(u)) {
      if (!ws_->t_in_seen[source]) ++outside;
    }
    ws_->t_unseen_in[u] = outside;
    if (outside > 0) {
      ++border_count_;
      border.push_back(u);
    }
  }
  return true;
}

void TRankBounder::Refine() {
  RecomputeUnseenUpper();
  RefineSweeps(options_.stage2_fixpoint ? kMaxRefineSweeps : 1);
}

void TRankBounder::RefineSweeps(int sweeps) {
  const std::vector<NodeId>& nodes = ws_->t_seen;
  GatherLocalCsr(
      nodes,
      [this](NodeId v) {
        return std::pair(graph_.out_targets(v), graph_.out_probs(v));
      },
      ws_->t_lower, ws_->t_upper, unseen_upper_, *ws_);
  std::vector<uint32_t>& border = ws_->local_border;
  border.clear();
  for (NodeId v : ws_->t_border) {
    if (ws_->t_unseen_in[v] > 0) border.push_back(ws_->local_id[v]);
  }
  const double one_minus_alpha = 1.0 - options_.alpha;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const double change = SweepLocalCsr(one_minus_alpha, *ws_);
    // RecomputeUnseenUpper over the local bounds, which the sentinel then
    // carries into the next sweep.
    double best = 0.0;
    for (uint32_t j : border) best = std::max(best, ws_->local_upper[j]);
    LowerUnseenUpper(best);
    ws_->local_upper[nodes.size()] = unseen_upper_;
    if (change < kRefineTolerance) break;
  }
  ScatterLocalBounds(nodes, *ws_, ws_->t_lower, ws_->t_upper);
}

void TRankBounder::RecomputeUnseenUpper() {
  double best = 0.0;
  for (NodeId v : ws_->t_border) {
    if (ws_->t_unseen_in[v] > 0) best = std::max(best, ws_->t_upper[v]);
  }
  LowerUnseenUpper(best);
}

void TRankBounder::LowerUnseenUpper(double border_max_upper) {
  // Eq. 22: reaching q from outside must first enter through a border node,
  // costing at least one non-teleporting step.
  if (border_count_ == 0) {
    unseen_upper_ = 0.0;
    return;
  }
  double fresh = (1.0 - options_.alpha) * border_max_upper;
  unseen_upper_ = std::min(unseen_upper_, fresh);
}

}  // namespace rtr::core
