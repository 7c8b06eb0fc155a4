#include "core/two_stage.h"

#include <algorithm>
#include <cmath>

#include "util/dense_kernels.h"
#include "util/logging.h"

namespace {

// Prefetch distance for the Stage-II refinement sweeps: the seen-node order
// is query-dependent (BCA discovery order), so the hardware prefetcher
// cannot predict the adjacency rows; software prefetch of the row ~8 nodes
// ahead hides the column-load latency. The offsets array itself is dense
// and hot, so reading offsets[w] up front costs nothing.
constexpr size_t kRefinePrefetchDistance = 8;

// Stage II stops after this many sweeps per Refine (the fixpoint usually
// converges much earlier), or once a sweep's summed bound change falls
// below the tolerance.
constexpr int kMaxRefineSweeps = 30;
constexpr double kRefineTolerance = 1e-15;

}  // namespace

namespace rtr::core {

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
  const double one_minus_alpha = 1.0 - options_.alpha;
  const std::vector<NodeId>& nodes = bca_.seen();
  const std::vector<double>& teleport = ws_->teleport;
  std::vector<double>& lower = ws_->f_lower;
  std::vector<double>& upper = ws_->f_upper;
  const size_t* in_off = graph_.in_offsets().data();
  const NodeId* in_src = graph_.in_sources().data();
  const double* in_probs = graph_.in_probs().data();
  for (int sweep = 0; sweep < kMaxRefineSweeps; ++sweep) {
    double change = 0.0;
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (j + kRefinePrefetchDistance < nodes.size()) {
        const NodeId w = nodes[j + kRefinePrefetchDistance];
        const size_t row = in_off[w];
        util::PrefetchRead(in_src + row);
        util::PrefetchRead(in_probs + row);
        util::PrefetchRead(&lower[w]);
      }
      const NodeId v = nodes[j];
      double lo_sum = 0.0;
      double up_sum = 0.0;
      auto sources = graph_.in_sources(v);
      auto probs = graph_.in_probs(v);
      for (size_t i = 0; i < sources.size(); ++i) {
        if (IsSeen(sources[i])) {
          lo_sum += probs[i] * lower[sources[i]];
          up_sum += probs[i] * upper[sources[i]];
        } else {
          up_sum += probs[i] * unseen_upper_;
        }
      }
      double lo = teleport[v] + one_minus_alpha * lo_sum;
      double up = teleport[v] + one_minus_alpha * up_sum;
      if (lo > lower[v]) {
        change += lo - lower[v];
        lower[v] = lo;
      }
      if (up < upper[v]) {
        change += upper[v] - up;
        upper[v] = up;
      }
      if (upper[v] < lower[v]) upper[v] = lower[v];  // fp guard
    }
    if (change < kRefineTolerance) break;
  }
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
  const double one_minus_alpha = 1.0 - options_.alpha;
  const std::vector<NodeId>& nodes = ws_->t_seen;
  const std::vector<double>& teleport = ws_->teleport;
  const std::vector<uint8_t>& in_seen = ws_->t_in_seen;
  std::vector<double>& lower = ws_->t_lower;
  std::vector<double>& upper = ws_->t_upper;
  const size_t* out_off = graph_.out_offsets().data();
  const NodeId* out_tgt = graph_.out_targets().data();
  const double* out_probs = graph_.out_probs().data();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    double change = 0.0;
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (j + kRefinePrefetchDistance < nodes.size()) {
        const NodeId w = nodes[j + kRefinePrefetchDistance];
        const size_t row = out_off[w];
        util::PrefetchRead(out_tgt + row);
        util::PrefetchRead(out_probs + row);
        util::PrefetchRead(&lower[w]);
      }
      const NodeId v = nodes[j];
      double lo_sum = 0.0;
      double up_sum = 0.0;
      auto targets = graph_.out_targets(v);
      auto probs = graph_.out_probs(v);
      for (size_t i = 0; i < targets.size(); ++i) {
        if (in_seen[targets[i]]) {
          lo_sum += probs[i] * lower[targets[i]];
          up_sum += probs[i] * upper[targets[i]];
        } else {
          up_sum += probs[i] * unseen_upper_;
        }
      }
      double lo = teleport[v] + one_minus_alpha * lo_sum;
      double up = teleport[v] + one_minus_alpha * up_sum;
      if (lo > lower[v]) {
        change += lo - lower[v];
        lower[v] = lo;
      }
      if (up < upper[v]) {
        change += upper[v] - up;
        upper[v] = up;
      }
      if (upper[v] < lower[v]) upper[v] = lower[v];  // fp guard
    }
    RecomputeUnseenUpper();
    if (change < kRefineTolerance) break;
  }
}

void TRankBounder::RecomputeUnseenUpper() {
  // Eq. 22: reaching q from outside must first enter through a border node,
  // costing at least one non-teleporting step.
  if (border_count_ == 0) {
    unseen_upper_ = 0.0;
    return;
  }
  double best = 0.0;
  for (NodeId v : ws_->t_border) {
    if (ws_->t_unseen_in[v] > 0) best = std::max(best, ws_->t_upper[v]);
  }
  double fresh = (1.0 - options_.alpha) * best;
  unseen_upper_ = std::min(unseen_upper_, fresh);
}

}  // namespace rtr::core
