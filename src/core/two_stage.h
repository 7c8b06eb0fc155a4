#ifndef RTR_CORE_TWO_STAGE_H_
#define RTR_CORE_TWO_STAGE_H_

#include <vector>

#include "core/bca.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace rtr::core {

// The two-stage bounds updating framework of Sect. V-A3, realized once for
// F-Rank (BCA-driven) and once for T-Rank (border-node driven).
//
// Each bounder exposes the two stages separately:
//  * Expand() — Stage I neighborhood growth. Amortized O(new work): BCA
//    pushes on the F side, border-frontier absorption on the T side.
//  * Refine() — bound (re)initialization plus Stage II iterative refinement
//    (Eqs. 17-18) to a fixpoint. Costs O(|neighborhood|); the 2SBound driver
//    therefore calls it only when it is about to evaluate the top-K
//    conditions. Bounds are valid at all times — skipping refinement only
//    leaves them looser (never wrong).
//
// All dense per-query state (teleport, lower/upper bound arrays, seen
// flags, the border list) lives in the caller's QueryWorkspace. Both
// bounders of one query borrow the same workspace (their arrays are
// disjoint, the teleport vector is shared).
//
// The baseline schemes of Fig. 11 are expressed through the options:
//  * Gupta  — F-side: first-visit residual bound instead of Prop. 4, and no
//             Stage II on F.
//  * Sarkar — T-side: a single refinement sweep instead of the fixpoint.
//  * G+S    — both weakenings at once.

// Options of the F-Rank bounder.
struct FBounderOptions {
  double alpha = 0.25;
  // Nodes picked per Stage-I expansion (paper: m = 100).
  int pick_per_expansion = 100;
  // Use the Prop. 4 (Eq. 19) unseen bound; false = Gupta first-visit bound.
  bool paper_unseen_bound = true;
  // Run Stage II iterative refinement.
  bool stage2 = true;
};

// Maintains S_f with lower/upper F-Rank bounds for every seen node and a
// common unseen upper bound.
class FRankBounder {
 public:
  // Borrows `ws`, on which the caller must have called
  // BeginQuery(g.num_nodes()).
  FRankBounder(const Graph& g, const Query& query,
               const FBounderOptions& options, QueryWorkspace& ws);

  FRankBounder(const FRankBounder&) = delete;
  FRankBounder& operator=(const FRankBounder&) = delete;

  // Stage I: one BCA expansion. Returns false (no-op) once all residual is
  // exhausted.
  bool Expand();

  // Bound initialization from the current BCA state (Prop. 4) + Stage II
  // refinement when enabled.
  void Refine();

  // Convenience for tests and simple drivers: Expand and, if any progress
  // was made, Refine. Returns Expand's result.
  bool ExpandAndRefine() {
    bool progress = Expand();
    if (progress) Refine();
    return progress;
  }

  // True when BCA has no residual left: rho == f exactly (up to fp error).
  bool exhausted() const { return bca_.total_residual() <= 1e-15; }

  const std::vector<NodeId>& seen() const { return bca_.seen(); }
  // A node counts as seen once its bounds have been initialized (i.e.,
  // after the Refine following its first BCA touch).
  bool IsSeen(NodeId v) const { return ws_->f_lower[v] > 0.0; }

  double Lower(NodeId v) const { return ws_->f_lower[v]; }
  // Individual bound for seen nodes; the unseen bound otherwise.
  double Upper(NodeId v) const {
    return IsSeen(v) ? ws_->f_upper[v] : unseen_upper_;
  }
  double UnseenUpper() const { return unseen_upper_; }

 private:
  void InitializeBounds();
  void RefineStage2();

  const Graph& graph_;
  FBounderOptions options_;
  QueryWorkspace* ws_;  // borrowed
  Bca bca_;
  double unseen_upper_ = 1.0;
  // Number of seen nodes whose upper bound has been initialized.
  size_t initialized_count_ = 0;
};

// Options of the T-Rank bounder.
struct TBounderOptions {
  double alpha = 0.25;
  // Border nodes picked per Stage-I expansion (paper: m = 5).
  int pick_per_expansion = 5;
  // Run Stage II refinement to a fixpoint; false = one sweep per Refine
  // (the Sarkar baseline).
  bool stage2_fixpoint = true;
};

// Maintains S_t with lower/upper T-Rank bounds, the border set, and the
// Eq. 22 unseen upper bound. Border membership is monotone (in-neighbors
// are only ever added), so the border list is maintained incrementally with
// lazy deletion.
class TRankBounder {
 public:
  // Borrows `ws`, on which the caller must have called
  // BeginQuery(g.num_nodes()).
  TRankBounder(const Graph& g, const Query& query,
               const TBounderOptions& options, QueryWorkspace& ws);

  TRankBounder(const TRankBounder&) = delete;
  TRankBounder& operator=(const TRankBounder&) = delete;

  // Stage I: absorb the in-neighborhoods of up to m border nodes with the
  // largest upper bounds. Returns false when no border remains.
  bool Expand();

  // Eq. 22 unseen-bound update + Stage II refinement sweeps.
  void Refine();

  bool ExpandAndRefine() {
    bool progress = Expand();
    if (progress) Refine();
    return progress;
  }

  // True when no node outside S_t can reach the query.
  bool closed() const { return border_count_ == 0; }

  const std::vector<NodeId>& seen() const { return ws_->t_seen; }
  bool IsSeen(NodeId v) const { return ws_->t_in_seen[v] != 0; }

  double Lower(NodeId v) const { return IsSeen(v) ? ws_->t_lower[v] : 0.0; }
  double Upper(NodeId v) const {
    return IsSeen(v) ? ws_->t_upper[v] : unseen_upper_;
  }
  double UnseenUpper() const { return unseen_upper_; }

  bool IsBorder(NodeId v) const {
    return IsSeen(v) && ws_->t_unseen_in[v] > 0;
  }

 private:
  void AddNode(NodeId v, double upper_init);
  void CompactBorderList();
  void RefineSweeps(int sweeps);
  void RecomputeUnseenUpper();

  const Graph& graph_;
  TBounderOptions options_;
  QueryWorkspace* ws_;  // borrowed
  double unseen_upper_ = 1.0;
  size_t border_count_ = 0;
};

}  // namespace rtr::core

#endif  // RTR_CORE_TWO_STAGE_H_
