#ifndef RTR_CORE_BCA_H_
#define RTR_CORE_BCA_H_

#include <vector>

#include "core/workspace.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace rtr::core {

// Bookmark-Coloring Algorithm (Berkhin [19]) state for one query: an
// incremental, residual-based computation of F-Rank/PPR.
//
// Invariant: f(q, v) = rho(v) + sum_u mu(u) * f(u, v), so rho(v) is a lower
// bound of f(q, v) that tightens as residual is pushed (Eq. 20), and the
// remaining residual mass bounds everything unseen (Prop. 4).
//
// Node selection uses the workspace's position-tracked 4-ary benefit heap
// (core::NodeHeap): every residual update re-keys the node in place, so the
// heap holds at most one entry per node and pops never skip stale entries.
// The maximum residual, which only the unseen bound reads (once per Stage
// II check, not per push), is a scan of mu over mu_touched instead of a
// second heap that every push would have to sift.
//
// All dense per-query state (rho, mu, seen flags, heap storage) lives in
// the caller's QueryWorkspace, which the Bca borrows.
//
// Multi-node queries place 1/|Q| initial residual on each query node
// (Linearity Theorem).
class Bca {
 public:
  // Borrows `ws`, on which the caller must have called
  // BeginQuery(g.num_nodes()) and not yet run another Bca.
  Bca(const Graph& g, const Query& query, double alpha, QueryWorkspace& ws);

  Bca(const Bca&) = delete;
  Bca& operator=(const Bca&) = delete;

  // One BCA processing step on node v: moves alpha * mu(v) into rho(v),
  // spreads (1 - alpha) * mu(v) to out-neighbors, zeroes mu(v). On a
  // dangling node the non-teleporting mass dies (the walk cannot continue),
  // consistent with the iterative model of Eq. 5.
  void Process(NodeId v);

  // Applies Process to up to `m` nodes with the largest positive benefit
  // mu(v) / max(out_degree(v), 1) — the expansion strategy of Sect. V-A
  // (reduce residual fast, prefer cheap nodes). Returns how many nodes were
  // processed (0 when no residual remains).
  int ProcessBest(int m);

  double alpha() const { return alpha_; }
  const std::vector<double>& rho() const { return ws_->rho; }
  const std::vector<double>& mu() const { return ws_->mu; }

  // Total outstanding residual (kept incrementally; asymptotically -> 0).
  double total_residual() const { return total_residual_; }
  // Maximum single-node residual (exact; O(|mu_touched|), a scan of every
  // node that ever held residual this query).
  double MaxResidual() const;

  // Nodes with rho > 0 — the f-neighborhood S_f. Stable insertion order.
  const std::vector<NodeId>& seen() const { return ws_->bca_seen; }

  // Unseen upper bound of Prop. 4 (Eq. 19): accounts for residual repeatedly
  // returning to a node, U / (2 - alpha).
  double UnseenUpperBound() const;

  // The weaker first-visit-only bound used by the Gupta baseline scheme
  // [16]: all residual mass could still reach any node once, so
  // f(q, v) <= rho(v) + total_residual.
  double GuptaUnseenUpperBound() const { return total_residual_; }

 private:
  void AddResidual(NodeId v, double amount);
  double Benefit(NodeId v) const;

  const Graph& graph_;
  double alpha_;
  QueryWorkspace* ws_;  // borrowed
  double total_residual_ = 0.0;
};

}  // namespace rtr::core

#endif  // RTR_CORE_BCA_H_
