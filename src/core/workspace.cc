#include "core/workspace.h"

namespace rtr::core {

// ---------------------------------------------------------------------------
// NodeHeap
// ---------------------------------------------------------------------------

void NodeHeap::Reset(size_t n) {
  for (NodeId v : node_) pos_[v] = kNotInHeap;
  node_.clear();
  prio_.clear();
  if (pos_.size() != n) pos_.assign(n, kNotInHeap);
}

void NodeHeap::RemoveSlot(uint32_t slot) {
  DCHECK_LT(slot, node_.size());
  pos_[node_[slot]] = kNotInHeap;
  const uint32_t last = static_cast<uint32_t>(node_.size()) - 1;
  if (slot != last) {
    node_[slot] = node_[last];
    prio_[slot] = prio_[last];
    pos_[node_[slot]] = slot;
    node_.pop_back();
    prio_.pop_back();
    // The replacement came from the bottom: usually it sinks. If SiftDown
    // leaves it in place it may still need to rise (when the removed entry
    // was not an ancestor of the last slot); SiftUp is a no-op otherwise.
    SiftDown(slot);
    SiftUp(slot);
  } else {
    node_.pop_back();
    prio_.pop_back();
  }
}

void NodeHeap::SiftDown(uint32_t slot) {
  const uint32_t count = static_cast<uint32_t>(node_.size());
  for (;;) {
    uint32_t best = slot;
    const uint32_t first_child = slot * 4 + 1;
    const uint32_t last_child = std::min<uint32_t>(first_child + 4, count);
    for (uint32_t c = first_child; c < last_child; ++c) {
      if (prio_[c] > prio_[best]) best = c;
    }
    if (best == slot) return;
    SwapSlots(slot, best);
    slot = best;
  }
}

// ---------------------------------------------------------------------------
// QueryWorkspace
// ---------------------------------------------------------------------------

void QueryWorkspace::BeginQuery(size_t n) {
  if (n != num_nodes_) {
    rho.assign(n, 0.0);
    mu.assign(n, 0.0);
    bca_in_seen.assign(n, 0);
    teleport.assign(n, 0.0);
    f_lower.assign(n, 0.0);
    f_upper.assign(n, 1.0);
    t_in_seen.assign(n, 0);
    t_lower.assign(n, 0.0);
    t_upper.assign(n, 1.0);
    t_unseen_in.assign(n, 0);
    num_nodes_ = n;
  } else {
    for (NodeId v : mu_touched) mu[v] = 0.0;
    for (NodeId v : bca_seen) {
      rho[v] = 0.0;
      bca_in_seen[v] = 0;
      f_lower[v] = 0.0;
      f_upper[v] = 1.0;
    }
    for (NodeId v : teleport_touched) teleport[v] = 0.0;
    for (NodeId v : t_seen) {
      t_in_seen[v] = 0;
      t_lower[v] = 0.0;
      t_upper[v] = 1.0;
      t_unseen_in[v] = 0;
    }
  }
  mu_touched.clear();
  bca_seen.clear();
  teleport_touched.clear();
  teleport_built_ = false;
  t_seen.clear();
  t_border.clear();
  t_picked.clear();
  t_fresh.clear();
  candidates.clear();
  active_scratch.clear();
  benefit_heap.Reset(n);
  residual_heap.Reset(n);
  t_pending.Reset(n);
}

const std::vector<double>& QueryWorkspace::Teleport(const Query& query,
                                                    double alpha) {
  if (!teleport_built_) {
    const double mass = alpha / static_cast<double>(query.size());
    for (NodeId q : query) {
      CHECK_LT(q, num_nodes_);
      if (teleport[q] == 0.0) teleport_touched.push_back(q);
      teleport[q] += mass;
    }
    teleport_built_ = true;
    teleport_alpha_ = alpha;
  } else {
    // Both bounders of one query must agree on alpha, or the second would
    // silently score with the first's teleport vector. Hard CHECK (not
    // DCHECK): the mismatch is a caller bug that would corrupt rankings,
    // and the test costs one compare per query.
    CHECK_EQ(teleport_alpha_, alpha);
  }
  return teleport;
}

}  // namespace rtr::core
