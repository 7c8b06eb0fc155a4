#include "core/workspace.h"

namespace rtr::core {

// ---------------------------------------------------------------------------
// NodeHeap
// ---------------------------------------------------------------------------

void NodeHeap::Reset(size_t n) {
  for (const Slot& entry : heap_) pos_[entry.node] = kNotInHeap;
  heap_.clear();
  if (pos_.size() != n) pos_.assign(n, kNotInHeap);
}

void NodeHeap::RemoveSlot(uint32_t slot) {
  DCHECK_LT(slot, heap_.size());
  pos_[heap_[slot].node] = kNotInHeap;
  const Slot last = heap_.back();
  heap_.pop_back();
  if (slot == heap_.size()) return;
  // The replacement came from the bottom: usually it sinks. If it stays in
  // the hole it may still need to rise (when the removed entry was not an
  // ancestor of the last slot).
  if (SiftDown(slot, last) == slot) SiftUp(slot, last);
}

uint32_t NodeHeap::SiftDown(uint32_t slot, Slot entry) {
  const uint32_t count = static_cast<uint32_t>(heap_.size());
  for (;;) {
    // The first child strictly greater than the best seen so far.
    uint32_t best = slot;
    double best_priority = entry.priority;
    const uint32_t first_child = slot * 4 + 1;
    const uint32_t last_child = std::min<uint32_t>(first_child + 4, count);
    for (uint32_t c = first_child; c < last_child; ++c) {
      if (heap_[c].priority > best_priority) {
        best = c;
        best_priority = heap_[c].priority;
      }
    }
    if (best == slot) break;
    Place(slot, heap_[best]);
    slot = best;
  }
  Place(slot, entry);
  return slot;
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
    local_id.assign(n, kNoLocalId);
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
