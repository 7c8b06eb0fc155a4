#ifndef RTR_CORE_WORKSPACE_H_
#define RTR_CORE_WORKSPACE_H_

// Per-query workspace arena for the online top-K path (DESIGN.md §7).
//
// A QueryWorkspace owns every piece of O(num_nodes) per-query state of the
// 2SBound engine (teleport/score vectors, seen-flag arrays, BCA's heap,
// the Stage II local CSR)
// once — per worker thread in serve::QueryService — and readies it for the
// next query in O(state touched by the previous query). It is the one way
// to run the engine: TopKRoundTripRank, dist::DistributedTopK, Bca and the
// two bounders all borrow the caller's workspace and never own one. The
// reset strategies:
//
//  * dense arrays whose touched entries are enumerated by an existing list
//    (BCA's seen list, the T-side seen list, the query itself) are plain
//    vectors reset by walking that list — their hot-loop reads stay a
//    single load;
//  * sets with no natural touched list use generation stamps
//    (StampedFlags): an epoch bump invalidates every entry in O(1), and
//    the stamp array is only hard-cleared on growth or u32 epoch wrap;
//  * BCA's node selection uses one position-tracked 4-ary heap (NodeHeap)
//    whose storage persists across queries;
//  * the Stage II local CSR needs no reset: each refine overwrites the
//    arrays it reads and unsets the local ids it set.
//
// After one warm-up query at a given graph size, a steady-state 2SBound
// query performs zero heap allocations (asserted by bench_micro's
// operator-new interposer). Reusing a workspace never changes results:
// scores are bit-identical to a fresh-workspace run
// (tests/core/workspace_test.cc).
//
// Thread safety: none — one workspace per thread. The Graph it is used
// against may be shared freely (graph/graph.h).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace rtr::obs {
class TraceRecorder;
}  // namespace rtr::obs

namespace rtr::core {

// Epoch-stamped membership set over [0, n): Test(i) is true iff Set(i) was
// called since the last Reset/NewEpoch. Invalidation is O(1) — the stamp
// array is hard-cleared only on growth or when the u32 epoch wraps (once
// every ~4 billion epochs).
class StampedFlags {
 public:
  void Reset(size_t n) {
    if (stamps_.size() != n) {
      stamps_.assign(n, 0);
      epoch_ = 1;
      return;
    }
    NewEpoch();
  }

  // Invalidates every entry without resizing.
  void NewEpoch() {
    if (++epoch_ == 0) {  // wrap: stamp 0 must keep meaning "never set"
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  size_t size() const { return stamps_.size(); }
  bool Test(size_t i) const {
    DCHECK_LT(i, stamps_.size());
    return stamps_[i] == epoch_;
  }
  void Set(size_t i) {
    DCHECK_LT(i, stamps_.size());
    stamps_[i] = epoch_;
  }

  uint32_t epoch() const { return epoch_; }
  // Drives the epoch to the wrap boundary (workspace_test only).
  void ForceEpochForTest(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

// Position-tracked 4-ary max-heap over (priority, node) with at most one
// entry per node. Update() inserts or re-keys in place (sift up on grown
// priorities — the common case, BCA benefits only grow between processings
// — sift down on shrunk ones), so there are no stale entries to skip on pop
// and no periodic compaction. Entries are one array of {priority, node}
// slots, and a sift moves a hole instead of swapping: each level it passes
// costs one slot copy and one pos_ write. 4-ary: half the cache-missing
// levels of a binary heap on the mostly-sift-up push pattern. Ties resolve
// deterministically: an entry rises past a parent only when strictly
// greater, and sinks to the first strictly greater of its children.
// Storage persists across queries; Reset is O(live entries).
class NodeHeap {
 public:
  static constexpr uint32_t kNotInHeap = 0xffffffffu;

  // O(live entries) + O(1) amortized; storage is kept.
  void Reset(size_t n);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  bool Contains(NodeId v) const {
    DCHECK_LT(v, pos_.size());
    return pos_[v] != kNotInHeap;
  }
  double Priority(NodeId v) const {
    DCHECK(Contains(v));
    return heap_[pos_[v]].priority;
  }

  NodeId top() const {
    DCHECK(!empty());
    return heap_[0].node;
  }
  double top_priority() const {
    DCHECK(!empty());
    return heap_[0].priority;
  }

  // Inserts v or re-keys it to `priority`.
  void Update(NodeId v, double priority) {
    DCHECK_LT(v, pos_.size());
    const uint32_t slot = pos_[v];
    if (slot == kNotInHeap) {
      heap_.push_back({priority, v});
      SiftUp(static_cast<uint32_t>(heap_.size()) - 1, {priority, v});
      return;
    }
    const double old = heap_[slot].priority;
    if (priority > old) {
      SiftUp(slot, {priority, v});
    } else if (priority < old) {
      SiftDown(slot, {priority, v});
    }
  }

  void Pop() { RemoveSlot(0); }

  // No-op if v is not in the heap.
  void Remove(NodeId v) {
    DCHECK_LT(v, pos_.size());
    if (pos_[v] != kNotInHeap) RemoveSlot(pos_[v]);
  }

 private:
  struct Slot {
    double priority;
    NodeId node;
  };

  void RemoveSlot(uint32_t slot);
  // Both sifts treat `slot` as a hole that `entry` will fill. SiftDown
  // returns the slot where `entry` landed.
  uint32_t SiftDown(uint32_t slot, Slot entry);

  void SiftUp(uint32_t slot, Slot entry) {
    while (slot != 0) {
      const uint32_t parent = (slot - 1) / 4;
      if (heap_[parent].priority >= entry.priority) break;
      Place(slot, heap_[parent]);
      slot = parent;
    }
    Place(slot, entry);
  }

  void Place(uint32_t slot, Slot entry) {
    heap_[slot] = entry;
    pos_[entry.node] = slot;
  }

  std::vector<Slot> heap_;
  std::vector<uint32_t> pos_;  // node -> slot; persists across queries
};

// The arena. The buffers are public scratch, grouped by consumer (Bca, the
// two bounders, the 2SBound driver in twosbound.cc); each consumer keeps
// the invariant "my touched entries are enumerated by my list", which is
// what lets BeginQuery reset in O(touched).
class QueryWorkspace {
 public:
  QueryWorkspace() = default;
  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;

  // Readies every structure for a query over a graph with `n` nodes.
  // O(state touched by the previous query); O(n) only on first use or when
  // the graph size changes.
  void BeginQuery(size_t n);

  size_t num_nodes() const { return num_nodes_; }

  // Shared teleport vector alpha * I(q, v) of Eqs. 17-18, built lazily on
  // first request after BeginQuery and shared by both bounders (they always
  // score the same query at the same alpha within one 2SBound run).
  const std::vector<double>& Teleport(const Query& query, double alpha);

  // --- BCA (F-side Stage I) --------------------------------------------
  std::vector<double> rho;           // zeroed via bca_seen
  std::vector<double> mu;            // zeroed via mu_touched
  std::vector<NodeId> bca_seen;      // rho > 0, insertion order
  std::vector<NodeId> mu_touched;    // every node whose mu went 0 -> +
  std::vector<uint8_t> bca_in_seen;  // byte array, not vector<bool>
  NodeHeap benefit_heap;

  // --- shared teleport (via Teleport() above) ---------------------------
  std::vector<double> teleport;
  std::vector<NodeId> teleport_touched;

  // --- F-Rank bounder ---------------------------------------------------
  std::vector<double> f_lower;  // written only for BCA-seen nodes
  std::vector<double> f_upper;  // default 1.0; written only for seen nodes

  // --- T-Rank bounder ---------------------------------------------------
  std::vector<uint8_t> t_in_seen;
  std::vector<double> t_lower;
  std::vector<double> t_upper;
  std::vector<int> t_unseen_in;  // written only for T-seen nodes
  std::vector<NodeId> t_seen;
  std::vector<NodeId> t_border;
  std::vector<NodeId> t_picked;
  std::vector<NodeId> t_fresh;
  StampedFlags t_pending;        // per-Expand in-neighbor dedup

  // --- Stage II local CSR (two_stage.cc) --------------------------------
  // Each Stage II refine gathers its seen set's rows here and sweeps them
  // instead of the graph. Local ids are positions in the seen list; local
  // id = seen size is the sentinel that stands for every unseen endpoint
  // (lower 0, upper = the unseen bound). The two bounders refine one after
  // the other, so they share these arrays; every gather rewrites them.
  static constexpr uint32_t kNoLocalId = 0xffffffffu;
  // node -> local id. kNoLocalId outside a refine: the refine that sets an
  // entry unsets it again when it writes its bounds back.
  std::vector<uint32_t> local_id;
  std::vector<size_t> local_offsets;  // seen size + 1
  std::vector<uint32_t> local_arcs;   // arc endpoints as local ids
  std::vector<double> local_probs;
  std::vector<double> local_teleport;
  std::vector<double> local_lower;     // seen size + 1 (sentinel last)
  std::vector<double> local_upper;     // seen size + 1 (sentinel last)
  std::vector<uint32_t> local_border;  // T side: local ids of border nodes

  // --- 2SBound driver (twosbound.cc) ------------------------------------
  struct Candidate {
    NodeId node;
    double lower;
    double upper;
  };
  std::vector<Candidate> candidates;
  std::vector<NodeId> active_scratch;  // S_f ∪ S_t accounting

  // Optional per-query trace recorder (obs/trace.h), owned by the caller
  // and untouched by BeginQuery. Null by default: every instrumentation
  // site in the engine is a single pointer test when tracing is off, which
  // preserves the zero-allocation steady-state contract above.
  obs::TraceRecorder* trace = nullptr;

  // --- exact / naive baseline -------------------------------------------
  std::vector<double> exact_f;
  std::vector<double> exact_t;
  std::vector<double> exact_scratch;
  std::vector<double> exact_scores;
  std::vector<NodeId> exact_ids;

 private:
  size_t num_nodes_ = 0;
  bool teleport_built_ = false;
  double teleport_alpha_ = 0.0;
};

}  // namespace rtr::core

#endif  // RTR_CORE_WORKSPACE_H_
