// NodeHeap tie order. BCA picks its next node from the heap top, so which
// of two equal-priority nodes surfaces first decides the processing order
// and with it every later bound bit. The production heap sifts by moving a
// hole; this test drives it in lockstep with a swap-based reference (the
// heap's earlier implementation, kept here as the oracle) over quantized
// priorities, where ties are the common case, and requires the same top
// after every operation and the same (node, priority) pop sequence.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/workspace.h"
#include "util/random.h"

namespace rtr::core {
namespace {

// Position-tracked 4-ary max-heap with swap-based sifts: parallel priority
// and node arrays, rise past a parent only when strictly greater, sink to
// the first strictly greater child.
class SwapHeap {
 public:
  static constexpr uint32_t kNotInHeap = 0xffffffffu;

  void Reset(size_t n) {
    for (NodeId v : node_) pos_[v] = kNotInHeap;
    node_.clear();
    prio_.clear();
    if (pos_.size() != n) pos_.assign(n, kNotInHeap);
  }

  bool empty() const { return node_.empty(); }
  size_t size() const { return node_.size(); }
  bool Contains(NodeId v) const { return pos_[v] != kNotInHeap; }
  double Priority(NodeId v) const { return prio_[pos_[v]]; }
  NodeId top() const { return node_[0]; }
  double top_priority() const { return prio_[0]; }

  void Update(NodeId v, double priority) {
    uint32_t slot = pos_[v];
    if (slot == kNotInHeap) {
      slot = static_cast<uint32_t>(node_.size());
      node_.push_back(v);
      prio_.push_back(priority);
      pos_[v] = slot;
      SiftUp(slot);
      return;
    }
    const double old = prio_[slot];
    prio_[slot] = priority;
    if (priority > old) {
      SiftUp(slot);
    } else if (priority < old) {
      SiftDown(slot);
    }
  }

  void Pop() { RemoveSlot(0); }

  void Remove(NodeId v) {
    if (pos_[v] != kNotInHeap) RemoveSlot(pos_[v]);
  }

 private:
  void RemoveSlot(uint32_t slot) {
    pos_[node_[slot]] = kNotInHeap;
    const uint32_t last = static_cast<uint32_t>(node_.size()) - 1;
    if (slot != last) {
      node_[slot] = node_[last];
      prio_[slot] = prio_[last];
      pos_[node_[slot]] = slot;
      node_.pop_back();
      prio_.pop_back();
      SiftDown(slot);
      SiftUp(slot);
    } else {
      node_.pop_back();
      prio_.pop_back();
    }
  }

  void SiftDown(uint32_t slot) {
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

  void SiftUp(uint32_t slot) {
    while (slot != 0) {
      const uint32_t parent = (slot - 1) / 4;
      if (prio_[parent] >= prio_[slot]) break;
      SwapSlots(slot, parent);
      slot = parent;
    }
  }

  void SwapSlots(uint32_t a, uint32_t b) {
    std::swap(node_[a], node_[b]);
    std::swap(prio_[a], prio_[b]);
    pos_[node_[a]] = a;
    pos_[node_[b]] = b;
  }

  std::vector<double> prio_;
  std::vector<NodeId> node_;
  std::vector<uint32_t> pos_;
};

void ExpectSameState(const NodeHeap& heap, const SwapHeap& oracle,
                     size_t n, int op) {
  ASSERT_EQ(heap.size(), oracle.size()) << "op " << op;
  if (!oracle.empty()) {
    ASSERT_EQ(heap.top(), oracle.top()) << "op " << op;
    ASSERT_EQ(heap.top_priority(), oracle.top_priority()) << "op " << op;
  }
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(heap.Contains(v), oracle.Contains(v)) << "op " << op;
    if (oracle.Contains(v)) {
      ASSERT_EQ(heap.Priority(v), oracle.Priority(v)) << "op " << op;
    }
  }
}

TEST(NodeHeapTieOrderTest, MatchesSwapHeapOnQuantizedPriorities) {
  constexpr size_t kNodes = 300;
  NodeHeap heap;
  SwapHeap oracle;
  Rng rng(31);
  for (int round = 0; round < 4; ++round) {
    heap.Reset(kNodes);
    oracle.Reset(kNodes);
    // Eight priority levels: ties on almost every comparison.
    for (int op = 0; op < 6000; ++op) {
      const NodeId v = static_cast<NodeId>(rng.NextUint64(kNodes));
      const uint64_t kind = rng.NextUint64(10);
      if (kind < 6) {
        const double priority = 0.125 * static_cast<double>(rng.NextUint64(8));
        heap.Update(v, priority);
        oracle.Update(v, priority);
      } else if (kind < 8) {
        heap.Remove(v);
        oracle.Remove(v);
      } else if (!oracle.empty()) {
        heap.Pop();
        oracle.Pop();
      }
      ExpectSameState(heap, oracle, kNodes, op);
      if (::testing::Test::HasFatalFailure()) return;
    }
    std::vector<std::pair<NodeId, double>> popped;
    std::vector<std::pair<NodeId, double>> expected;
    while (!oracle.empty()) {
      ASSERT_FALSE(heap.empty());
      popped.emplace_back(heap.top(), heap.top_priority());
      expected.emplace_back(oracle.top(), oracle.top_priority());
      heap.Pop();
      oracle.Pop();
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(popped, expected) << "round " << round;
  }
}

// BCA's pattern: mostly growing re-keys, with the top popped in between.
TEST(NodeHeapTieOrderTest, MatchesSwapHeapOnGrowingKeys) {
  constexpr size_t kNodes = 500;
  NodeHeap heap;
  SwapHeap oracle;
  heap.Reset(kNodes);
  oracle.Reset(kNodes);
  std::vector<double> key(kNodes, 0.0);
  Rng rng(32);
  for (int op = 0; op < 20000; ++op) {
    if (rng.NextUint64(5) == 0 && !oracle.empty()) {
      key[oracle.top()] = 0.0;
      heap.Pop();
      oracle.Pop();
    } else {
      const NodeId v = static_cast<NodeId>(rng.NextUint64(kNodes));
      key[v] += 0.5 * static_cast<double>(1 + rng.NextUint64(2));
      heap.Update(v, key[v]);
      oracle.Update(v, key[v]);
    }
    ASSERT_EQ(heap.size(), oracle.size()) << "op " << op;
    if (!oracle.empty()) {
      ASSERT_EQ(heap.top(), oracle.top()) << "op " << op;
      ASSERT_EQ(heap.top_priority(), oracle.top_priority()) << "op " << op;
    }
  }
  while (!oracle.empty()) {
    ASSERT_EQ(heap.top(), oracle.top());
    ASSERT_EQ(heap.top_priority(), oracle.top_priority());
    heap.Pop();
    oracle.Pop();
  }
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace rtr::core
