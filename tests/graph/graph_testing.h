#ifndef RTR_TESTS_GRAPH_GRAPH_TESTING_H_
#define RTR_TESTS_GRAPH_GRAPH_TESTING_H_

// Column-for-column bit-identity between two graphs: the oracle shared by
// the builder, delta, snapshot, mmap and store tests. Every column is
// compared with memcmp, not approximate equality, because built,
// delta-applied, bulk-loaded and mapped graphs must hold the same bytes.

#include <cstring>
#include <span>

#include <gtest/gtest.h>

#include "graph/graph.h"

namespace rtr {

template <typename T>
void ExpectColumnsEq(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(T)), 0) << "index " << i;
  }
}

inline void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_EQ(a.type_names(), b.type_names());
  ExpectColumnsEq(a.node_types(), b.node_types());
  ExpectColumnsEq(a.out_weights(), b.out_weights());
  ExpectColumnsEq(a.out_offsets(), b.out_offsets());
  ExpectColumnsEq(a.out_targets(), b.out_targets());
  ExpectColumnsEq(a.out_arc_weights(), b.out_arc_weights());
  ExpectColumnsEq(a.out_probs(), b.out_probs());
  ExpectColumnsEq(a.in_offsets(), b.in_offsets());
  ExpectColumnsEq(a.in_sources(), b.in_sources());
  ExpectColumnsEq(a.in_arc_weights(), b.in_arc_weights());
  ExpectColumnsEq(a.in_probs(), b.in_probs());
}

}  // namespace rtr

#endif  // RTR_TESTS_GRAPH_GRAPH_TESTING_H_
