#ifndef RTR_TESTS_DIST_RECORD_TESTING_H_
#define RTR_TESTS_DIST_RECORD_TESTING_H_

// Record equality for tests: NodeRecord columns are spans, which have no
// operator==, so tests compare records through these helpers. Equality is
// the node id plus every element of all four columns.

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distributed_topk.h"

namespace rtr::dist {

// Success when `got` and `want` hold the same records in the same order;
// otherwise names the first record and column that differ.
inline ::testing::AssertionResult SameRecords(
    const std::vector<NodeRecord>& got, const std::vector<NodeRecord>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " records, expected " << want.size();
  }
  auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (size_t i = 0; i < want.size(); ++i) {
    const NodeRecord& a = got[i];
    const NodeRecord& b = want[i];
    const char* differs = nullptr;
    if (a.node != b.node) {
      differs = "node";
    } else if (!same(a.out_targets, b.out_targets)) {
      differs = "out_targets";
    } else if (!same(a.out_probs, b.out_probs)) {
      differs = "out_probs";
    } else if (!same(a.in_sources, b.in_sources)) {
      differs = "in_sources";
    } else if (!same(a.in_probs, b.in_probs)) {
      differs = "in_probs";
    }
    if (differs != nullptr) {
      return ::testing::AssertionFailure()
             << "record " << i << " (node " << a.node << ", expected node "
             << b.node << ") differs in " << differs;
    }
  }
  return ::testing::AssertionSuccess();
}

inline void ExpectSameRecords(const std::vector<NodeRecord>& got,
                              const std::vector<NodeRecord>& want) {
  EXPECT_TRUE(SameRecords(got, want));
}

}  // namespace rtr::dist

#endif  // RTR_TESTS_DIST_RECORD_TESTING_H_
