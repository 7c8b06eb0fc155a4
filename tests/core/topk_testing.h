#ifndef RTR_TESTS_CORE_TOPK_TESTING_H_
#define RTR_TESTS_CORE_TOPK_TESTING_H_

// Test conveniences over the engine's one entry form, which borrows the
// caller's QueryWorkspace. Each helper starts from a fresh workspace, so a
// reference answer never depends on what an earlier query left behind.

#include "core/twosbound.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/status.h"

namespace rtr::core {

// A workspace readied for one query over `g`, as Bca and the bounders
// expect to borrow it.
struct FreshWorkspace : QueryWorkspace {
  explicit FreshWorkspace(const Graph& g) { BeginQuery(g.num_nodes()); }
};

// TopKRoundTripRank on a fresh workspace, with the result by value.
inline StatusOr<TopKResult> FreshTopK(const Graph& g, const Query& query,
                                      const TopKParams& params) {
  QueryWorkspace ws;
  TopKResult result;
  RTR_RETURN_IF_ERROR(TopKRoundTripRank(g, query, params, ws, &result));
  return result;
}

}  // namespace rtr::core

#endif  // RTR_TESTS_CORE_TOPK_TESTING_H_
