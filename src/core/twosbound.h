#ifndef RTR_CORE_TWOSBOUND_H_
#define RTR_CORE_TWOSBOUND_H_

#include <string>
#include <vector>

#include "core/two_stage.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace rtr::core {

// Online top-K schemes evaluated in Fig. 11. k2SBound is the paper's full
// algorithm; the others weaken one or both sides of the two-stage framework
// (see two_stage.h); kNaive is the exact iterative method of Eqs. 5 and 8.
enum class TopKScheme {
  k2SBound,
  kGupta,
  kSarkar,
  kGPlusS,
  kNaive,
};

const char* TopKSchemeName(TopKScheme scheme);

// Parameters of Algorithm 1 (2SBound).
struct TopKParams {
  int k = 10;
  // Approximation slack of the relaxed top-K conditions (Eqs. 13-14).
  double epsilon = 0.01;
  double alpha = 0.25;
  // Expansion granularities (paper: m_f = 100, m_t = 5).
  int m_f = 100;
  int m_t = 5;
  TopKScheme scheme = TopKScheme::k2SBound;
};

// The Figs. 12-13 accounting unit of one active-set node record (id + 4
// bounds) and one arc record (endpoint + weight + prob), shared by the local
// and distributed active-set bytes. Not the frame size (DESIGN.md §4).
inline constexpr size_t kActiveNodeRecordBytes =
    sizeof(NodeId) + 4 * sizeof(double);
inline constexpr size_t kActiveArcRecordBytes =
    sizeof(NodeId) + 2 * sizeof(double);

// One ranked result with its RoundTripRank bounds at termination.
struct TopKEntry {
  NodeId node = kInvalidNode;
  double lower = 0.0;
  double upper = 0.0;
};

struct TopKResult {
  std::vector<TopKEntry> entries;  // ranked by lower bound, best first
  // True when the epsilon-approximate top-K conditions were certified (or
  // both neighborhoods were fully exhausted, making bounds exact).
  bool converged = false;
  int rounds = 0;
  // Active set accounting (Sect. V-B1): nodes in S_f ∪ S_t and their
  // incident arcs, i.e., the minimum working set of the query.
  size_t active_nodes = 0;
  size_t active_arcs = 0;
  size_t active_set_bytes = 0;
  // The active nodes themselves, in id order (consumed by the distributed
  // AP/GP replay, Sect. V-B2).
  std::vector<NodeId> active_node_ids;

  // Resets to the default state, KEEPING vector capacity — the reuse hook
  // of the allocation-free serving path.
  void Clear() {
    entries.clear();
    converged = false;
    rounds = 0;
    active_nodes = 0;
    active_arcs = 0;
    active_set_bytes = 0;
    active_node_ids.clear();
  }
};

// Runs the requested top-K scheme for RoundTripRank r(q, v) ∝ f(q, v)t(q, v).
// kNaive computes exact scores iteratively; all other schemes run
// branch-and-bound neighborhood expansion with the scheme's bound updates.
//
// `ws` is the caller's per-query arena (core/workspace.h); `result` is
// overwritten in place, keeping its vectors' capacity. Returns
// InvalidArgument, before touching either, for k, m_f or m_t <= 0, an
// epsilon that is negative or NaN, alpha outside (0, 1), or an empty or
// out-of-range query. Expansion stops after at most 1,000,000 rounds,
// reporting the best effort as unconverged.
//
// Thread safety: pure with respect to `g` — every piece of per-query state
// lives in the caller's workspace, and the Graph is only read. Concurrent
// calls over one shared Graph are safe and return results bit-identical to
// serial execution (audited for serve::QueryService; the determinism is
// also what makes cached results transparent). Workspace reuse never
// changes results: a steady-state query on a warm workspace is
// bit-identical to a fresh-workspace run AND performs zero heap
// allocations (asserted by bench_micro).
Status TopKRoundTripRank(const Graph& g, const Query& query,
                         const TopKParams& params, QueryWorkspace& ws,
                         TopKResult* result);

// Exact RoundTripRank scores (f * t) by full iterative computation — the
// reference ranking for approximation-quality metrics. The power-iteration
// kernels run on the util::ParallelFor pool.
std::vector<double> ExactRoundTripRankScores(const Graph& g,
                                             const Query& query,
                                             double alpha = 0.25);

}  // namespace rtr::core

#endif  // RTR_CORE_TWOSBOUND_H_
