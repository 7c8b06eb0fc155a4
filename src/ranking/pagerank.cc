#include "ranking/pagerank.h"

#include <cmath>

#include "util/dense_kernels.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace rtr::ranking {
namespace {

// Arc mass per chunk of the parallel power-iteration kernels: coarse
// enough that a chunk amortizes the pool's wake-up, fine enough to load-
// balance skewed degree distributions.
constexpr size_t kArcGrain = 1 << 14;

void CheckQuery(const Graph& g, const Query& query,
                const std::vector<double>* out,
                const std::vector<double>* scratch) {
  CHECK(!query.empty()) << "empty query";
  for (NodeId q : query) CHECK_LT(q, g.num_nodes());
  CHECK(out != scratch) << "out and scratch must be distinct buffers";
}

// One power iteration to convergence. `Pull(v)` must return
// sum_u M-prob * x[u] over the pulled adjacency of v; `offsets` is that
// adjacency's offsets column (chunk balancing). Writes the result into
// *out using *scratch as the ping-pong buffer.
//
// Determinism: chunk bounds depend only on (offsets, kArcGrain); each chunk
// writes its own index range and one partial-diff slot, and the partials
// are reduced in chunk order — so the result is bit-identical at any
// thread count.
template <typename PullFn>
void PowerIterate(const Graph& g, const Query& query,
                  const WalkParams& params, std::span<const size_t> offsets,
                  std::vector<double>* out, std::vector<double>* scratch,
                  const PullFn& pull) {
  const size_t n = g.num_nodes();
  const double mass = 1.0 / static_cast<double>(query.size());
  const double teleport = params.alpha * mass;

  std::vector<double>& x = *out;
  std::vector<double>& next = *scratch;
  x.assign(n, 0.0);
  next.assign(n, 0.0);
  for (NodeId q : query) x[q] += teleport;  // x0 = alpha * e_q

  size_t bounds[util::kMaxChunks + 1];
  const size_t chunks =
      util::BalancedChunkBounds(offsets.data(), n, kArcGrain, bounds);
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    double partial[util::kMaxChunks];
    util::ParallelForChunks(
        bounds, chunks, [&](size_t chunk, size_t begin, size_t end) {
          for (size_t v = begin; v < end; ++v) {
            next[v] = (1.0 - params.alpha) * pull(x, static_cast<NodeId>(v));
          }
          // Teleport lands inside the owning chunk so the L1 diff below
          // sees final values in one pass.
          for (NodeId q : query) {
            if (q >= begin && q < end) next[q] += teleport;
          }
          double diff = 0.0;
          for (size_t v = begin; v < end; ++v) {
            diff += std::fabs(x[v] - next[v]);
          }
          partial[chunk] = diff;
        });
    double diff = 0.0;
    for (size_t c = 0; c < chunks; ++c) diff += partial[c];  // chunk order
    x.swap(next);
    if (diff < params.tolerance) break;
  }
}

}  // namespace

void FRankInto(const Graph& g, const Query& query, const WalkParams& params,
               std::vector<double>* out, std::vector<double>* scratch) {
  CheckQuery(g, query, out, scratch);
  // Hot loop: streams only the (source, prob) columns through the
  // gather-dot kernel (util/dense_kernels.h). Column pointers are hoisted
  // once.
  const size_t* off = g.in_offsets().data();
  const NodeId* src = g.in_sources().data();
  const double* probs = g.in_probs().data();
  PowerIterate(g, query, params, g.in_offsets(), out, scratch,
               [=](const std::vector<double>& x, NodeId v) {
                 const size_t begin = off[v];
                 const size_t deg = off[v + 1] - begin;
                 return util::GatherDot(src + begin, probs + begin, deg,
                                        x.data());
               });
}

void TRankInto(const Graph& g, const Query& query, const WalkParams& params,
               std::vector<double>* out, std::vector<double>* scratch) {
  CheckQuery(g, query, out, scratch);
  const size_t* off = g.out_offsets().data();
  const NodeId* tgt = g.out_targets().data();
  const double* probs = g.out_probs().data();
  PowerIterate(g, query, params, g.out_offsets(), out, scratch,
               [=](const std::vector<double>& x, NodeId v) {
                 const size_t begin = off[v];
                 const size_t deg = off[v + 1] - begin;
                 return util::GatherDot(tgt + begin, probs + begin, deg,
                                        x.data());
               });
}

std::vector<double> FRank(const Graph& g, const Query& query,
                          const WalkParams& params) {
  std::vector<double> out, scratch;
  FRankInto(g, query, params, &out, &scratch);
  return out;
}

std::vector<double> TRank(const Graph& g, const Query& query,
                          const WalkParams& params) {
  std::vector<double> out, scratch;
  TRankInto(g, query, params, &out, &scratch);
  return out;
}

const FTVectors& FTScorer::Compute(const Query& query) {
  if (has_cache_ && query == cached_query_) return cache_;
  cache_.f = FRank(graph_, query, params_);
  cache_.t = TRank(graph_, query, params_);
  cached_query_ = query;
  has_cache_ = true;
  return cache_;
}

}  // namespace rtr::ranking
