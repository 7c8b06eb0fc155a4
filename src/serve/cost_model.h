#ifndef RTR_SERVE_COST_MODEL_H_
#define RTR_SERVE_COST_MODEL_H_

// Online query cost model for the admission scheduler (DESIGN.md §11).
//
// The paper's Sect. V-B active-set accounting says a query's expense is
// predicted by its working set, and the working set is predicted by the
// query node's degree and epsilon before Stage I runs a single round. This
// model turns that observation into a few-parameter linear predictor over
// log-compressed features — query-node out/in degree read straight off the
// pinned graph's columnar offset arrays, epsilon, and K — fit online from
// completed queries' observed engine latency by exponentially-decayed
// recursive least squares (RLS with forgetting factor λ: old traffic fades,
// so the model tracks generation swaps and cache-temperature drift without
// ever being retrained offline).
//
// Determinism and the serve-path contract: the model is seeded with a fixed
// positive prior (monotone in degree, 1/epsilon, and K), every state member
// is a fixed-size std::array, and Predict/Observe never allocate — the
// admission path stays allocation-free and tests can pin exact predictions
// from the prior.
//
// Thread safety: Predict and Observe are internally synchronized (one
// mutex; the 5x5 update is ~tens of ns, far below a queue-lock handoff).

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "core/twosbound.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace rtr::serve {

// Feature vector layout (all log2-compressed so the linear model spans the
// orders of magnitude between a leaf query and a hub query):
//   x[0] = 1                                  (bias)
//   x[1] = log2(1 + sum of query-node out-degrees)   (F-side frontier seed)
//   x[2] = log2(1 + sum of query-node in-degrees)    (T-side frontier seed)
//   x[3] = log2(1 / clamp(epsilon, kEpsilonFloor, kEpsilonCeiling))
//                                                     (bound tightness)
//   x[4] = log2(max(K, 1))                           (answer size)
inline constexpr size_t kCostFeatureDim = 5;

struct CostFeatures {
  std::array<double, kCostFeatureDim> x{};
};

// Builds the feature vector for one request. Degree lookups are two offset
// subtractions per query node; out-of-range nodes contribute nothing (the
// engine rejects them later — admission never crashes on garbage input).
CostFeatures CostFeaturesOf(const Graph& graph, const Query& query,
                            const core::TopKParams& params);

class QueryCostModel {
 public:
  // Forgetting factor λ of the decayed least squares: each new observation
  // discounts the old information matrix by λ, so the effective window is
  // ~1/(1-λ) = 50 queries.
  static constexpr double kForgetting = 0.98;
  // Prior covariance scale: large enough that ~10 observations dominate
  // the prior, small enough that the first predictions stay sane.
  static constexpr double kPriorVariance = 4.0;
  // Epsilon is clamped into [floor, ceiling] before the log: epsilon = 0
  // (exact mode) and +inf are legal engine input and must not produce an
  // infinite feature, and a NaN (rejected later by the engine) must not
  // reach the model. Scores lie in [0, 1], so beyond 1 epsilon no longer
  // tells query costs apart.
  static constexpr double kEpsilonFloor = 1e-6;
  static constexpr double kEpsilonCeiling = 1.0;
  // Predictions are clamped below by this (a query is never free, and the
  // scheduler divides by predicted cost sums).
  static constexpr double kMinPredictionMillis = 1e-3;

  // Seeds the fixed prior: positive weights, monotone in every feature, so
  // pre-observation scheduling decisions are deterministic and sensible.
  QueryCostModel();

  // Predicted engine latency in milliseconds, >= kMinPredictionMillis.
  double PredictMillis(const CostFeatures& features) const;

  // Folds one completed query's measured engine latency into the fit.
  // Cache hits must not be fed here — they carry no engine-cost signal.
  void Observe(const CostFeatures& features, double measured_millis);

  uint64_t observations() const;
  std::array<double, kCostFeatureDim> weights() const;

 private:
  mutable std::mutex mu_;
  // Weight vector w and inverse information matrix P of the RLS recursion,
  // both guarded by mu_. Fixed-size: no allocation ever.
  std::array<double, kCostFeatureDim> w_{};
  std::array<std::array<double, kCostFeatureDim>, kCostFeatureDim> p_{};
  uint64_t observations_ = 0;
};

}  // namespace rtr::serve

#endif  // RTR_SERVE_COST_MODEL_H_
