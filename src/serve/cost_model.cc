#include "serve/cost_model.h"

#include <algorithm>
#include <cmath>

namespace rtr::serve {

CostFeatures CostFeaturesOf(const Graph& graph, const Query& query,
                            const core::TopKParams& params) {
  CostFeatures f;
  double out_deg = 0.0;
  double in_deg = 0.0;
  for (NodeId q : query) {
    if (q >= graph.num_nodes()) continue;
    out_deg += static_cast<double>(graph.out_degree(q));
    in_deg += static_cast<double>(graph.in_degree(q));
  }
  f.x[0] = 1.0;
  f.x[1] = std::log2(1.0 + out_deg);
  f.x[2] = std::log2(1.0 + in_deg);
  // Written so that NaN takes the floor: std::max(NaN, floor) is NaN.
  const double epsilon =
      params.epsilon >= QueryCostModel::kEpsilonFloor
          ? std::min(params.epsilon, QueryCostModel::kEpsilonCeiling)
          : QueryCostModel::kEpsilonFloor;
  f.x[3] = std::log2(1.0 / epsilon);
  f.x[4] = std::log2(static_cast<double>(std::max(params.k, 1)));
  return f;
}

QueryCostModel::QueryCostModel() {
  // Fixed prior (milliseconds per unit feature). Positive in every
  // component: more degree, tighter epsilon, or larger K never predicts
  // cheaper. Magnitudes put a typical mid-degree, epsilon=0.01, K=10 query
  // around 1ms — the right ballpark for the micro graphs the tests and
  // benches run, and ~10 observations override it anyway.
  w_ = {0.05, 0.03, 0.03, 0.06, 0.02};
  for (size_t i = 0; i < kCostFeatureDim; ++i) {
    for (size_t j = 0; j < kCostFeatureDim; ++j) {
      p_[i][j] = i == j ? kPriorVariance : 0.0;
    }
  }
}

double QueryCostModel::PredictMillis(const CostFeatures& features) const {
  std::lock_guard<std::mutex> lock(mu_);
  double y = 0.0;
  for (size_t i = 0; i < kCostFeatureDim; ++i) y += w_[i] * features.x[i];
  return std::max(y, kMinPredictionMillis);
}

void QueryCostModel::Observe(const CostFeatures& features,
                             double measured_millis) {
  if (!(measured_millis >= 0.0)) return;  // also drops NaN
  const auto& x = features.x;
  std::lock_guard<std::mutex> lock(mu_);
  // Standard RLS-with-forgetting recursion:
  //   g = P x / (λ + xᵀ P x)         (gain)
  //   w ← w + g (y − wᵀ x)
  //   P ← (P − g (P x)ᵀ) / λ
  std::array<double, kCostFeatureDim> px{};
  double xpx = 0.0;
  for (size_t i = 0; i < kCostFeatureDim; ++i) {
    for (size_t j = 0; j < kCostFeatureDim; ++j) px[i] += p_[i][j] * x[j];
    xpx += x[i] * px[i];
  }
  const double denom = kForgetting + xpx;
  double err = measured_millis;
  for (size_t i = 0; i < kCostFeatureDim; ++i) err -= w_[i] * x[i];
  for (size_t i = 0; i < kCostFeatureDim; ++i) {
    w_[i] += (px[i] / denom) * err;
  }
  for (size_t i = 0; i < kCostFeatureDim; ++i) {
    for (size_t j = 0; j < kCostFeatureDim; ++j) {
      p_[i][j] = (p_[i][j] - px[i] * px[j] / denom) / kForgetting;
    }
  }
  // Symmetrize: the recursion preserves symmetry exactly in real
  // arithmetic but drifts in floating point, and an asymmetric P can turn
  // indefinite over thousands of updates.
  for (size_t i = 0; i < kCostFeatureDim; ++i) {
    for (size_t j = i + 1; j < kCostFeatureDim; ++j) {
      const double s = 0.5 * (p_[i][j] + p_[j][i]);
      p_[i][j] = s;
      p_[j][i] = s;
    }
  }
  ++observations_;
}

uint64_t QueryCostModel::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

std::array<double, kCostFeatureDim> QueryCostModel::weights() const {
  std::lock_guard<std::mutex> lock(mu_);
  return w_;
}

}  // namespace rtr::serve
