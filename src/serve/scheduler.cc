#include "serve/scheduler.h"

#include <cmath>

namespace rtr::serve {

const char* CostClassName(CostClass c) {
  switch (c) {
    case CostClass::kCheap:
      return "cheap";
    case CostClass::kModerate:
      return "moderate";
    case CostClass::kHeavy:
      return "heavy";
  }
  return "unknown";
}

CostClass ClassifyCost(double predicted_millis, double mean_predicted_millis) {
  if (mean_predicted_millis <= 0.0) return CostClass::kModerate;
  if (predicted_millis < 0.5 * mean_predicted_millis) return CostClass::kCheap;
  if (predicted_millis > 2.0 * mean_predicted_millis) return CostClass::kHeavy;
  return CostClass::kModerate;
}

double PriorityKey(double predicted_millis, double arrival_millis) {
  return predicted_millis + arrival_millis * kAgeBoost;
}

double PredictedCompletionMillis(double queued_predicted_millis,
                                 int num_workers,
                                 double own_predicted_millis) {
  const double workers = static_cast<double>(num_workers < 1 ? 1 : num_workers);
  return queued_predicted_millis / workers + own_predicted_millis;
}

double EffectiveEpsilon(double base_epsilon, const SchedulerOptions& options,
                        size_t queue_depth, size_t queue_capacity) {
  if (options.eps_max <= base_epsilon || queue_capacity == 0) {
    return base_epsilon;
  }
  const double start = kQueueWatermark * static_cast<double>(queue_capacity);
  const double depth = static_cast<double>(queue_depth);
  if (depth <= start) return base_epsilon;
  const double span = static_cast<double>(queue_capacity) - start;
  double t = span > 0.0 ? (depth - start) / span : 1.0;
  t = std::min(t, 1.0);
  // Quantize the ramp so the cache sees at most kEpsilonSteps widened
  // epsilons per base epsilon instead of one key per queue depth.
  t = std::ceil(t * kEpsilonSteps) / kEpsilonSteps;
  return base_epsilon + t * (options.eps_max - base_epsilon);
}

}  // namespace rtr::serve
