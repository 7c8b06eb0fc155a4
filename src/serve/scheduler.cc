#include "serve/scheduler.h"

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

}  // namespace rtr::serve
