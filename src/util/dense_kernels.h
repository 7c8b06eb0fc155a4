#ifndef RTR_UTIL_DENSE_KERNELS_H_
#define RTR_UTIL_DENSE_KERNELS_H_

#include <cstddef>
#include <cstdint>

// Gather-multiply-accumulate primitive for the dense pull kernels
// (ranking::FRankInto / TRankInto and the power-iteration steps in
// core/round_trip_rank.cc). One CSR row's contribution is
//
//   sum_i probs[i] * x[idx[i]]       for i in [0, n)
//
// — a bandwidth-bound gather-dot.
//
// Fixed association: the main loop accumulates products into four
// independent lane accumulators (lane j takes the products at indices i+j),
// the scalar tail adds element i into lane i&3, and the final combine is
// (l0 + l1) + (l2 + l3). The result is therefore a pure function of the
// inputs, whatever the thread count or row partitioning, which is what lets
// the rank tests assert exact equality across 1 vs N threads and built vs
// mapped graphs. No -mfma or -ffast-math is set, so on x86-64 the
// compiler can neither contract the mul + add pairs nor reorder the sums.

namespace rtr::util {

// sum over i<n of probs[i] * x[idx[i]], fixed 4-lane association.
inline double GatherDot(const uint32_t* idx, const double* probs, size_t n,
                        const double* x) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes[0] += probs[i] * x[idx[i]];
    lanes[1] += probs[i + 1] * x[idx[i + 1]];
    lanes[2] += probs[i + 2] * x[idx[i + 2]];
    lanes[3] += probs[i + 3] * x[idx[i + 3]];
  }
  for (; i < n; ++i) lanes[i & 3] += probs[i] * x[idx[i]];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace rtr::util

#endif  // RTR_UTIL_DENSE_KERNELS_H_
