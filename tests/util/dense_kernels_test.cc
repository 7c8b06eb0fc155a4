// The gather-multiply-accumulate kernel: it must reproduce the documented
// fixed 4-lane association exactly, at every tail length and with repeated
// gather indices.
#include "util/dense_kernels.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rtr {
namespace {

// Reference implementation of the documented accumulation order: four
// independent lane accumulators over i+0..i+3, scalar tail into lane
// (i & 3), combined as (l0 + l1) + (l2 + l3). The kernel must reproduce
// these exact doubles.
double ReferenceGatherDot(const uint32_t* idx, const double* probs, size_t n,
                          const double* x) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      lanes[j] += probs[i + j] * x[idx[i + j]];
    }
  }
  for (; i < n; ++i) {
    lanes[i & 3] += probs[i] * x[idx[i]];
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

struct GatherFixture {
  std::vector<uint32_t> idx;
  std::vector<double> probs;
  std::vector<double> x;
};

GatherFixture MakeFixture(uint64_t seed, size_t n, size_t num_nodes = 97) {
  Rng rng(seed);
  GatherFixture f;
  f.x.resize(num_nodes);
  for (double& v : f.x) v = rng.NextDouble() * 2.0 - 1.0;
  f.idx.resize(n);
  f.probs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    f.idx[i] = static_cast<uint32_t>(rng.NextUint64(num_nodes));
    f.probs[i] = rng.NextDouble();
  }
  return f;
}

TEST(DenseKernelsTest, MatchesReferenceAtEveryLength) {
  // Lengths straddling the 4-wide main loop and its tail: the association
  // contract has to hold for every tail shape.
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 31u, 100u}) {
    GatherFixture f = MakeFixture(/*seed=*/n + 1, n);
    EXPECT_EQ(util::GatherDot(f.idx.data(), f.probs.data(), n, f.x.data()),
              ReferenceGatherDot(f.idx.data(), f.probs.data(), n, f.x.data()))
        << "n=" << n;
  }
}

TEST(DenseKernelsTest, DuplicateIndicesGatherCorrectly) {
  // Parallel arcs hit the same x[] slot repeatedly; the gather must read
  // it once per lane, not deduplicate.
  std::vector<uint32_t> idx = {3, 3, 3, 3, 3};
  std::vector<double> probs = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<double> x(8, 0.0);
  x[3] = 2.0;
  EXPECT_EQ(util::GatherDot(idx.data(), probs.data(), idx.size(), x.data()),
            ReferenceGatherDot(idx.data(), probs.data(), idx.size(), x.data()));
}

}  // namespace
}  // namespace rtr
