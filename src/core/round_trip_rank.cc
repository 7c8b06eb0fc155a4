#include "core/round_trip_rank.h"

#include <cmath>
#include <utility>

#include "util/dense_kernels.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace rtr::core {
namespace {

using ranking::FTScorer;
using ranking::FTVectors;
using ranking::ProximityMeasure;

class RoundTripRankMeasure : public ProximityMeasure {
 public:
  RoundTripRankMeasure(std::shared_ptr<FTScorer> scorer, double beta,
                       std::string name)
      : scorer_(std::move(scorer)), beta_(beta), name_(std::move(name)) {
    CHECK(scorer_ != nullptr);
    CHECK_GE(beta_, 0.0);
    CHECK_LE(beta_, 1.0);
  }

  const std::string& name() const override { return name_; }

  std::vector<double> Score(const Query& query) override {
    const FTVectors& ft = scorer_->Compute(query);
    std::vector<double> scores(ft.f.size());
    if (beta_ == 0.5) {
      // Plain RoundTripRank: f*t, rank-equivalent to f^0.5 * t^0.5.
      for (size_t v = 0; v < scores.size(); ++v) {
        scores[v] = ft.f[v] * ft.t[v];
      }
      return scores;
    }
    for (size_t v = 0; v < scores.size(); ++v) {
      double f = ft.f[v], t = ft.t[v];
      if (beta_ == 0.0) {
        scores[v] = f;
      } else if (beta_ == 1.0) {
        scores[v] = t;
      } else if (f <= 0.0 || t <= 0.0) {
        scores[v] = 0.0;
      } else {
        scores[v] = std::pow(f, 1.0 - beta_) * std::pow(t, beta_);
      }
    }
    return scores;
  }

 private:
  std::shared_ptr<FTScorer> scorer_;
  double beta_;
  std::string name_;
};

// Arc mass per chunk of the parallel step kernels (see pagerank.cc).
constexpr size_t kArcGrain = 1 << 14;

}  // namespace

void StepForwardInto(const Graph& g, const std::vector<double>& dist,
                     std::vector<double>* next) {
  CHECK_EQ(dist.size(), g.num_nodes());
  CHECK(&dist != next);
  next->resize(dist.size());
  size_t bounds[util::kMaxChunks + 1];
  const size_t chunks = util::BalancedChunkBounds(
      g.in_offsets().data(), g.num_nodes(), kArcGrain, bounds);
  std::vector<double>& out = *next;
  // Gather-dot kernel over the hoisted (source, prob) columns (see
  // util/dense_kernels.h).
  const size_t* off = g.in_offsets().data();
  const NodeId* src = g.in_sources().data();
  const double* probs = g.in_probs().data();
  util::ParallelForChunks(
      bounds, chunks, [&](size_t, size_t begin, size_t end) {
        for (size_t v = begin; v < end; ++v) {
          const size_t row = off[v];
          const size_t deg = off[v + 1] - row;
          out[v] = util::GatherDot(src + row, probs + row, deg, dist.data());
        }
      });
}

void StepBackwardInto(const Graph& g, const std::vector<double>& prob,
                      std::vector<double>* next) {
  CHECK_EQ(prob.size(), g.num_nodes());
  CHECK(&prob != next);
  next->resize(prob.size());
  size_t bounds[util::kMaxChunks + 1];
  const size_t chunks = util::BalancedChunkBounds(
      g.out_offsets().data(), g.num_nodes(), kArcGrain, bounds);
  std::vector<double>& out = *next;
  const size_t* off = g.out_offsets().data();
  const NodeId* tgt = g.out_targets().data();
  const double* probs = g.out_probs().data();
  util::ParallelForChunks(
      bounds, chunks, [&](size_t, size_t begin, size_t end) {
        for (size_t v = begin; v < end; ++v) {
          const size_t row = off[v];
          const size_t deg = off[v + 1] - row;
          out[v] = util::GatherDot(tgt + row, probs + row, deg, prob.data());
        }
      });
}

std::unique_ptr<ProximityMeasure> MakeRoundTripRankMeasure(
    std::shared_ptr<FTScorer> scorer) {
  return std::make_unique<RoundTripRankMeasure>(std::move(scorer), 0.5,
                                                "RoundTripRank");
}

std::unique_ptr<ProximityMeasure> MakeRoundTripRankPlusMeasure(
    std::shared_ptr<FTScorer> scorer, double beta, std::string name) {
  return std::make_unique<RoundTripRankMeasure>(std::move(scorer), beta,
                                                std::move(name));
}

std::vector<double> ConstantLengthRoundTripScores(const Graph& g, NodeId q,
                                                  int steps_out,
                                                  int steps_back) {
  CHECK_LT(q, g.num_nodes());
  CHECK_GE(steps_out, 0);
  CHECK_GE(steps_back, 0);
  // Forward: distribution of W_L starting from q.
  std::vector<double> forward(g.num_nodes(), 0.0), scratch(g.num_nodes());
  forward[q] = 1.0;
  for (int s = 0; s < steps_out; ++s) {
    StepForwardInto(g, forward, &scratch);
    forward.swap(scratch);
  }
  // Backward: probability of being at q after steps_back more steps.
  std::vector<double> backward(g.num_nodes(), 0.0);
  backward[q] = 1.0;
  for (int s = 0; s < steps_back; ++s) {
    StepBackwardInto(g, backward, &scratch);
    backward.swap(scratch);
  }

  std::vector<double> scores(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    scores[v] = forward[v] * backward[v];
  }
  return scores;
}

std::vector<double> SimulateRoundTripRank(const Graph& g, NodeId q,
                                          const RoundTripSimParams& params) {
  CHECK_LT(q, g.num_nodes());
  CHECK_GT(params.num_trips, 0);
  CHECK_GT(params.alpha, 0.0);
  CHECK_LT(params.alpha, 1.0);
  Rng rng(params.seed);
  std::vector<double> counts(g.num_nodes(), 0.0);
  double completed = 0.0;
  for (int trip = 0; trip < params.num_trips; ++trip) {
    int len_out = rng.NextGeometric(params.alpha);
    int len_back = rng.NextGeometric(params.alpha);
    NodeId current = q;
    NodeId target = kInvalidNode;
    bool dead = false;
    for (int step = 0; step < len_out + len_back; ++step) {
      // Degree check before the draw keeps the RNG stream identical to the
      // pre-SoA walker (dangling nodes never consumed a draw).
      if (g.out_degree(current) == 0) {
        dead = true;
        break;
      }
      current = g.SampleOutNeighbor(current, rng.NextDouble());
      if (step + 1 == len_out) target = current;
    }
    if (dead || current != q) continue;
    if (len_out == 0) target = q;  // zero-length outbound leg targets q
    completed += 1.0;
    counts[target] += 1.0;
  }
  if (completed > 0.0) {
    for (double& c : counts) c /= completed;
  }
  return counts;
}

}  // namespace rtr::core
