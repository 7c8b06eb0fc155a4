#include "util/parallel_for.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/round_trip_rank.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "ranking/pagerank.h"
#include "util/random.h"

namespace rtr::util {
namespace {

// Restores the pool width on scope exit so tests do not leak their thread
// count into each other (the pool is process-wide).
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : previous_(NumThreads()) {
    SetNumThreads(n);
  }
  ~ScopedNumThreads() { SetNumThreads(previous_); }

 private:
  int previous_;
};

Graph RandomGraph(uint64_t seed, size_t n) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (size_t extra = 0; extra < 3 * n; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedNumThreads threads(4);
  const size_t n = 10007;  // prime: exercises the ragged tail chunk
  std::vector<std::atomic<int>> touched(n);
  ParallelFor(n, 128, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelForTest, ChunkGeometryIgnoresThreadCount) {
  // The determinism contract: geometry is a pure function of (n, grain).
  EXPECT_EQ(ChunkCount(0, 64), 0u);
  EXPECT_EQ(ChunkCount(1, 64), 1u);
  EXPECT_EQ(ChunkCount(64, 64), 1u);
  EXPECT_EQ(ChunkCount(65, 64), 2u);
  const size_t reference = ChunkCount(100000, 1000);
  for (int threads : {1, 2, 7}) {
    ScopedNumThreads scoped(threads);
    EXPECT_EQ(ChunkCount(100000, 1000), reference);
  }
  // kMaxChunks caps the chunk count for huge n.
  EXPECT_LE(ChunkCount(100000000, 1), kMaxChunks);
}

TEST(ParallelForTest, BalancedChunkBoundsAreMonotoneAndComplete) {
  Graph g = RandomGraph(3, 500);
  size_t bounds[kMaxChunks + 1];
  size_t chunks = BalancedChunkBounds(g.out_offsets().data(), g.num_nodes(),
                                      64, bounds);
  ASSERT_GE(chunks, 1u);
  ASSERT_LE(chunks, kMaxChunks);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[chunks], g.num_nodes());
  for (size_t c = 0; c < chunks; ++c) EXPECT_LE(bounds[c], bounds[c + 1]);
}

TEST(ParallelForTest, PerChunkPartialsReduceDeterministically) {
  // A floating-point reduction whose per-chunk partials are summed in chunk
  // order must be bit-identical at any thread count.
  const size_t n = 50000;
  std::vector<double> values(n);
  Rng rng(17);
  for (double& v : values) v = rng.NextDouble() - 0.5;
  auto reduce = [&] {
    double partial[kMaxChunks] = {0.0};
    size_t chunks = ChunkCount(n, 1024);
    ParallelFor(n, 1024, [&](size_t chunk, size_t begin, size_t end) {
      double sum = 0.0;
      for (size_t i = begin; i < end; ++i) sum += std::sin(values[i]);
      partial[chunk] = sum;
    });
    double total = 0.0;
    for (size_t c = 0; c < chunks; ++c) total += partial[c];
    return total;
  };
  SetNumThreads(1);
  double serial = reduce();
  for (int threads : {2, 4, 8}) {
    ScopedNumThreads scoped(threads);
    EXPECT_EQ(serial, reduce()) << threads << " threads";
  }
  SetNumThreads(0);  // restore default
}

TEST(ParallelForTest, StepForwardIdenticalAcrossThreadCounts) {
  // The ISSUE-mandated determinism check: 1 vs N threads produce identical
  // StepForward (and StepBackward) output, bit for bit.
  Graph g = RandomGraph(5, 2000);
  std::vector<double> dist(g.num_nodes(), 0.0);
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    dist[static_cast<size_t>(rng.NextUint64(g.num_nodes()))] =
        rng.NextDouble();
  }
  std::vector<double> forward_1thread, backward_1thread;
  {
    ScopedNumThreads scoped(1);
    core::StepForwardInto(g, dist, &forward_1thread);
    core::StepBackwardInto(g, dist, &backward_1thread);
  }
  for (int threads : {2, 4, 8}) {
    ScopedNumThreads scoped(threads);
    std::vector<double> forward, backward;
    core::StepForwardInto(g, dist, &forward);
    core::StepBackwardInto(g, dist, &backward);
    ASSERT_EQ(forward.size(), forward_1thread.size());
    for (size_t v = 0; v < forward.size(); ++v) {
      EXPECT_EQ(forward[v], forward_1thread[v])
          << "node " << v << " at " << threads << " threads";
      EXPECT_EQ(backward[v], backward_1thread[v])
          << "node " << v << " at " << threads << " threads";
    }
  }
}

TEST(ParallelForTest, FRankIdenticalAcrossThreadCounts) {
  Graph g = RandomGraph(7, 3000);
  std::vector<double> f1, t1;
  {
    ScopedNumThreads scoped(1);
    f1 = ranking::FRank(g, {0, 42});
    t1 = ranking::TRank(g, {0, 42});
  }
  {
    ScopedNumThreads scoped(4);
    std::vector<double> f4 = ranking::FRank(g, {0, 42});
    std::vector<double> t4 = ranking::TRank(g, {0, 42});
    for (size_t v = 0; v < f1.size(); ++v) {
      EXPECT_EQ(f1[v], f4[v]) << "node " << v;
      EXPECT_EQ(t1[v], t4[v]) << "node " << v;
    }
  }
}

TEST(ParallelForTest, ConcurrentCallersSerializeSafely) {
  // serve::QueryService workers may hit the pool concurrently; jobs must
  // queue without deadlock or cross-talk.
  ScopedNumThreads scoped(2);
  const size_t n = 20000;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      std::vector<uint64_t> out(n);
      for (int round = 0; round < 20; ++round) {
        ParallelFor(n, 512, [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out[i] = i * 2654435761u + static_cast<uint64_t>(t);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          if (out[i] != i * 2654435761u + static_cast<uint64_t>(t)) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);
}

// The value of an unlabeled series in the process-wide exposition; -1 when
// the series is absent.
double SeriesValue(const std::string& name) {
  const std::string text = obs::MetricsRegistry::Default().RenderText();
  const std::string line = "\n" + name + " ";
  const size_t at = text.find(line);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + line.size(), nullptr);
}

// The pool registers its own series: a gauge that follows every resize and
// counters that grow by exactly one job's worth. A second thread renders
// throughout, so the TSan job runs the gauge's read against the resize.
TEST(ParallelForTest, PoolMetricsFollowResizesAndJobs) {
  ScopedNumThreads restore(NumThreads());
  std::atomic<bool> stop{false};
  std::thread renderer([&stop] {
    while (!stop.load()) obs::MetricsRegistry::Default().RenderText();
  });
  for (int n : {1, 3}) {
    SetNumThreads(n);
    EXPECT_EQ(SeriesValue("rtr_pool_threads"), NumThreads()) << n;

    const double jobs = SeriesValue("rtr_pool_jobs_total");
    const double chunks = SeriesValue("rtr_pool_chunks_total");
    const size_t n_items = 10007, grain = 64;
    ParallelFor(n_items, grain, [](size_t, size_t, size_t) {});
    EXPECT_EQ(SeriesValue("rtr_pool_jobs_total"), jobs + 1) << n;
    EXPECT_EQ(SeriesValue("rtr_pool_chunks_total"),
              chunks + static_cast<double>(ChunkCount(n_items, grain)))
        << n;
  }
  stop.store(true);
  renderer.join();
}

TEST(ParallelForTest, SetNumThreadsResizesPool) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(0);  // back to default
  EXPECT_GE(NumThreads(), 1);
}

}  // namespace
}  // namespace rtr::util
