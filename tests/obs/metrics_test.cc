#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/latency_histogram.h"

namespace rtr::obs {
namespace {

// Tests run against a local registry so the process-wide Default() (which
// library components register into) never leaks into assertions.

TEST(MetricsRegistryTest, RenderTextCountersGaugesAndTypes) {
  MetricsRegistry registry;
  Counter zebra;
  zebra.Add(7);
  auto r1 = registry.RegisterCounter("zebra_total", {}, &zebra);
  auto r2 = registry.RegisterCallbackGauge("apple", {}, [] { return 2.5; });

  std::string text = registry.RenderText();
  // Series are sorted by name: apple before zebra_total.
  EXPECT_NE(text.find("# TYPE apple gauge\napple 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zebra_total counter\nzebra_total 7\n"),
            std::string::npos);
  EXPECT_LT(text.find("apple"), text.find("zebra_total"));
}

TEST(MetricsRegistryTest, RenderTextEscapesLabelValues) {
  MetricsRegistry registry;
  Counter c;
  c.Increment();
  auto r = registry.RegisterCounter("c_total", {{"path", "a\"b\\c"}}, &c);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("c_total{path=\"a\\\"b\\\\c\"} 1"), std::string::npos);
}

TEST(MetricsRegistryTest, DuplicateSeriesMergeAtRender) {
  MetricsRegistry registry;
  // Two components registering the same (name, labels) — e.g. two services
  // in one test process. The exposition must emit the series once, summed.
  Counter c1, c2;
  c1.Add(3);
  c2.Add(4);
  auto r1 = registry.RegisterCounter("dup_total", {}, &c1);
  auto r2 = registry.RegisterCounter("dup_total", {}, &c2);
  EXPECT_EQ(registry.NumSeries(), 2u);

  std::string text = registry.RenderText();
  EXPECT_NE(text.find("dup_total 7\n"), std::string::npos);
  // Exactly one sample line for the merged series.
  size_t first = text.find("\ndup_total ");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("\ndup_total ", first + 1), std::string::npos);
}

TEST(MetricsRegistryTest, DuplicateHistogramsMergeBucketwise) {
  MetricsRegistry registry;
  LatencyHistogram h1, h2, all;
  for (double ms : {0.5, 2.0, 8.0}) {
    h1.Record(ms);
    all.Record(ms);
  }
  for (double ms : {1.0, 4.0}) {
    h2.Record(ms);
    all.Record(ms);
  }
  auto r1 = registry.RegisterHistogram("lat_ms", {}, &h1);
  auto r2 = registry.RegisterHistogram("lat_ms", {}, &h2);

  MetricsRegistry reference;
  auto r3 = reference.RegisterHistogram("lat_ms", {}, &all);
  // Bit-equivalence of the merged exposition with a single histogram that
  // saw every sample: same buckets, same sum, same count.
  EXPECT_EQ(registry.RenderText(), reference.RenderText());
}

TEST(MetricsRegistryTest, RegistrationUnregistersOnDestruction) {
  MetricsRegistry registry;
  Counter c;
  {
    auto registration = registry.RegisterCounter("ephemeral_total", {}, &c);
    EXPECT_EQ(registry.NumSeries(), 1u);
  }
  EXPECT_EQ(registry.NumSeries(), 0u);
  EXPECT_EQ(registry.RenderText().find("ephemeral_total"), std::string::npos);
}

TEST(MetricsRegistryTest, RegistrationMoveTransfersOwnership) {
  MetricsRegistry registry;
  Counter c;
  auto a = registry.RegisterCounter("moved_total", {}, &c);
  MetricsRegistry::Registration b = std::move(a);
  a.Release();  // released moved-from handle: no effect
  EXPECT_EQ(registry.NumSeries(), 1u);
  b.Release();
  EXPECT_EQ(registry.NumSeries(), 0u);
}

TEST(MetricsRegistryTest, CallbackSeriesSampleAtRenderTime) {
  MetricsRegistry registry;
  std::atomic<uint64_t> produced{0};
  auto r1 = registry.RegisterCallbackCounter(
      "produced_total", {}, [&produced] { return produced.load(); });
  auto r2 = registry.RegisterCallbackGauge("fill", {},
                                           [&produced] {
                                             return 0.5 *
                                                    static_cast<double>(
                                                        produced.load());
                                           });
  EXPECT_NE(registry.RenderText().find("produced_total 0\n"),
            std::string::npos);
  produced.store(10);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("produced_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("fill 5\n"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramExpositionIsCumulativeWithInf) {
  MetricsRegistry registry;
  LatencyHistogram h;
  auto r = registry.RegisterHistogram("h_ms", {}, &h);
  h.Record(0.001);
  h.Record(1000000.0);  // lands in the overflow bucket
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("h_ms_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_count 2\n"), std::string::npos);
  // Cumulative: every bucket count is <= the +Inf count; spot-check that
  // the first emitted bucket holds exactly the one small sample.
  size_t bucket = text.find("h_ms_bucket{le=\"");
  ASSERT_NE(bucket, std::string::npos);
  size_t value_at = text.find("} ", bucket);
  ASSERT_NE(value_at, std::string::npos);
  EXPECT_EQ(text.substr(value_at + 2, 1), "1");
}

// Concurrency: writers hammer a counter, a histogram and a callback gauge's
// source while one thread renders and another churns registrations. Run
// under TSan in CI; the assertions here only check nothing is lost on the
// counter path.
TEST(MetricsRegistryTest, ConcurrentWritersRegistrarsAndRenderers) {
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kIncrementsPerWriter = 20000;
  Counter shared;
  LatencyHistogram hist;
  std::atomic<int> level{0};
  auto r1 = registry.RegisterCounter("shared_total", {}, &shared);
  auto r2 = registry.RegisterHistogram("shared_ms", {}, &hist);
  auto r3 = registry.RegisterCallbackGauge("shared_gauge", {}, [&level] {
    return static_cast<double>(level.load());
  });

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIncrementsPerWriter; ++i) {
        shared.Increment();
        hist.Record(0.001 * ((w + i) % 100 + 1));
        level.store(i);
      }
    });
  }
  threads.emplace_back([&] {  // renderer
    while (!stop.load()) {
      std::string text = registry.RenderText();
      EXPECT_NE(text.find("shared_total"), std::string::npos);
      EXPECT_NE(text.find("shared_ms"), std::string::npos);
    }
  });
  threads.emplace_back([&] {  // registrar churn
    Counter mine;
    while (!stop.load()) {
      auto registration =
          registry.RegisterCounter("churn_total", {{"who", "t"}}, &mine);
      mine.Increment();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(shared.value(),
            static_cast<uint64_t>(kWriters) * kIncrementsPerWriter);
  EXPECT_EQ(hist.TakeSnapshot().count,
            static_cast<uint64_t>(kWriters) * kIncrementsPerWriter);
}

}  // namespace
}  // namespace rtr::obs
