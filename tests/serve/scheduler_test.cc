#include "serve/scheduler.h"

#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "graph/graph.h"
#include "serve/query_service.h"
#include "util/random.h"

namespace rtr::serve {
namespace {

// Shared small BibNet (same scale as query_service_test: generation is the
// slow part, queries are sub-millisecond).
const datasets::BibNet& SharedNet() {
  static const datasets::BibNet* net = [] {
    datasets::BibNetConfig config;
    config.num_papers = 800;
    config.num_authors = 200;
    return new datasets::BibNet(
        datasets::BibNet::Generate(config).value());
  }();
  return *net;
}

std::shared_ptr<const Graph> SharedGraphPtr() {
  return {std::shared_ptr<const Graph>{}, &SharedNet().graph()};
}

core::TopKParams DefaultParams() {
  core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;
  return params;
}

std::vector<NodeId> QueryStream(const Graph& g, int unique, int total,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> pool;
  while (static_cast<int>(pool.size()) < unique) {
    NodeId v = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
    if (g.out_degree(v) > 0) pool.push_back(v);
  }
  std::vector<NodeId> stream;
  for (int i = 0; i < total; ++i) {
    stream.push_back(pool[static_cast<size_t>(rng.NextUint64(pool.size()))]);
  }
  return stream;
}

void ExpectBitIdentical(const core::TopKResult& actual,
                        const core::TopKResult& expected, NodeId query) {
  ASSERT_EQ(actual.entries.size(), expected.entries.size())
      << "query " << query;
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(actual.entries[i].node, expected.entries[i].node)
        << "query " << query << " rank " << i;
    EXPECT_EQ(actual.entries[i].lower, expected.entries[i].lower)
        << "query " << query << " rank " << i;
    EXPECT_EQ(actual.entries[i].upper, expected.entries[i].upper)
        << "query " << query << " rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Policy pieces
// ---------------------------------------------------------------------------

TEST(SchedulerPolicyTest, PriorityKeyIsShortestJobFirstWithAging) {
  // Same arrival: cheaper job first.
  EXPECT_LT(PriorityKey(1.0, 100.0, 1.0), PriorityKey(5.0, 100.0, 1.0));
  // Same cost: earlier arrival first (FIFO among equals).
  EXPECT_LT(PriorityKey(2.0, 50.0, 1.0), PriorityKey(2.0, 60.0, 1.0));
  // Anti-starvation: a 10ms-more-expensive job admitted 20ms earlier beats
  // the cheap newcomer (its head start exceeds the cost gap).
  EXPECT_LT(PriorityKey(11.0, 0.0, 1.0), PriorityKey(1.0, 20.0, 1.0));
  // age_boost 0 is pure SJF: the head start stops mattering.
  EXPECT_GT(PriorityKey(11.0, 0.0, 0.0), PriorityKey(1.0, 20.0, 0.0));
}

TEST(SchedulerPolicyTest, ClassifyCostSplitsAroundTheMean) {
  EXPECT_EQ(ClassifyCost(0.4, 1.0), CostClass::kCheap);
  EXPECT_EQ(ClassifyCost(1.0, 1.0), CostClass::kModerate);
  EXPECT_EQ(ClassifyCost(2.5, 1.0), CostClass::kHeavy);
  // No mean yet: everything is moderate.
  EXPECT_EQ(ClassifyCost(5.0, 0.0), CostClass::kModerate);
  EXPECT_STREQ(CostClassName(CostClass::kCheap), "cheap");
  EXPECT_STREQ(CostClassName(CostClass::kModerate), "moderate");
  EXPECT_STREQ(CostClassName(CostClass::kHeavy), "heavy");
}

TEST(SchedulerPolicyTest, PredictedCompletionSpreadsBacklogAcrossWorkers) {
  EXPECT_DOUBLE_EQ(PredictedCompletionMillis(40.0, 4, 2.0), 12.0);
  EXPECT_DOUBLE_EQ(PredictedCompletionMillis(0.0, 4, 2.0), 2.0);
  // Degenerate worker counts clamp to one.
  EXPECT_DOUBLE_EQ(PredictedCompletionMillis(10.0, 0, 1.0), 11.0);
}

TEST(SchedulerPolicyTest, EffectiveEpsilonRampsQuantizedAboveWatermark) {
  SchedulerOptions options;
  options.eps_max = 0.09;
  options.queue_watermark = 0.5;
  const double base = 0.01;
  // At or below the watermark: untouched.
  EXPECT_DOUBLE_EQ(EffectiveEpsilon(base, options, 0, 8), base);
  EXPECT_DOUBLE_EQ(EffectiveEpsilon(base, options, 4, 8), base);
  // Above: monotone, quantized to kEpsilonSteps levels, capped at eps_max.
  const double e5 = EffectiveEpsilon(base, options, 5, 8);
  const double e6 = EffectiveEpsilon(base, options, 6, 8);
  const double e8 = EffectiveEpsilon(base, options, 8, 8);
  EXPECT_GT(e5, base);
  EXPECT_GE(e6, e5);
  EXPECT_DOUBLE_EQ(e8, options.eps_max);
  // Quantization: the whole ramp takes at most kEpsilonSteps + 1 values.
  std::set<double> values;
  for (size_t depth = 0; depth <= 8; ++depth) {
    values.insert(EffectiveEpsilon(base, options, depth, 8));
  }
  EXPECT_LE(values.size(), static_cast<size_t>(kEpsilonSteps) + 1);
  // Disabled band (eps_max below base): always base.
  options.eps_max = 0.001;
  EXPECT_DOUBLE_EQ(EffectiveEpsilon(base, options, 8, 8), base);
}

TEST(AdmissionQueueTest, PopsInKeyOrderWithFifoTieBreak) {
  AdmissionQueue<int> queue;
  queue.Push(3.0, 3.0, 30);
  queue.Push(1.0, 1.0, 10);
  queue.Push(2.0, 2.0, 20);
  queue.Push(1.0, 1.0, 11);  // same key as 10, admitted later
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_DOUBLE_EQ(queue.total_predicted_millis(), 7.0);
  EXPECT_EQ(queue.Pop(), 10);
  EXPECT_EQ(queue.Pop(), 11);
  EXPECT_DOUBLE_EQ(queue.total_predicted_millis(), 5.0);
  EXPECT_EQ(queue.Pop(), 20);
  EXPECT_EQ(queue.Pop(), 30);
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.total_predicted_millis(), 0.0);
}

TEST(AdmissionQueueTest, RandomizedAgainstSortedReference) {
  Rng rng(13);
  AdmissionQueue<size_t> queue;
  std::vector<std::pair<double, size_t>> reference;
  for (size_t i = 0; i < 200; ++i) {
    const double key = rng.NextDouble() * 10.0;
    queue.Push(key, 0.5, i);
    reference.emplace_back(key, i);
  }
  // Stable sort by key == key order with sequence tie-break.
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (const auto& [key, index] : reference) {
    EXPECT_EQ(queue.Pop(), index) << "key " << key;
  }
}

// ---------------------------------------------------------------------------
// QueryService integration
// ---------------------------------------------------------------------------

// Scheduler on (batching, aging, the lot) but no deadline and no epsilon
// band: responses must stay bit-identical to the serial engine.
TEST(SchedulerServiceTest, ScheduledBatchedResponsesBitIdenticalToSerial) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  std::vector<NodeId> stream = QueryStream(graph, 30, 100, 99);

  ServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = stream.size();
  options.enable_cache = true;
  options.cache_capacity = 64;
  options.scheduler.enabled = true;
  options.scheduler.batch_size = 4;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());

  std::vector<ServeResponse> responses(stream.size());
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < stream.size(); ++i) {
    auto promise = std::make_shared<std::promise<void>>();
    futures.push_back(promise->get_future());
    ASSERT_TRUE(service
                    .SubmitAsync({{stream[i]}, params},
                                 [&responses, i, promise](
                                     const ServeResponse& r) {
                                   responses[i] = r;
                                   promise->set_value();
                                 })
                    .ok());
  }
  for (auto& f : futures) f.wait();
  service.Shutdown();

  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_EQ(responses[i].effective_epsilon, params.epsilon);
    EXPECT_GT(responses[i].predicted_millis, 0.0);
    core::TopKResult expected =
        core::FreshTopK(graph, {stream[i]}, params).value();
    ExpectBitIdentical(responses[i].topk, expected, stream[i]);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, stream.size());
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batched_queries, stream.size());
  EXPECT_EQ(stats.shed_predicted, 0u);
  EXPECT_EQ(stats.eps_widened, 0u);
  // The model learned from this stream's engine runs.
  EXPECT_GT(service.cost_model().observations(), 0u);
}

// With the scheduler off, the FIFO path answers exactly like the serial
// engine (the pre-scheduler contract, restated here so this suite pins it).
TEST(SchedulerServiceTest, SchedulerOffMatchesSerialEngine) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  std::vector<NodeId> stream = QueryStream(graph, 20, 60, 17);

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = stream.size();
  ASSERT_FALSE(options.scheduler.enabled);  // default off
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  for (NodeId q : stream) {
    StatusOr<ServeResponse> response = service.Call({{q}, params});
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->effective_epsilon, params.epsilon);
    EXPECT_EQ(response->predicted_millis, 0.0);
    core::TopKResult expected =
        core::FreshTopK(graph, {q}, params).value();
    ExpectBitIdentical(response->topk, expected, q);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.shed_predicted, 0u);
  EXPECT_EQ(stats.eps_widened, 0u);
  // Per-class queue waits are recorded on the FIFO path too.
  uint64_t class_total = 0;
  for (const auto& wait : stats.queue_wait) class_total += wait.count;
  EXPECT_EQ(class_total, stream.size());
}

// FIFO runs through the scheduler's task runner, so its engine runs train
// the cost model that splits its queue waits by class, while its
// scheduler-only observables stay off.
TEST(SchedulerServiceTest, FifoEngineRunsTrainTheCostModel) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  std::vector<NodeId> stream = QueryStream(graph, 10, 20, 29);

  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = stream.size();
  options.enable_tracing = true;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  for (NodeId q : stream) {
    StatusOr<ServeResponse> response = service.Call({{q}, params});
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->predicted_millis, 0.0);
  }
  service.Shutdown();

  ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(service.cost_model().observations(), 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.batched_queries, 0u);
  EXPECT_EQ(service.phase_latencies(obs::Phase::kQueueWait).Count(),
            stream.size());
  EXPECT_EQ(service.phase_latencies(obs::Phase::kSchedWait).Count(), 0u);
}

// Deadline shedding is deterministic: any positive prediction blows a
// sub-microsecond deadline, and the FIFO path never sheds on deadlines.
TEST(SchedulerServiceTest, DeadlineShedsAtAdmissionWithDistinctCounter) {
  core::TopKParams params = DefaultParams();

  ServiceOptions scheduled;
  scheduled.scheduler.enabled = true;
  QueryService service(SharedGraphPtr(), scheduled);
  // Not started: admission decisions are exercised without racing workers.
  ServeRequest doomed;
  doomed.query = {1};
  doomed.params = params;
  doomed.deadline_millis = 1e-4;
  Status shed = service.SubmitAsync(doomed, nullptr);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.ToString().find("deadline"), std::string::npos);

  ServeRequest relaxed;
  relaxed.query = {1};
  relaxed.params = params;
  relaxed.deadline_millis = 1e6;
  EXPECT_TRUE(service.SubmitAsync(relaxed, nullptr).ok());
  // No deadline at all is always admitted.
  EXPECT_TRUE(service.SubmitAsync({{1}, params}, nullptr).ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_predicted, 1u);
  EXPECT_EQ(stats.shed_overflow, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  service.Shutdown();

  // Same doomed request through a FIFO service: deadlines are ignored.
  ServiceOptions fifo;
  QueryService fifo_service(SharedGraphPtr(), fifo);
  EXPECT_TRUE(fifo_service.SubmitAsync(doomed, nullptr).ok());
  EXPECT_EQ(fifo_service.stats().shed_predicted, 0u);
  fifo_service.Shutdown();
}

TEST(SchedulerServiceTest, QueueOverflowCountsAsShedOverflow) {
  ServiceOptions options;
  options.queue_capacity = 2;
  QueryService service(SharedGraphPtr(), options);
  core::TopKParams params = DefaultParams();
  EXPECT_TRUE(service.SubmitAsync({{1}, params}, nullptr).ok());
  EXPECT_TRUE(service.SubmitAsync({{2}, params}, nullptr).ok());
  Status overflow = service.SubmitAsync({{3}, params}, nullptr);
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_overflow, 1u);
  EXPECT_EQ(stats.shed_predicted, 0u);
  service.Shutdown();
}

// Epsilon widening under queue pressure: depths past the watermark stamp a
// widened effective epsilon into the response, and the cache keys on the
// effective value (distinct widened epsilons = distinct insertions).
TEST(SchedulerServiceTest, AdaptiveEpsilonStampsResponsesAndKeysCache) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  NodeId query_node = QueryStream(graph, 1, 1, 5)[0];

  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.enable_cache = true;
  options.scheduler.enabled = true;
  options.scheduler.batch_size = 8;
  options.scheduler.eps_max = 0.08;
  options.scheduler.queue_watermark = 0.5;
  QueryService service(SharedGraphPtr(), options);

  // Submit before Start: admission depths are exactly 0..7, so the
  // effective epsilons are fully deterministic.
  std::vector<ServeResponse> responses(8);
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < 8; ++i) {
    auto promise = std::make_shared<std::promise<void>>();
    futures.push_back(promise->get_future());
    ASSERT_TRUE(service
                    .SubmitAsync({{query_node}, params},
                                 [&responses, i, promise](
                                     const ServeResponse& r) {
                                   responses[i] = r;
                                   promise->set_value();
                                 })
                    .ok());
  }
  ASSERT_TRUE(service.Start().ok());
  for (auto& f : futures) f.wait();
  service.Shutdown();

  std::set<double> effective;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(responses[i].status.ok());
    EXPECT_GE(responses[i].effective_epsilon, params.epsilon);
    EXPECT_LE(responses[i].effective_epsilon, options.scheduler.eps_max);
    effective.insert(responses[i].effective_epsilon);
  }
  // Depths 0..4 stay at base; 5, 6, 7 hit three distinct quantized steps.
  EXPECT_EQ(effective.size(), 4u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.eps_widened, 3u);
  // One identical query at four effective epsilons: exactly four engine
  // runs entered the cache, the other four were hits on the base key.
  EXPECT_EQ(stats.cache_insertions, 4u);
  EXPECT_EQ(stats.cache_hits, 4u);
}

// A single worker drains everything queued before Start as one batch
// (capped by batch_size), amortizing the generation pin.
TEST(SchedulerServiceTest, SingleWorkerDrainsQueuedBacklogAsOneBatch) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  std::vector<NodeId> stream = QueryStream(graph, 6, 6, 23);

  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 16;
  options.scheduler.enabled = true;
  options.scheduler.batch_size = 8;
  QueryService service(SharedGraphPtr(), options);

  std::vector<std::future<void>> futures;
  for (NodeId q : stream) {
    auto promise = std::make_shared<std::promise<void>>();
    futures.push_back(promise->get_future());
    ASSERT_TRUE(service
                    .SubmitAsync({{q}, params},
                                 [promise](const ServeResponse&) {
                                   promise->set_value();
                                 })
                    .ok());
  }
  ASSERT_TRUE(service.Start().ok());
  for (auto& f : futures) f.wait();
  service.Shutdown();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, stream.size());
}

// A NaN epsilon is rejected by the engine, and the features admission
// computes for it before the engine runs must not poison the cost model.
TEST(SchedulerServiceTest, NanEpsilonIsRejectedAndCostModelStaysFinite) {
  const Graph& graph = SharedNet().graph();
  ServiceOptions options;
  options.num_workers = 1;
  options.scheduler.enabled = true;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  const NodeId q = QueryStream(graph, 1, 1, 41)[0];

  core::TopKParams nan_params = DefaultParams();
  nan_params.epsilon = std::nan("");
  StatusOr<ServeResponse> rejected = service.Call({{q}, nan_params});
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status.code(), StatusCode::kInvalidArgument);
  for (double w : service.cost_model().weights()) {
    EXPECT_TRUE(std::isfinite(w)) << w;
  }

  StatusOr<ServeResponse> next = service.Call({{q}, DefaultParams()});
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->status.ok()) << next->status.ToString();
  EXPECT_TRUE(std::isfinite(next->predicted_millis))
      << next->predicted_millis;
  service.Shutdown();
}

// Shutdown with queued scheduler work completes every callback exactly
// once (the kUnavailable drain covers the priority queue too).
TEST(SchedulerServiceTest, ShutdownDrainsPriorityQueue) {
  ServiceOptions options;
  options.scheduler.enabled = true;
  QueryService service(SharedGraphPtr(), options);
  core::TopKParams params = DefaultParams();
  std::atomic<int> done{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service
                    .SubmitAsync({{static_cast<NodeId>(i)}, params},
                                 [&done](const ServeResponse& r) {
                                   EXPECT_EQ(r.status.code(),
                                             StatusCode::kUnavailable);
                                   done.fetch_add(1);
                                 })
                    .ok());
  }
  service.Shutdown();  // never started
  EXPECT_EQ(done.load(), 5);
}

}  // namespace
}  // namespace rtr::serve
