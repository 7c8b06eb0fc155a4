#include "serve/scheduler.h"

#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "serve/cost_model.h"
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
  EXPECT_LT(PriorityKey(1.0, 100.0), PriorityKey(5.0, 100.0));
  // Same cost: earlier arrival first (FIFO among equals).
  EXPECT_LT(PriorityKey(2.0, 50.0), PriorityKey(2.0, 60.0));
  // Anti-starvation: a 10ms-more-expensive job admitted 20ms earlier beats
  // the cheap newcomer (its head start exceeds the cost gap).
  EXPECT_LT(PriorityKey(11.0, 0.0), PriorityKey(1.0, 20.0));
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

// Scheduler on (SJF, aging, the cost model) but no deadline and no epsilon
// band: responses must stay bit-identical to the serial engine.
TEST(SchedulerServiceTest, ScheduledResponsesBitIdenticalToSerial) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  std::vector<NodeId> stream = QueryStream(graph, 30, 100, 99);

  ServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = stream.size();
  options.enable_cache = true;
  options.cache_capacity = 64;
  options.scheduler.enabled = true;
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
  // One query per worker wakeup: the legacy batch counters both read the
  // served-query count.
  EXPECT_EQ(stats.batches, stats.completed);
  EXPECT_EQ(stats.batched_queries, stats.completed);
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
  QueryService service(SharedGraphPtr(), options);
  service.SetTracing(true);
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

// ---------------------------------------------------------------------------
// The deadline test: admit at epsilon, widen to eps_max, or shed. Every
// request below is submitted before Start, so every prediction comes from
// the cost model's fixed prior and the decisions are deterministic.
// ---------------------------------------------------------------------------

constexpr double kEpsMax = 0.08;

// The prior's predictions for one query at the default epsilon and at
// kEpsMax: the exact values a fresh service's admission computes.
struct PriorPredictions {
  double at_epsilon;
  double at_eps_max;
};

PriorPredictions PredictFromPrior(NodeId q) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams wide = DefaultParams();
  wide.epsilon = kEpsMax;
  QueryCostModel prior;
  return {prior.PredictMillis(CostFeaturesOf(graph, {q}, DefaultParams())),
          prior.PredictMillis(CostFeaturesOf(graph, {q}, wide))};
}

ServiceOptions WideningOptions() {
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.enable_cache = true;
  options.scheduler.enabled = true;
  options.scheduler.eps_max = kEpsMax;
  return options;
}

// Submits every request to a not-yet-started service (each must be
// admitted), then starts it and returns the responses in submission order.
std::vector<ServeResponse> AdmitThenServe(
    QueryService* service, const std::vector<ServeRequest>& requests) {
  std::vector<ServeResponse> responses(requests.size());
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto promise = std::make_shared<std::promise<void>>();
    futures.push_back(promise->get_future());
    Status admitted = service->SubmitAsync(
        requests[i], [&responses, i, promise](const ServeResponse& r) {
          responses[i] = r;
          promise->set_value();
        });
    EXPECT_TRUE(admitted.ok()) << "request " << i << ": "
                               << admitted.ToString();
    if (!admitted.ok()) {
      service->Shutdown();  // fires the admitted callbacks before returning
      return {};
    }
  }
  EXPECT_TRUE(service->Start().ok());
  for (auto& f : futures) f.wait();
  service->Shutdown();
  return responses;
}

// (a) Queue depth alone never widens: eps_max set, a full queue, no
// deadline — every answer runs at its own epsilon, so the eight identical
// requests share one cache key.
TEST(SchedulerServiceTest, FullQueueWithoutDeadlineWidensNothing) {
  const NodeId q = QueryStream(SharedNet().graph(), 1, 1, 5)[0];
  QueryService service(SharedGraphPtr(), WideningOptions());
  std::vector<ServeResponse> responses = AdmitThenServe(
      &service, std::vector<ServeRequest>(8, {{q}, DefaultParams()}));
  ASSERT_EQ(responses.size(), 8u);
  for (const ServeResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.effective_epsilon, DefaultParams().epsilon);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.eps_widened, 0u);
  EXPECT_EQ(stats.cache_insertions, 1u);
  EXPECT_EQ(stats.cache_hits, 7u);
}

// (b) A deadline the request meets at its own epsilon admits it there.
TEST(SchedulerServiceTest, DeadlineMetAtEpsilonAdmitsAtEpsilon) {
  const NodeId q = QueryStream(SharedNet().graph(), 1, 1, 5)[0];
  const PriorPredictions prior = PredictFromPrior(q);
  QueryService service(SharedGraphPtr(), WideningOptions());
  ServeRequest request{{q}, DefaultParams(), prior.at_epsilon};
  std::vector<ServeResponse> responses = AdmitThenServe(&service, {request});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].effective_epsilon, DefaultParams().epsilon);
  EXPECT_EQ(responses[0].predicted_millis, prior.at_epsilon);
  EXPECT_EQ(service.stats().eps_widened, 0u);
}

// (c) A deadline missed at epsilon but met at eps_max admits the request
// at eps_max, carrying eps_max's prediction. The answer is the serial
// engine's at eps_max, and the cache keys on the effective epsilon: a
// request that asks for eps_max outright (served next: same prediction,
// later arrival) hits the widened answer, while the same query at its own
// epsilon is a separate engine run.
TEST(SchedulerServiceTest, DeadlineMetOnlyAtEpsMaxAdmitsWidened) {
  const Graph& graph = SharedNet().graph();
  const NodeId q = QueryStream(graph, 1, 1, 5)[0];
  const PriorPredictions prior = PredictFromPrior(q);
  ASSERT_LT(prior.at_eps_max, prior.at_epsilon);
  const double deadline = 0.5 * (prior.at_epsilon + prior.at_eps_max);
  core::TopKParams wide = DefaultParams();
  wide.epsilon = kEpsMax;

  QueryService service(SharedGraphPtr(), WideningOptions());
  std::vector<ServeResponse> responses = AdmitThenServe(
      &service, {{{q}, DefaultParams(), deadline},
                 {{q}, wide},
                 {{q}, DefaultParams()}});
  ASSERT_EQ(responses.size(), 3u);
  const ServeResponse& widened = responses[0];
  ASSERT_TRUE(widened.status.ok());
  EXPECT_EQ(widened.effective_epsilon, kEpsMax);
  EXPECT_EQ(widened.predicted_millis, prior.at_eps_max);
  ExpectBitIdentical(widened.topk, core::FreshTopK(graph, {q}, wide).value(),
                     q);
  EXPECT_EQ(responses[1].effective_epsilon, kEpsMax);
  EXPECT_EQ(responses[2].effective_epsilon, DefaultParams().epsilon);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.eps_widened, 1u);
  EXPECT_EQ(stats.shed_predicted, 0u);
  EXPECT_EQ(stats.cache_insertions, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_FALSE(responses[2].cache_hit);
}

// (d) A deadline missed even at eps_max is shed, not widened.
TEST(SchedulerServiceTest, DeadlineMissedAtEpsMaxIsShed) {
  const NodeId q = QueryStream(SharedNet().graph(), 1, 1, 5)[0];
  const PriorPredictions prior = PredictFromPrior(q);
  QueryService service(SharedGraphPtr(), WideningOptions());
  Status shed = service.SubmitAsync(
      {{q}, DefaultParams(), 0.5 * prior.at_eps_max}, nullptr);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.ToString().find("deadline"), std::string::npos);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_predicted, 1u);
  EXPECT_EQ(stats.eps_widened, 0u);
  EXPECT_EQ(stats.accepted, 0u);
  service.Shutdown();
}

// (e) FIFO ignores deadlines and eps_max: every request is admitted and
// runs at its own epsilon, without a prediction.
TEST(SchedulerServiceTest, FifoNeverWidensOrSheds) {
  const NodeId q = QueryStream(SharedNet().graph(), 1, 1, 5)[0];
  const PriorPredictions prior = PredictFromPrior(q);
  ServiceOptions options = WideningOptions();
  options.scheduler.enabled = false;
  QueryService service(SharedGraphPtr(), options);
  std::vector<ServeResponse> responses = AdmitThenServe(
      &service,
      {{{q}, DefaultParams(), 0.5 * (prior.at_epsilon + prior.at_eps_max)},
       {{q}, DefaultParams(), 0.5 * prior.at_eps_max},
       {{q}, DefaultParams()}});
  ASSERT_EQ(responses.size(), 3u);
  for (const ServeResponse& r : responses) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.effective_epsilon, DefaultParams().epsilon);
    EXPECT_EQ(r.predicted_millis, 0.0);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.eps_widened, 0u);
  EXPECT_EQ(stats.shed_predicted, 0u);
  EXPECT_EQ(stats.cache_insertions, 1u);
}

// Each query pins the generation current when a worker picks it up, not
// one shared by everything queued alongside it: a swap published by the
// first query's callback is what the second query runs on.
TEST(SchedulerServiceTest, ScheduledQueryPinsGenerationAtPickup) {
  const Graph& graph = SharedNet().graph();
  auto store = std::make_shared<GraphStore>(SharedGraphPtr());
  const NodeId q = QueryStream(graph, 1, 1, 23)[0];
  GraphDelta delta;
  delta.base_generation = 0;
  delta.added_arcs.push_back({q, graph.out_targets(q)[0], 1.0});

  ServiceOptions options;
  options.num_workers = 1;
  options.enable_cache = false;
  options.scheduler.enabled = true;
  QueryService service(store, options);

  // Both queued before Start, so the one worker finds them together. The
  // two requests are the same query, so SJF serves them in arrival order.
  std::vector<ServeResponse> responses(2);
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < 2; ++i) {
    auto promise = std::make_shared<std::promise<void>>();
    futures.push_back(promise->get_future());
    ASSERT_TRUE(service
                    .SubmitAsync({{q}, DefaultParams()},
                                 [&, i, promise](const ServeResponse& r) {
                                   responses[i] = r;
                                   if (i == 0) {
                                     EXPECT_TRUE(store->Apply(delta).ok());
                                   }
                                   promise->set_value();
                                 })
                    .ok());
  }
  ASSERT_TRUE(service.Start().ok());
  for (auto& f : futures) f.wait();
  service.Shutdown();

  ASSERT_TRUE(responses[0].status.ok());
  ASSERT_TRUE(responses[1].status.ok());
  EXPECT_EQ(responses[0].generation, 0u);
  EXPECT_EQ(responses[1].generation, 1u);
  ExpectBitIdentical(
      responses[1].topk,
      core::FreshTopK(*store->Current(), {q}, DefaultParams()).value(), q);
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
