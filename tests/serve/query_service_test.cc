#include "serve/query_service.h"

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "dist/distributed_topk.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/store.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace rtr::serve {
namespace {

// One small BibNet shared by every test in this binary (generation is the
// slow part, each top-K query is sub-millisecond at this scale).
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

// Non-owning handle to the shared BibNet's graph for the service/cluster
// shared_ptr constructors: the fixture above lives for the whole process,
// so an aliasing shared_ptr with no control block is safe and avoids
// copying the graph per test.
std::shared_ptr<const Graph> SharedGraphPtr() {
  return {std::shared_ptr<const Graph>{}, &SharedNet().graph()};
}

core::TopKParams DefaultParams() {
  core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;
  return params;
}

// A stream of `total` queries drawn from `unique` distinct non-dangling
// nodes — repeats are what exercises the cache-hit path.
std::vector<NodeId> MixedQueryStream(const Graph& g, int unique, int total,
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
    // Bit-identical, not approximately equal: concurrency and caching must
    // not perturb the arithmetic in any way.
    EXPECT_EQ(actual.entries[i].lower, expected.entries[i].lower)
        << "query " << query << " rank " << i;
    EXPECT_EQ(actual.entries[i].upper, expected.entries[i].upper)
        << "query " << query << " rank " << i;
  }
}

// Acceptance-criterion test: >= 4 workers, >= 100 mixed cached/uncached
// queries, responses bit-identical to serial TopKRoundTripRank.
void RunBitIdenticalStream(Backend backend) {
  const Graph& graph = SharedNet().graph();
  core::TopKParams params = DefaultParams();
  std::vector<NodeId> stream = MixedQueryStream(graph, 40, 120, 42);

  // Serial references, computed once per distinct query.
  std::vector<core::TopKResult> reference(graph.num_nodes());
  std::vector<bool> have_reference(graph.num_nodes(), false);
  for (NodeId q : stream) {
    if (have_reference[q]) continue;
    reference[q] = core::FreshTopK(graph, {q}, params).value();
    have_reference[q] = true;
  }

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = stream.size();
  options.enable_cache = true;
  options.cache_capacity = 64;

  std::unique_ptr<QueryService> service_holder;
  if (backend == Backend::kLocal) {
    service_holder =
        std::make_unique<QueryService>(SharedGraphPtr(), options);
  } else {
    service_holder = std::make_unique<QueryService>(
        std::make_shared<const dist::Cluster>(SharedGraphPtr(), 3), options);
  }
  QueryService& service = *service_holder;
  ASSERT_TRUE(service.Start().ok());

  // Callbacks write disjoint slots, so no lock is needed.
  std::vector<ServeResponse> responses(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(service
                    .SubmitAsync({{stream[i]}, params},
                                 [&responses, i](const ServeResponse& r) {
                                   responses[i] = r;
                                 })
                    .ok());
  }
  service.Shutdown();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stream.size());
  EXPECT_EQ(stats.completed, stream.size());
  EXPECT_EQ(stats.failed, 0u);
  // 40 unique nodes in 120 requests: both cache paths must have been taken.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(service.latencies().Count(), stream.size());

  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    ExpectBitIdentical(responses[i].topk, reference[stream[i]], stream[i]);
  }
}

TEST(QueryServiceTest, BitIdenticalToSerialLocalBackend) {
  RunBitIdenticalStream(Backend::kLocal);
}

TEST(QueryServiceTest, BitIdenticalToSerialDistributedBackend) {
  RunBitIdenticalStream(Backend::kDistributed);
}

TEST(QueryServiceTest, AdmissionQueueOverflowShedsLoad) {
  const Graph& graph = SharedNet().graph();
  std::vector<NodeId> stream = MixedQueryStream(graph, 6, 6, 7);

  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 5;
  QueryService service(SharedGraphPtr(), options);

  // Submissions queue up before Start, so the overflow is deterministic.
  std::atomic<int> done{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service
                    .SubmitAsync({{stream[static_cast<size_t>(i)]},
                                  DefaultParams()},
                                 [&done](const ServeResponse&) { ++done; })
                    .ok());
  }
  Status overflow = service.SubmitAsync({{stream[5]}, DefaultParams()},
                                        [&done](const ServeResponse&) {
                                          ++done;
                                        });
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);

  ASSERT_TRUE(service.Start().ok());
  service.Shutdown();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(done.load(), 5);  // the rejected callback never fires
}

TEST(QueryServiceTest, SubmitAfterShutdownIsUnavailable) {
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  service.Shutdown();
  Status status = service.SubmitAsync({{0}, DefaultParams()}, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(QueryServiceTest, CallRequiresStartedService) {
  QueryService service(SharedGraphPtr(), ServiceOptions{});
  StatusOr<ServeResponse> response =
      service.Call({{0}, DefaultParams()});
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, StartTwiceFails) {
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
  service.Shutdown();
}

TEST(QueryServiceTest, RepeatQueryHitsCacheThenEvicts) {
  const Graph& graph = SharedNet().graph();
  // Two *distinct* non-dangling nodes (MixedQueryStream's pool may repeat).
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes() && nodes.size() < 2; ++v) {
    if (graph.out_degree(v) > 0) nodes.push_back(v);
  }
  ASSERT_EQ(nodes.size(), 2u);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());

  ServeRequest first{{nodes[0]}, DefaultParams()};
  ServeRequest second{{nodes[1]}, DefaultParams()};
  StatusOr<ServeResponse> miss = service.Call(first);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);

  StatusOr<ServeResponse> hit = service.Call(first);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  ExpectBitIdentical(hit->topk, miss->topk, nodes[0]);

  // A different query evicts the single-entry cache...
  ASSERT_TRUE(service.Call(second).ok());
  // ...so the first query misses again.
  StatusOr<ServeResponse> again = service.Call(first);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);
  EXPECT_GE(service.stats().cache_evictions, 1u);
  service.Shutdown();
}

TEST(QueryServiceTest, ChangedParamsBypassTheCache) {
  const Graph& graph = SharedNet().graph();
  std::vector<NodeId> nodes = MixedQueryStream(graph, 1, 1, 13);
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());

  core::TopKParams params = DefaultParams();
  ASSERT_TRUE(service.Call({{nodes[0]}, params}).ok());
  params.k = 5;  // any parameter change is a different cache key
  StatusOr<ServeResponse> other = service.Call({{nodes[0]}, params});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->cache_hit);
  EXPECT_EQ(other->topk.entries.size(), 5u);
  service.Shutdown();
}

TEST(QueryServiceTest, EngineErrorsPropagatePerQuery) {
  const Graph& graph = SharedNet().graph();
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());

  NodeId out_of_range = static_cast<NodeId>(graph.num_nodes());
  StatusOr<ServeResponse> bad = service.Call({{out_of_range},
                                              DefaultParams()});
  ASSERT_TRUE(bad.ok());  // the transport succeeded; the engine failed
  EXPECT_EQ(bad->status.code(), StatusCode::kInvalidArgument);

  // The service keeps serving after a failed query.
  std::vector<NodeId> nodes = MixedQueryStream(graph, 1, 1, 17);
  StatusOr<ServeResponse> good = service.Call({{nodes[0]}, DefaultParams()});
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->status.ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  service.Shutdown();
}

TEST(QueryServiceTest, NaiveSchemeRejectedByDistributedBackend) {
  const Graph& graph = SharedNet().graph();
  auto cluster = std::make_shared<const dist::Cluster>(SharedGraphPtr(), 2);
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(cluster, options);
  ASSERT_TRUE(service.Start().ok());

  std::vector<NodeId> nodes = MixedQueryStream(graph, 1, 1, 19);
  core::TopKParams params = DefaultParams();
  params.scheme = core::TopKScheme::kNaive;
  StatusOr<ServeResponse> response = service.Call({{nodes[0]}, params});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  service.Shutdown();
}

TEST(QueryServiceTest, SloViolationAccounting) {
  const Graph& graph = SharedNet().graph();
  std::vector<NodeId> stream = MixedQueryStream(graph, 4, 8, 23);

  // An impossible 0 ms SLO: every completed query violates it.
  ServiceOptions options;
  options.num_workers = 2;
  options.slo_millis = 0.0;
  {
    QueryService service(SharedGraphPtr(), options);
    ASSERT_TRUE(service.Start().ok());
    for (NodeId q : stream) {
      ASSERT_TRUE(service.SubmitAsync({{q}, DefaultParams()}, nullptr).ok());
    }
    service.Shutdown();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.slo_violations, stats.completed);
    EXPECT_GT(stats.qps, 0.0);
    EXPECT_GT(stats.p99_millis, 0.0);
  }

  // An unmissable SLO: zero violations.
  options.slo_millis = 1e9;
  {
    QueryService service(SharedGraphPtr(), options);
    ASSERT_TRUE(service.Start().ok());
    for (NodeId q : stream) {
      ASSERT_TRUE(service.SubmitAsync({{q}, DefaultParams()}, nullptr).ok());
    }
    service.Shutdown();
    EXPECT_EQ(service.stats().slo_violations, 0u);
  }
}

TEST(QueryServiceTest, ShutdownWithoutStartCompletesQueuedAsUnavailable) {
  ServiceOptions options;
  QueryService service(SharedGraphPtr(), options);
  std::atomic<int> unavailable{0};
  ASSERT_TRUE(service
                  .SubmitAsync({{0}, DefaultParams()},
                               [&unavailable](const ServeResponse& r) {
                                 if (r.status.code() ==
                                     StatusCode::kUnavailable) {
                                   ++unavailable;
                                 }
                               })
                  .ok());
  service.Shutdown();
  EXPECT_EQ(unavailable.load(), 1);  // the accepted callback fired once
}

// Snapshot-based bring-up: LoadGraphAuto plus the GraphStore constructor
// must serve a snapshot-loaded graph at the snapshot's generation, with
// results identical to a service over the in-memory original.
TEST(QueryServiceTest, SnapshotLoadedServiceServesSnapshot) {
  const Graph& g = SharedNet().graph();
  const std::string path =
      testing::TempDir() + "/rtr_query_service_test.rtrsnap";
  ASSERT_TRUE(SaveGraphSnapshotToFile(g, path, /*generation=*/3).ok());

  uint64_t generation = 0;
  StatusOr<Graph> loaded = LoadGraphAuto(path, &generation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(
      std::make_shared<GraphStore>(
          std::make_shared<const Graph>(std::move(*loaded)), generation),
      options);
  ASSERT_TRUE(service.Start().ok());

  NodeId query = MixedQueryStream(g, 1, 1, 17)[0];
  StatusOr<ServeResponse> response = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->generation, 3u);
  core::TopKResult expected =
      core::FreshTopK(g, {query}, DefaultParams()).value();
  ExpectBitIdentical(response->topk, expected, query);
  service.Shutdown();
}

TEST(QueryServiceTest, SnapshotLoadRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(LoadGraphAuto("/nonexistent/g.rtrsnap").ok());

  const std::string path = testing::TempDir() + "/rtr_query_service_bad.txt";
  std::ofstream(path) << "not a graph at all\n";
  EXPECT_FALSE(LoadGraphAuto(path).ok());
}

// Every distributed backend exports the rtr_net_* wire series; a loopback
// cluster moves no wire bytes, so they read 0 after real traffic.
TEST(QueryServiceTest, LoopbackExpositionShowsZeroWireTraffic) {
  ServiceOptions options;
  options.num_workers = 2;
  auto cluster = std::make_shared<const dist::Cluster>(SharedGraphPtr(), 2);
  QueryService service(cluster, options);
  ASSERT_TRUE(service.Start().ok());
  for (NodeId query : MixedQueryStream(SharedNet().graph(), 3, 3, 5)) {
    StatusOr<ServeResponse> response =
        service.Call({{query}, DefaultParams()});
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
  }
  service.Shutdown();
  ASSERT_GT(cluster->total_fetch_requests(), 0u);

  const std::string text = obs::MetricsRegistry::Default().RenderText();
  for (const char* series :
       {"rtr_net_frames_sent_total{backend=\"distributed\"} 0\n",
        "rtr_net_bytes_received_total{backend=\"distributed\"} 0\n",
        "rtr_dist_fetch_requests_total{gp=\"0\"}"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series << "\n" << text;
  }
}

// ---------------------------------------------------------------------------
// Live updates (DESIGN.md §8): serving over a GraphStore while a writer
// publishes new generations.

Graph LiveBaseGraph(size_t n = 50) {
  Rng rng(99);
  GraphBuilder b;
  b.AddNodes(n);
  for (size_t e = 0; e < 4 * n; ++e) {
    b.AddDirectedEdge(static_cast<NodeId>(rng.NextUint64(n)),
                      static_cast<NodeId>(rng.NextUint64(n)),
                      0.1 + rng.NextDouble());
  }
  return b.Build().value();
}

// Appends two nodes and a batch of arcs over the grown range.
GraphDelta GrowthDelta(uint64_t base_generation, size_t base_nodes,
                       uint64_t seed) {
  Rng rng(seed);
  GraphDelta delta;
  delta.base_generation = base_generation;
  delta.added_node_types = {kUntypedNode, kUntypedNode};
  const size_t n = base_nodes + 2;
  for (int e = 0; e < 10; ++e) {
    delta.added_arcs.push_back({static_cast<NodeId>(rng.NextUint64(n)),
                                static_cast<NodeId>(rng.NextUint64(n)),
                                0.1 + rng.NextDouble()});
  }
  return delta;
}

TEST(QueryServiceTest, LiveStoreServesNewGenerationsMidStream) {
  auto store = std::make_shared<GraphStore>(LiveBaseGraph());
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(store, options);
  ASSERT_TRUE(service.Start().ok());

  NodeId query = 0;
  while (store->Current()->out_degree(query) == 0) ++query;

  StatusOr<ServeResponse> before = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->status.ok());
  EXPECT_EQ(before->generation, 0u);
  ExpectBitIdentical(
      before->topk,
      core::FreshTopK(*store->Current(), {query}, DefaultParams())
          .value(),
      query);

  // Publish generation 1 while the pool is live; the same query must now be
  // answered on the new graph, bit-identically to a serial run on it.
  PinnedGraph old_pin = store->Pin();
  ASSERT_TRUE(store->Apply(GrowthDelta(0, old_pin.graph->num_nodes(), 7)).ok());
  StatusOr<ServeResponse> after = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->status.ok());
  EXPECT_EQ(after->generation, 1u);
  EXPECT_FALSE(after->cache_hit);  // the old generation's entry is dead
  ExpectBitIdentical(
      after->topk,
      core::FreshTopK(*store->Current(), {query}, DefaultParams())
          .value(),
      query);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.generation, 1u);
  service.Shutdown();
}

TEST(QueryServiceTest, GenerationSwapInvalidatesCachedResults) {
  auto store = std::make_shared<GraphStore>(LiveBaseGraph());
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(store, options);
  ASSERT_TRUE(service.Start().ok());

  NodeId query = 0;
  while (store->Current()->out_degree(query) == 0) ++query;
  ServeRequest request{{query}, DefaultParams()};

  ASSERT_TRUE(service.Call(request).ok());              // miss, fills cache
  StatusOr<ServeResponse> hit = service.Call(request);  // hit on generation 0
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);

  ASSERT_TRUE(
      store->Apply(GrowthDelta(0, store->Current()->num_nodes(), 11)).ok());
  StatusOr<ServeResponse> miss = service.Call(request);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);  // generation 1 key, computed fresh
  EXPECT_EQ(miss->generation, 1u);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.generation, 1u);
  // The first query to observe the swap reclaimed generation-0 entries.
  EXPECT_GE(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  service.Shutdown();
}

TEST(QueryServiceTest, DistLiveBackendRestripesOnSwap) {
  auto store = std::make_shared<GraphStore>(LiveBaseGraph());
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(store, /*num_gps=*/2, options);
  EXPECT_EQ(service.backend(), Backend::kDistributed);
  ASSERT_TRUE(service.Start().ok());

  NodeId query = 0;
  while (store->Current()->out_degree(query) == 0) ++query;

  StatusOr<ServeResponse> before = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->status.ok());
  EXPECT_EQ(before->generation, 0u);

  ASSERT_TRUE(
      store->Apply(GrowthDelta(0, store->Current()->num_nodes(), 13)).ok());
  StatusOr<ServeResponse> after = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->status.ok());
  EXPECT_EQ(after->generation, 1u);
  // The distributed replay on the restriped cluster matches the local
  // engine on the same generation bit-for-bit.
  ExpectBitIdentical(
      after->topk,
      core::FreshTopK(*store->Current(), {query}, DefaultParams())
          .value(),
      query);
  service.Shutdown();
}

// Each dist-live restripe is one rtr_dist_restripe_ms sample; the eager
// striping at construction is not a restripe.
TEST(QueryServiceTest, DistLiveRestripeIsTimed) {
  auto store = std::make_shared<GraphStore>(LiveBaseGraph());
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(store, /*num_gps=*/2, options);
  ASSERT_TRUE(service.Start().ok());
  const std::string count_series =
      "rtr_dist_restripe_ms_count{backend=\"distributed\"} ";
  std::string text = obs::MetricsRegistry::Default().RenderText();
  EXPECT_NE(text.find(count_series + "0\n"), std::string::npos) << text;

  NodeId query = 0;
  while (store->Current()->out_degree(query) == 0) ++query;
  ASSERT_TRUE(
      store->Apply(GrowthDelta(0, store->Current()->num_nodes(), 19)).ok());
  StatusOr<ServeResponse> response = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->generation, 1u);
  service.Shutdown();

  text = obs::MetricsRegistry::Default().RenderText();
  EXPECT_NE(text.find(count_series + "1\n"), std::string::npos) << text;
}

// A scheduled batch pins its generation once, and that pin is its own
// phase: it must not also be counted inside the batch's wait. A dist-live
// restripe makes the pin large enough that a double count shows up as a
// phase sum above the query's wall time.
TEST(QueryServiceTest, ScheduledRestripePinIsTracedOnce) {
  auto store = std::make_shared<GraphStore>(SharedGraphPtr());
  ServiceOptions options;
  options.num_workers = 1;
  options.enable_cache = false;
  options.enable_tracing = true;
  options.scheduler.enabled = true;
  QueryService service(store, /*num_gps=*/2, options);
  ASSERT_TRUE(service.Start().ok());

  NodeId query = 0;
  while (store->Current()->out_degree(query) == 0) ++query;
  ASSERT_TRUE(service.Call({{query}, DefaultParams()}).ok());

  auto phase_sum = [&service] {
    double sum = 0.0;
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      sum += service.phase_latencies(static_cast<obs::Phase>(p)).SumMillis();
    }
    return sum;
  };
  const double phases_before = phase_sum();
  const double latency_before = service.latencies().SumMillis();

  ASSERT_TRUE(
      store->Apply(GrowthDelta(0, store->Current()->num_nodes(), 17)).ok());
  StatusOr<ServeResponse> restriped = service.Call({{query}, DefaultParams()});
  ASSERT_TRUE(restriped.ok());
  ASSERT_TRUE(restriped->status.ok());
  EXPECT_EQ(restriped->generation, 1u);

  // Same slack per query as TracedPhasesSumToAtMostTotalLatency.
  EXPECT_LE(phase_sum() - phases_before,
            service.latencies().SumMillis() - latency_before + 0.05);
  service.Shutdown();
}

// Swap-under-load stress (the serve-side TSan target): a writer publishes
// generations while 4 workers drain a query stream; every response must be
// bit-identical to a serial run on the generation it reports.
TEST(QueryServiceTest, LiveSwapUnderConcurrentLoadStaysBitIdentical) {
  auto store = std::make_shared<GraphStore>(LiveBaseGraph());
  constexpr int kSwaps = 4;
  constexpr int kQueriesPerPhase = 12;

  // Pin every generation so post-hoc references can be computed on the
  // exact graphs the workers served.
  std::vector<PinnedGraph> generations;
  generations.push_back(store->Pin());

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = (kSwaps + 1) * kQueriesPerPhase;
  QueryService service(store, options);
  ASSERT_TRUE(service.Start().ok());

  std::vector<NodeId> pool =
      MixedQueryStream(*generations[0].graph, 8, kQueriesPerPhase, 31);
  std::vector<ServeResponse> responses(options.queue_capacity);
  size_t submitted = 0;
  for (int phase = 0; phase <= kSwaps; ++phase) {
    for (int i = 0; i < kQueriesPerPhase; ++i) {
      const size_t slot = submitted++;
      ASSERT_TRUE(service
                      .SubmitAsync({{pool[static_cast<size_t>(i) %
                                          pool.size()]},
                                    DefaultParams()},
                                   [&responses, slot](const ServeResponse& r) {
                                     responses[slot] = r;
                                   })
                      .ok());
    }
    if (phase < kSwaps) {
      // Publish the next generation while this phase's queries are being
      // drained by the pool.
      StatusOr<uint64_t> gen = store->Apply(
          GrowthDelta(static_cast<uint64_t>(phase),
                      store->Current()->num_nodes(),
                      100 + static_cast<uint64_t>(phase)));
      ASSERT_TRUE(gen.ok()) << gen.status().ToString();
      generations.push_back(store->Pin());
    }
  }
  service.Shutdown();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.generation, static_cast<uint64_t>(kSwaps));

  for (size_t i = 0; i < submitted; ++i) {
    const ServeResponse& r = responses[i];
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_LT(r.generation, generations.size());
    const Graph& served = *generations[r.generation].graph;
    NodeId q = pool[i % pool.size()];
    ExpectBitIdentical(
        r.topk,
        core::FreshTopK(served, {q}, DefaultParams()).value(), q);
  }
}

TEST(QueryServiceTest, TracedPhasesSumToAtMostTotalLatency) {
  const Graph& graph = SharedNet().graph();
  std::vector<NodeId> stream = MixedQueryStream(graph, 30, 80, 21);

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = stream.size();
  options.enable_cache = true;
  options.cache_capacity = 64;
  options.enable_tracing = true;
  options.trace_keep = 5;
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(service.tracing());

  std::atomic<int> done{0};
  for (NodeId q : stream) {
    ASSERT_TRUE(service
                    .SubmitAsync({{q}, DefaultParams()},
                                 [&done](const ServeResponse&) { ++done; })
                    .ok());
  }
  service.Shutdown();
  ASSERT_EQ(done.load(), static_cast<int>(stream.size()));

  // Every query passed through admission, pin, and the cache probe; only
  // cache misses reach the engine phases.
  ServiceStats stats = service.stats();
  EXPECT_EQ(service.phase_latencies(obs::Phase::kQueueWait).Count(),
            stats.completed);
  EXPECT_EQ(service.phase_latencies(obs::Phase::kGenerationPin).Count(),
            stats.completed);
  EXPECT_EQ(service.phase_latencies(obs::Phase::kCacheLookup).Count(),
            stats.completed);
  EXPECT_EQ(service.phase_latencies(obs::Phase::kStage1Expand).Count(),
            stats.cache_misses);
  EXPECT_EQ(service.phase_latencies(obs::Phase::kFinalize).Count(),
            stats.cache_misses);

  // Phases are disjoint segments of each query's life, so their aggregate
  // time cannot exceed the aggregate end-to-end latency (allow a small
  // absolute slack for independent clock reads at the segment seams).
  double phase_sum = 0.0;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    phase_sum +=
        service.phase_latencies(static_cast<obs::Phase>(p)).SumMillis();
  }
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_LE(phase_sum, service.latencies().SumMillis() +
                           0.05 * static_cast<double>(stats.completed));

  std::vector<std::string> traces = service.SlowestTraces();
  ASSERT_FALSE(traces.empty());
  EXPECT_LE(traces.size(), options.trace_keep);
  for (const std::string& json : traces) {
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"query_id\":"), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait\":"), std::string::npos);
  }
}

TEST(QueryServiceTest, TracingOffRecordsNothing) {
  const Graph& graph = SharedNet().graph();
  std::vector<NodeId> stream = MixedQueryStream(graph, 10, 20, 22);

  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = stream.size();
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_FALSE(service.tracing());

  for (NodeId q : stream) {
    ASSERT_TRUE(
        service.SubmitAsync({{q}, DefaultParams()}, nullptr).ok());
  }
  service.Shutdown();

  EXPECT_EQ(service.stats().completed, stream.size());
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    EXPECT_EQ(service.phase_latencies(static_cast<obs::Phase>(p)).Count(),
              0u);
  }
  EXPECT_TRUE(service.SlowestTraces().empty());
}

TEST(QueryServiceTest, SetTracingTogglesMidStream) {
  const Graph& graph = SharedNet().graph();
  std::vector<NodeId> stream = MixedQueryStream(graph, 10, 20, 23);

  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = stream.size();
  QueryService service(SharedGraphPtr(), options);
  ASSERT_TRUE(service.Start().ok());

  // First half untraced; then flip tracing on for the second half.
  std::atomic<int> done{0};
  size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(service
                    .SubmitAsync({{stream[i]}, DefaultParams()},
                                 [&done](const ServeResponse&) { ++done; })
                    .ok());
  }
  while (static_cast<size_t>(done.load()) < half) {
    std::this_thread::yield();
  }
  service.SetTracing(true);
  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(service
                    .SubmitAsync({{stream[i]}, DefaultParams()},
                                 [&done](const ServeResponse&) { ++done; })
                    .ok());
  }
  service.Shutdown();

  EXPECT_EQ(service.stats().completed, stream.size());
  uint64_t traced =
      service.phase_latencies(obs::Phase::kQueueWait).Count();
  EXPECT_GT(traced, 0u);
  EXPECT_LE(traced, stream.size() - half);
  EXPECT_FALSE(service.SlowestTraces().empty());
}

}  // namespace
}  // namespace rtr::serve
