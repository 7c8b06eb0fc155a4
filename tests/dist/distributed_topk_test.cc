#include "dist/distributed_topk.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk_testing.h"
#include "core/twosbound.h"
#include "datasets/qlog.h"
#include "graph/builder.h"
#include "graph/snapshot.h"

namespace rtr {
namespace {

Graph SmallRandomishGraph() {
  GraphBuilder b;
  NodeTypeId t = b.AddNodeType("n");
  const NodeId n = 50;
  b.AddNodes(n, t);
  // Deterministic pseudo-random sprinkle of arcs with varied weights.
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 1; j <= 3; ++j) {
      NodeId v = (u * 7 + static_cast<NodeId>(j) * 11) % n;
      if (v != u) b.AddUndirectedEdge(u, v, 1.0 + (u + j) % 5);
    }
  }
  return b.Build().value();
}

// Non-owning shared handle for the Cluster and GraphProcessor constructors:
// test graphs live on the test's stack and outlive the clusters, GPs and
// records built over them. RecordsOutliveTheirCluster needs an owning one.
std::shared_ptr<const Graph> NoCopy(const Graph& g) {
  return {std::shared_ptr<const Graph>{}, &g};
}

// The in-process GPs Cluster(g, num_gps) stripes g across, built standalone.
std::vector<std::unique_ptr<dist::GraphProcessor>> Stripes(const Graph& g,
                                                           int num_gps) {
  std::vector<std::unique_ptr<dist::GraphProcessor>> gps;
  for (int id = 0; id < num_gps; ++id) {
    gps.push_back(
        std::make_unique<dist::GraphProcessor>(NoCopy(g), id, num_gps));
  }
  return gps;
}

// Stripes(g, num_gps) handed to the sources constructor.
std::unique_ptr<dist::Cluster> SourceBuiltCluster(const Graph& g,
                                                  int num_gps) {
  std::vector<std::unique_ptr<dist::GraphProcessor>> gps = Stripes(g, num_gps);
  return std::make_unique<dist::Cluster>(
      NoCopy(g), std::vector<std::unique_ptr<dist::RecordSource>>(
                     std::make_move_iterator(gps.begin()),
                     std::make_move_iterator(gps.end())));
}

// The nodes shard `gp` of `num_gps` owns, ascending.
std::vector<NodeId> StripeNodes(const Graph& g, int gp, int num_gps) {
  std::vector<NodeId> nodes;
  for (NodeId v = static_cast<NodeId>(gp); v < g.num_nodes();
       v += static_cast<NodeId>(num_gps)) {
    nodes.push_back(v);
  }
  return nodes;
}

datasets::QLog SmallQLog() {
  datasets::QLogConfig config;
  config.num_concepts = 400;
  config.num_portal_urls = 10;
  return datasets::QLog::Generate(config).value();
}

TEST(ClusterTest, EveryNodeOwnedExactlyOnce) {
  Graph g = SmallRandomishGraph();
  for (int num_gps : {1, 2, 3, 4, 7}) {
    dist::Cluster cluster(NoCopy(g), num_gps);
    ASSERT_EQ(cluster.num_gps(), num_gps);
    std::vector<int> owners(g.num_nodes(), 0);
    size_t total_owned = 0;
    for (const auto& gp : Stripes(g, num_gps)) {
      total_owned += gp->num_owned_nodes();
      size_t owned = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!gp->Owns(v)) continue;
        ++owned;
        ++owners[v];
        EXPECT_EQ(cluster.OwnerOf(v), gp->id());
      }
      EXPECT_EQ(gp->num_owned_nodes(), owned) << "GP " << gp->id();
    }
    EXPECT_EQ(total_owned, g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(owners[v], 1) << "node " << v << " with " << num_gps
                              << " GPs";
    }
  }
}

TEST(ClusterTest, StripingIsBalanced) {
  Graph g = SmallRandomishGraph();
  size_t lo = g.num_nodes(), hi = 0;
  for (const auto& gp : Stripes(g, 4)) {
    lo = std::min(lo, gp->num_owned_nodes());
    hi = std::max(hi, gp->num_owned_nodes());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterTest, StoredBytesSumToTotal) {
  Graph g = SmallRandomishGraph();
  for (int num_gps : {1, 3, 5}) {
    dist::Cluster cluster(NoCopy(g), num_gps);
    size_t sum = 0;
    for (const auto& gp : Stripes(g, num_gps)) {
      EXPECT_GT(gp->stored_bytes(), 0u);
      sum += gp->stored_bytes();
    }
    EXPECT_EQ(sum, cluster.total_stored_bytes());
  }
}

// A cluster over hand-made GraphProcessor sources is the loopback cluster:
// same answers bit for bit, same traffic, shard by shard.
TEST(ClusterTest, SourceBuiltClusterMatchesLoopback) {
  datasets::QLog qlog = SmallQLog();
  const Graph& g = qlog.graph();
  core::TopKParams params;
  params.k = 8;
  params.epsilon = 0.005;
  std::vector<Query> queries;
  for (NodeId v = 0; v < g.num_nodes() && queries.size() < 4; v += 37) {
    if (g.out_degree(v) > 0) queries.push_back({v});
  }
  ASSERT_FALSE(queries.empty());
  core::QueryWorkspace workspace;
  for (int num_gps : {1, 3}) {
    dist::Cluster loopback(NoCopy(g), num_gps);
    std::unique_ptr<dist::Cluster> built = SourceBuiltCluster(g, num_gps);
    ASSERT_EQ(built->num_gps(), num_gps);
    for (const Query& query : queries) {
      dist::DistributedTopKResult want =
          dist::DistributedTopK(loopback, query, params, workspace).value();
      dist::DistributedTopKResult got =
          dist::DistributedTopK(*built, query, params, workspace).value();
      ASSERT_EQ(got.topk.entries.size(), want.topk.entries.size());
      for (size_t i = 0; i < want.topk.entries.size(); ++i) {
        EXPECT_EQ(got.topk.entries[i].node, want.topk.entries[i].node);
        EXPECT_EQ(got.topk.entries[i].lower, want.topk.entries[i].lower);
        EXPECT_EQ(got.topk.entries[i].upper, want.topk.entries[i].upper);
      }
      EXPECT_EQ(got.active_nodes, want.active_nodes);
      EXPECT_EQ(got.active_set_bytes, want.active_set_bytes);
      EXPECT_EQ(got.requests_sent, want.requests_sent);
    }
    for (int gp = 0; gp < num_gps; ++gp) {
      EXPECT_GT(loopback.fetch_requests(gp), 0u);
      EXPECT_EQ(built->fetch_requests(gp), loopback.fetch_requests(gp));
      EXPECT_EQ(built->records_served(gp), loopback.records_served(gp));
      EXPECT_EQ(built->bytes_served(gp), loopback.bytes_served(gp));
    }
    EXPECT_EQ(built->total_wire().frames_sent, 0u);
  }
}

// Worker threads fetch from one loopback cluster at once; the relaxed
// counters must still add up to exactly the traffic served.
TEST(ClusterTest, ConcurrentFetchCountersAddUpExactly) {
  Graph g = SmallRandomishGraph();
  constexpr int kNumGps = 3;
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  dist::Cluster cluster(NoCopy(g), kNumGps);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster, &g] {
      std::vector<dist::NodeRecord> records;
      for (int round = 0; round < kRounds; ++round) {
        for (int gp = 0; gp < kNumGps; ++gp) {
          records.clear();
          ASSERT_TRUE(cluster.source(gp)
                          .Fetch(StripeNodes(g, gp, kNumGps), &records)
                          .ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int gp = 0; gp < kNumGps; ++gp) {
    // One single-threaded fetch of the stripe is the per-round unit.
    dist::GraphProcessor reference(NoCopy(g), gp, kNumGps);
    std::vector<dist::NodeRecord> records;
    ASSERT_TRUE(
        reference.Fetch(StripeNodes(g, gp, kNumGps), &records).ok());
    const uint64_t fetches = uint64_t{kThreads} * kRounds;
    EXPECT_EQ(cluster.fetch_requests(gp), fetches);
    EXPECT_EQ(cluster.records_served(gp),
              fetches * reference.records_served());
    EXPECT_EQ(cluster.bytes_served(gp), fetches * reference.bytes_served());
  }
  EXPECT_EQ(cluster.total_fetch_requests(),
            uint64_t{kThreads} * kRounds * kNumGps);
}

TEST(GraphProcessorTest, FetchRejectsForeignNode) {
  Graph g = SmallRandomishGraph();
  dist::GraphProcessor gp(NoCopy(g), 0, 2);
  std::vector<dist::NodeRecord> records;
  // Node 1 belongs to GP 1, not GP 0.
  Status status = gp.Fetch({1}, &records);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// The RecordSource contract: a failed fetch leaves `out` and the counters
// as they were, however far into the batch it failed.
TEST(GraphProcessorTest, FailedFetchLeavesOutputAndCountersUnchanged) {
  Graph g = SmallRandomishGraph();
  dist::GraphProcessor gp(NoCopy(g), 0, 2);
  std::vector<dist::NodeRecord> records;
  ASSERT_TRUE(gp.Fetch({4}, &records).ok());
  const uint64_t requests = gp.fetch_requests();
  const uint64_t served = gp.records_served();
  const uint64_t bytes = gp.bytes_served();

  // Node 1 is foreign; node 50 is even but past the 50-node graph.
  for (const std::vector<NodeId>& batch :
       {std::vector<NodeId>{0, 2, 1}, std::vector<NodeId>{0, 50}}) {
    EXPECT_FALSE(gp.Fetch(batch, &records).ok());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].node, 4u);
    EXPECT_EQ(gp.fetch_requests(), requests);
    EXPECT_EQ(gp.records_served(), served);
    EXPECT_EQ(gp.bytes_served(), bytes);
  }
  EXPECT_EQ(gp.Fetch({0, 50}, &records).code(), StatusCode::kOutOfRange);

  ASSERT_TRUE(gp.Fetch({0, 2}, &records).ok());
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(gp.fetch_requests(), requests + 1);
  EXPECT_EQ(gp.records_served(), served + 2);
}

// A loopback record is a view of the served graph's own columns, and the
// stripe's stored bytes are what a stand-alone CSR copy of it would hold.
TEST(GraphProcessorTest, RecordsViewTheGraph) {
  Graph g = SmallRandomishGraph();
  dist::Cluster cluster(NoCopy(g), 3);
  for (int gp = 0; gp < cluster.num_gps(); ++gp) {
    std::vector<dist::NodeRecord> records;
    ASSERT_TRUE(
        cluster.source(gp).Fetch(StripeNodes(g, gp, 3), &records).ok());
    for (const dist::NodeRecord& record : records) {
      const NodeId v = record.node;
      EXPECT_EQ(record.out_targets.data(), g.out_targets(v).data()) << v;
      EXPECT_EQ(record.out_weights.data(), g.out_arc_weights(v).data()) << v;
      EXPECT_EQ(record.out_probs.data(), g.out_probs(v).data()) << v;
      EXPECT_EQ(record.in_sources.data(), g.in_sources(v).data()) << v;
      EXPECT_EQ(record.in_weights.data(), g.in_arc_weights(v).data()) << v;
      EXPECT_EQ(record.in_probs.data(), g.in_probs(v).data()) << v;
      EXPECT_EQ(record.num_out_arcs(), g.out_degree(v)) << v;
      EXPECT_EQ(record.num_in_arcs(), g.in_degree(v)) << v;
    }
  }
  // Pinned to the values of the copied-stripe implementation, so the
  // Fig. 12 per-GP series is unchanged.
  const size_t kStoredBytes[] = {4356, 4236, 3976};
  for (int gp = 0; gp < 3; ++gp) {
    EXPECT_EQ(dist::GraphProcessor(NoCopy(g), gp, 3).stored_bytes(),
              kStoredBytes[gp])
        << "GP " << gp;
  }
}

TEST(GraphProcessorTest, RecordsOutliveTheirCluster) {
  // Two builds of one graph with separate storage: the cluster serves one,
  // the checks below read the other.
  const Graph g = SmallRandomishGraph();
  auto served = std::make_shared<const Graph>(SmallRandomishGraph());
  auto cluster = std::make_unique<dist::Cluster>(served, 3);
  std::vector<dist::NodeRecord> records;
  for (int gp = 0; gp < cluster->num_gps(); ++gp) {
    ASSERT_TRUE(
        cluster->source(gp).Fetch(StripeNodes(g, gp, 3), &records).ok());
  }
  ASSERT_EQ(records.size(), g.num_nodes());
  // The records alone keep the served graph alive (under ASan, a dangling
  // keep-alive is a use-after-free below).
  cluster.reset();
  served.reset();

  auto same = [](auto got, auto want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  };
  for (const dist::NodeRecord& record : records) {
    const NodeId v = record.node;
    EXPECT_TRUE(same(record.out_targets, g.out_targets(v))) << v;
    EXPECT_TRUE(same(record.out_weights, g.out_arc_weights(v))) << v;
    EXPECT_TRUE(same(record.out_probs, g.out_probs(v))) << v;
    EXPECT_TRUE(same(record.in_sources, g.in_sources(v))) << v;
    EXPECT_TRUE(same(record.in_weights, g.in_arc_weights(v))) << v;
    EXPECT_TRUE(same(record.in_probs, g.in_probs(v))) << v;
  }
}

TEST(DistributedTopKTest, SingleGpDegeneratesToLocal) {
  Graph g = SmallRandomishGraph();
  dist::Cluster cluster(NoCopy(g), 1);
  core::TopKParams params;
  params.k = 5;
  params.epsilon = 0.001;
  core::TopKResult local = core::FreshTopK(g, {0}, params).value();
  core::QueryWorkspace workspace;
  dist::DistributedTopKResult distributed =
      dist::DistributedTopK(cluster, {0}, params, workspace).value();
  ASSERT_EQ(distributed.topk.entries.size(), local.entries.size());
  for (size_t i = 0; i < local.entries.size(); ++i) {
    EXPECT_EQ(distributed.topk.entries[i].node, local.entries[i].node);
    EXPECT_DOUBLE_EQ(distributed.topk.entries[i].lower,
                     local.entries[i].lower);
  }
  EXPECT_EQ(distributed.active_nodes, local.active_nodes);
  EXPECT_EQ(distributed.active_set_bytes, local.active_set_bytes);
}

TEST(DistributedTopKTest, MatchesLocalRankingAcrossGpCounts) {
  datasets::QLog qlog = SmallQLog();
  const Graph& g = qlog.graph();
  core::TopKParams params;
  params.k = 8;
  params.epsilon = 0.005;
  NodeId query = 0;
  while (query < g.num_nodes() && g.out_degree(query) == 0) ++query;
  ASSERT_LT(query, g.num_nodes());
  core::TopKResult local = core::FreshTopK(g, {query}, params).value();
  core::QueryWorkspace workspace;
  for (int num_gps : {1, 2, 3, 4}) {
    dist::Cluster cluster(NoCopy(g), num_gps);
    dist::DistributedTopKResult distributed =
        dist::DistributedTopK(cluster, {query}, params, workspace).value();
    ASSERT_EQ(distributed.topk.entries.size(), local.entries.size())
        << num_gps << " GPs";
    for (size_t i = 0; i < local.entries.size(); ++i) {
      EXPECT_EQ(distributed.topk.entries[i].node, local.entries[i].node)
          << "rank " << i << " with " << num_gps << " GPs";
    }
    // The replay serves exactly the active set, and byte accounting agrees
    // with the local run's formula regardless of the striping.
    EXPECT_EQ(distributed.active_nodes, local.active_nodes);
    EXPECT_EQ(distributed.active_set_bytes, local.active_set_bytes);
    EXPECT_GE(distributed.requests_sent, 1u);
    // Fig. 12-13 economics: the active set is a strict subset of the
    // cluster-wide storage.
    EXPECT_LT(distributed.active_set_bytes, cluster.total_stored_bytes());
  }
}

TEST(DistributedTopKTest, RequestBatchingCapIsRespected) {
  datasets::QLog qlog = SmallQLog();
  const Graph& g = qlog.graph();
  core::TopKParams params;
  params.k = 8;
  params.epsilon = 0.005;
  NodeId query = 0;
  while (query < g.num_nodes() && g.out_degree(query) == 0) ++query;
  ASSERT_LT(query, g.num_nodes());
  dist::Cluster cluster(NoCopy(g), 3);
  core::QueryWorkspace workspace;
  dist::DistributedTopKResult result =
      dist::DistributedTopK(cluster, {query}, params, workspace).value();
  // Enough requests to carry every record under the per-request cap.
  size_t min_requests =
      (result.active_nodes + dist::kMaxRecordsPerRequest - 1) /
      dist::kMaxRecordsPerRequest;
  EXPECT_GE(result.requests_sent, min_requests);
  // And no more than one partially-filled request per GP.
  EXPECT_LE(result.requests_sent, min_requests + 3);
}

TEST(DistributedTopKTest, RejectsNaiveScheme) {
  Graph g = SmallRandomishGraph();
  dist::Cluster cluster(NoCopy(g), 2);
  core::TopKParams params;
  params.scheme = core::TopKScheme::kNaive;
  core::QueryWorkspace workspace;
  StatusOr<dist::DistributedTopKResult> result =
      dist::DistributedTopK(cluster, {0}, params, workspace);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DistributedTopKTest, PropagatesInvalidQuery) {
  Graph g = SmallRandomishGraph();
  dist::Cluster cluster(NoCopy(g), 2);
  core::TopKParams params;
  core::QueryWorkspace workspace;
  StatusOr<dist::DistributedTopKResult> result =
      dist::DistributedTopK(cluster, {}, params, workspace);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Shard bring-up from a snapshot file: LoadGraphAuto plus the loopback
// constructor must stripe the same storage as a cluster built over the
// in-memory graph, carry the snapshot's generation, and agree on queries.
TEST(ClusterTest, SnapshotLoadedClusterMatchesInMemory) {
  Graph g = SmallRandomishGraph();
  const std::string path =
      testing::TempDir() + "/rtr_cluster_test.rtrsnap";
  ASSERT_TRUE(SaveGraphSnapshotToFile(g, path, /*generation=*/5).ok());

  uint64_t generation = 0;
  StatusOr<Graph> loaded = LoadGraphAuto(path, &generation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  dist::Cluster cluster(std::make_shared<const Graph>(std::move(*loaded)), 3,
                        generation);
  dist::Cluster reference(NoCopy(g), 3);
  EXPECT_EQ(cluster.num_gps(), 3);
  EXPECT_EQ(cluster.generation(), 5u);
  EXPECT_EQ(cluster.total_stored_bytes(), reference.total_stored_bytes());

  core::TopKParams params;
  params.k = 5;
  params.epsilon = 0.001;
  core::QueryWorkspace workspace;
  StatusOr<dist::DistributedTopKResult> result =
      dist::DistributedTopK(cluster, {0}, params, workspace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  core::TopKResult local = core::FreshTopK(g, {0}, params).value();
  ASSERT_EQ(result->topk.entries.size(), local.entries.size());
  for (size_t i = 0; i < local.entries.size(); ++i) {
    EXPECT_EQ(result->topk.entries[i].node, local.entries[i].node);
  }
}

TEST(ClusterTest, SnapshotLoadRejectsBadInput) {
  EXPECT_FALSE(LoadGraphAuto("/nonexistent/g").ok());
}

}  // namespace
}  // namespace rtr
