#include "dist/distributed_topk.h"

#include <algorithm>
#include <memory>
#include <string>
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

// Non-owning shared handle for the Cluster constructor: test graphs live on
// the test's stack and outlive the clusters built over them, so an aliasing
// shared_ptr avoids a per-cluster graph copy.
std::shared_ptr<const Graph> NoCopy(const Graph& g) {
  return {std::shared_ptr<const Graph>{}, &g};
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
    ASSERT_EQ(cluster.gps().size(), static_cast<size_t>(num_gps));
    std::vector<int> owners(g.num_nodes(), 0);
    size_t total_owned = 0;
    for (const dist::GraphProcessor& gp : cluster.gps()) {
      total_owned += gp.num_owned_nodes();
      for (NodeId v : gp.owned_nodes()) {
        ASSERT_LT(v, g.num_nodes());
        ++owners[v];
        EXPECT_TRUE(gp.Owns(v));
        EXPECT_EQ(cluster.OwnerOf(v), gp.id());
      }
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
  dist::Cluster cluster(NoCopy(g), 4);
  size_t lo = g.num_nodes(), hi = 0;
  for (const dist::GraphProcessor& gp : cluster.gps()) {
    lo = std::min(lo, gp.num_owned_nodes());
    hi = std::max(hi, gp.num_owned_nodes());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterTest, StoredBytesSumToTotal) {
  Graph g = SmallRandomishGraph();
  for (int num_gps : {1, 3, 5}) {
    dist::Cluster cluster(NoCopy(g), num_gps);
    size_t sum = 0;
    for (const dist::GraphProcessor& gp : cluster.gps()) {
      EXPECT_GT(gp.stored_bytes(), 0u);
      sum += gp.stored_bytes();
    }
    EXPECT_EQ(sum, cluster.total_stored_bytes());
  }
}

TEST(GraphProcessorTest, FetchRejectsForeignNode) {
  Graph g = SmallRandomishGraph();
  dist::Cluster cluster(NoCopy(g), 2);
  std::vector<dist::NodeRecord> records;
  // Node 1 belongs to GP 1, not GP 0.
  Status status = cluster.gps()[0].Fetch({1}, &records);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(GraphProcessorTest, RecordsOutliveTheirCluster) {
  Graph g = SmallRandomishGraph();
  auto cluster = std::make_unique<dist::Cluster>(NoCopy(g), 3);
  std::vector<dist::NodeRecord> records;
  for (const dist::GraphProcessor& gp : cluster->gps()) {
    ASSERT_TRUE(gp.Fetch(gp.owned_nodes(), &records).ok());
  }
  ASSERT_EQ(records.size(), g.num_nodes());
  cluster.reset();  // the records keep their stripes alive

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

// Shard bring-up from a snapshot file: the striped storage must match a
// cluster built over the in-memory graph, and queries must agree.
TEST(ClusterTest, FromGraphFileBringsUpShards) {
  Graph g = SmallRandomishGraph();
  const std::string path =
      testing::TempDir() + "/rtr_cluster_test.rtrsnap";
  ASSERT_TRUE(SaveGraphSnapshotToFile(g, path).ok());

  StatusOr<std::unique_ptr<dist::Cluster>> cluster =
      dist::Cluster::FromGraphFile(path, 3);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  dist::Cluster reference(NoCopy(g), 3);
  EXPECT_EQ((*cluster)->num_gps(), 3);
  EXPECT_EQ((*cluster)->total_stored_bytes(),
            reference.total_stored_bytes());

  core::TopKParams params;
  params.k = 5;
  params.epsilon = 0.001;
  core::QueryWorkspace workspace;
  StatusOr<dist::DistributedTopKResult> result =
      dist::DistributedTopK(**cluster, {0}, params, workspace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  core::TopKResult local = core::FreshTopK(g, {0}, params).value();
  ASSERT_EQ(result->topk.entries.size(), local.entries.size());
  for (size_t i = 0; i < local.entries.size(); ++i) {
    EXPECT_EQ(result->topk.entries[i].node, local.entries[i].node);
  }
}

TEST(ClusterTest, FromGraphFileRejectsBadInput) {
  EXPECT_FALSE(dist::Cluster::FromGraphFile("/nonexistent/g", 2).ok());
}

}  // namespace
}  // namespace rtr
