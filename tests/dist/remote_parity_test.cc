// Loopback-vs-remote parity: the same queries answered by an in-process
// dist::Cluster and by a cluster of three real GpServer shards reached over
// localhost TCP must produce bit-identical rankings — same nodes in the
// same order with EXPECT_DOUBLE_EQ-equal bounds, and the same record-level
// traffic accounting. The only permitted difference is the wire layer
// itself: the loopback cluster reports zero wire traffic, the remote one
// reports real frames and bytes. Suite name matches the CI TSan filter
// (Rpc|Transport|RemoteGraphProcessor).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "dist/distributed_topk.h"
#include "graph/builder.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"

namespace rtr {
namespace {

Graph SmallRandomishGraph() {
  GraphBuilder b;
  NodeTypeId t = b.AddNodeType("n");
  const NodeId n = 50;
  b.AddNodes(n, t);
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 1; j <= 3; ++j) {
      NodeId v = (u * 7 + static_cast<NodeId>(j) * 11) % n;
      if (v != u) b.AddUndirectedEdge(u, v, 1.0 + (u + j) % 5);
    }
  }
  return b.Build().value();
}

TEST(RemoteGraphProcessorParityTest, RemoteClusterMatchesLoopbackBitForBit) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  constexpr int kNumGps = 3;
  constexpr uint64_t kGeneration = 7;

  std::vector<std::unique_ptr<net::GpServer>> servers;
  std::vector<std::string> endpoints;
  for (int shard = 0; shard < kNumGps; ++shard) {
    auto server = net::GpServer::Start(graph, shard, kNumGps, kGeneration);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    endpoints.push_back("127.0.0.1:" + std::to_string((*server)->port()));
    servers.push_back(std::move(*server));
  }

  auto remote = net::ConnectRemoteCluster(graph, kGeneration, endpoints);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE((*remote)->remote());
  dist::Cluster loopback(graph, kNumGps, kGeneration);
  ASSERT_FALSE(loopback.remote());

  core::TopKParams params;
  params.k = 8;
  const std::vector<Query> queries = {{0}, {13}, {7, 31}, {49, 2, 25}};
  core::QueryWorkspace workspace;
  for (const Query& query : queries) {
    auto remote_result =
        dist::DistributedTopK(**remote, query, params, workspace);
    auto loopback_result =
        dist::DistributedTopK(loopback, query, params, workspace);
    ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
    ASSERT_TRUE(loopback_result.ok()) << loopback_result.status().ToString();

    // Node-for-node, bound-for-bound: the wire must be invisible to
    // ranking semantics.
    ASSERT_EQ(remote_result->topk.entries.size(),
              loopback_result->topk.entries.size());
    for (size_t i = 0; i < loopback_result->topk.entries.size(); ++i) {
      EXPECT_EQ(remote_result->topk.entries[i].node,
                loopback_result->topk.entries[i].node);
      EXPECT_DOUBLE_EQ(remote_result->topk.entries[i].lower,
                       loopback_result->topk.entries[i].lower);
      EXPECT_DOUBLE_EQ(remote_result->topk.entries[i].upper,
                       loopback_result->topk.entries[i].upper);
    }
    EXPECT_EQ(remote_result->topk.converged, loopback_result->topk.converged);
    EXPECT_EQ(remote_result->topk.active_node_ids,
              loopback_result->topk.active_node_ids);
    EXPECT_EQ(remote_result->active_set_bytes,
              loopback_result->active_set_bytes);
  }

  // Record-level accounting (the paper's simulated AP<->GP traffic) matches
  // shard-by-shard; wire-level traffic exists only on the remote side.
  for (int gp = 0; gp < kNumGps; ++gp) {
    EXPECT_EQ((*remote)->fetch_requests(gp), loopback.fetch_requests(gp));
    EXPECT_EQ((*remote)->records_served(gp), loopback.records_served(gp));
    EXPECT_EQ((*remote)->bytes_served(gp), loopback.bytes_served(gp));
  }
  dist::WireTraffic remote_wire = (*remote)->total_wire();
  dist::WireTraffic loopback_wire = loopback.total_wire();
  EXPECT_GT(remote_wire.frames_sent, 0u);
  EXPECT_GT(remote_wire.bytes_received, 0u);
  EXPECT_EQ(remote_wire.retries, 0u);
  EXPECT_EQ(loopback_wire.frames_sent, 0u);
  EXPECT_EQ(loopback_wire.bytes_received, 0u);

  for (std::unique_ptr<net::GpServer>& server : servers) server->Stop();
}

}  // namespace
}  // namespace rtr
