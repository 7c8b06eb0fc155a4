// Scripted fault-injection suite for the RPC layer (the headline harness of
// the networked tier). Each test scripts a precise per-connection,
// per-frame fault on the server side (net/fault.h) and asserts the CLIENT's
// deterministic recovery: recoverable faults end in a retry with
// bit-identical records, a dead shard ends in a clean typed error, and
// nothing ever hangs — every wait in the client is bounded, so the whole
// suite runs under tight timeouts. Suite names match the CI TSan filter
// (Rpc|Transport|RemoteGraphProcessor).

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "dist/distributed_topk.h"
#include "dist/record_testing.h"
#include "graph/builder.h"
#include "net/fault.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "net/rpc_client.h"
#include "util/timer.h"

namespace rtr {
namespace {

Graph SmallRandomishGraph() {
  GraphBuilder b;
  NodeTypeId t = b.AddNodeType("n");
  const NodeId n = 60;
  b.AddNodes(n, t);
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 1; j <= 3; ++j) {
      NodeId v = (u * 7 + static_cast<NodeId>(j) * 11) % n;
      if (v != u) b.AddUndirectedEdge(u, v, 1.0 + (u + j) % 5);
    }
  }
  return b.Build().value();
}

net::HelloPayload IdentityFor(const Graph& g, int shard, int num_gps,
                              uint64_t generation) {
  net::HelloPayload hello;
  hello.shard = static_cast<uint32_t>(shard);
  hello.num_gps = static_cast<uint32_t>(num_gps);
  hello.num_nodes = g.num_nodes();
  hello.generation = generation;
  return hello;
}

// Tight budgets so fault paths resolve in milliseconds, not the production
// defaults' seconds; every test asserts its own wall-clock ceiling.
net::RpcClientOptions FastOptions() {
  net::RpcClientOptions options;
  options.connect_timeout_ms = 1000;
  options.call_timeout_ms = 400;
  options.max_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 5;
  return options;
}

// One-shard fixture: a GpServer over the whole graph with a FaultInjector
// the test scripts, plus local ground truth for bit-identity checks.
class RpcFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_shared<const Graph>(SmallRandomishGraph());
    net::GpServerOptions options;
    options.fault_injector = &injector_;
    auto server = net::GpServer::Start(graph_, /*shard=*/0, /*num_gps=*/1,
                                       /*generation=*/0, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  // Fetches `wanted` through a fresh client and requires records
  // bit-identical to the loopback GraphProcessor's.
  void ExpectFetchMatchesLocal(net::RpcClient& client,
                               const std::vector<NodeId>& wanted) {
    std::vector<dist::NodeRecord> got;
    ASSERT_TRUE(client.Fetch(wanted, &got).ok());
    dist::GraphProcessor local(graph_, 0, 1);
    std::vector<dist::NodeRecord> want;
    ASSERT_TRUE(local.Fetch(wanted, &want).ok());
    dist::ExpectSameRecords(got, want);
  }

  std::shared_ptr<const Graph> graph_;
  net::FaultInjector injector_;
  std::unique_ptr<net::GpServer> server_;
  const std::vector<NodeId> wanted_ = {0, 5, 10, 15};
};

TEST_F(RpcFaultTest, SlowGpUnderTimeoutSucceedsWithoutRetry) {
  // Reply #1 (after the hello ack) delayed, but well under the 400ms call
  // budget: the client just waits it out.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kDelayWrite, 50}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.timeouts, 0u);
  EXPECT_EQ(w.reconnects, 0u);
}

TEST_F(RpcFaultTest, SlowGpOverTimeoutRetriesOnFreshConnection) {
  // The first fetch reply is swallowed outright — from the client's side a
  // GP that stopped answering. The per-call deadline must fire, poison the
  // connection, and the retry on a fresh connection must succeed.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kDropWrite, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  WallTimer timer;
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.timeouts, 1u);
  EXPECT_EQ(w.retries, 1u);
  EXPECT_EQ(w.reconnects, 1u);
}

TEST_F(RpcFaultTest, CorruptChecksumRetriesAndStaysBitIdentical) {
  // The first fetch reply arrives with a flipped checksum byte. The client
  // must reject the frame (poisoned stream — nothing after it can be
  // trusted), reconnect, and serve the records bit-identically.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kCorruptChecksum, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.retries, 1u);
  EXPECT_EQ(w.reconnects, 1u);
  EXPECT_EQ(w.timeouts, 0u);  // detected by checksum, not by deadline
}

TEST_F(RpcFaultTest, MidFrameDisconnectRetries) {
  // The connection dies half-way through the reply frame.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kShortWriteClose, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_EQ(client.wire().retries, 1u);
}

TEST_F(RpcFaultTest, DisconnectBeforeReplyRetries) {
  // The connection dies between request and reply (no partial frame).
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kCloseBeforeWrite, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_EQ(client.wire().retries, 1u);
}

TEST_F(RpcFaultTest, RefusedConnectionReconnects) {
  // The first connection is cut at accept (handshake never answered); the
  // client must fail that dial with a retryable error and succeed on the
  // second connection.
  net::ConnectionScript refused;
  refused.refuse = true;
  injector_.Enqueue(std::move(refused));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_GE(client.wire().retries, 1u);
}

TEST_F(RpcFaultTest, DeadGpIsACleanTypedErrorNotAHang) {
  injector_.set_dead(true);

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  std::vector<dist::NodeRecord> out;
  WallTimer timer;
  Status status = client.Fetch(wanted_, &out);
  // Typed, bounded, and empty-handed — never a hang, never partial data.
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_LT(timer.ElapsedMillis(), 10000.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(client.wire().retries, 2u);  // max_attempts - 1

  // The shard comes back: the same client recovers on its own.
  injector_.set_dead(false);
  ExpectFetchMatchesLocal(client, wanted_);
}

TEST_F(RpcFaultTest, BackpressureShedsWithUnavailable) {
  net::RpcClientOptions options = FastOptions();
  // A cap below one request frame: admission must shed locally without
  // touching the wire and without retrying (retrying a shed is pointless).
  options.max_outstanding_bytes = 8;
  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), options);
  std::vector<dist::NodeRecord> out;
  Status status = client.Fetch(wanted_, &out);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("backpressure"), std::string::npos);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.sheds, 1u);
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.frames_sent, 0u);  // shed before any wire traffic
}

TEST_F(RpcFaultTest, FaultsExhaustOnlyAfterMaxAttempts) {
  // Every connection kills the first fetch reply: attempt 1, 2, and 3 all
  // fail, so the call must surface kUnavailable after exactly
  // max_attempts tries — bounded, not infinite, retrying.
  for (int i = 0; i < 3; ++i) {
    net::ConnectionScript script;
    script.write_faults = {{net::FaultOp::kNone, 0},
                           {net::FaultOp::kCloseBeforeWrite, 0}};
    injector_.Enqueue(std::move(script));
  }

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  std::vector<dist::NodeRecord> out;
  Status status = client.Fetch(wanted_, &out);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.wire().retries, 2u);
  EXPECT_TRUE(out.empty());
}

// Whole-stack check: DistributedTopK over a remote cluster whose shards
// misbehave per script must return rankings bit-identical to the loopback
// cluster (recoverable faults), or a clean typed error once a shard is
// truly dead — never a hang, never a wrong ranking.
TEST(RemoteGraphProcessorClusterTest, DegradedClusterStaysBitIdentical) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  constexpr int kNumGps = 3;

  std::vector<net::FaultInjector> injectors(kNumGps);
  std::vector<std::unique_ptr<net::GpServer>> servers;
  std::vector<std::string> endpoints;
  for (int shard = 0; shard < kNumGps; ++shard) {
    net::GpServerOptions options;
    options.fault_injector = &injectors[static_cast<size_t>(shard)];
    auto server = net::GpServer::Start(graph, shard, kNumGps, 0, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    endpoints.push_back("127.0.0.1:" + std::to_string((*server)->port()));
    servers.push_back(std::move(*server));
  }
  // Shard 0 corrupts its first post-handshake reply; shard 2 cuts its
  // connection before the first reply. Shard 1 behaves.
  {
    net::ConnectionScript corrupt;
    corrupt.write_faults = {{net::FaultOp::kNone, 0},
                            {net::FaultOp::kCorruptChecksum, 0}};
    injectors[0].Enqueue(std::move(corrupt));
    net::ConnectionScript cut;
    cut.write_faults = {{net::FaultOp::kNone, 0},
                        {net::FaultOp::kCloseBeforeWrite, 0}};
    injectors[2].Enqueue(std::move(cut));
  }

  auto remote =
      net::ConnectRemoteCluster(graph, 0, endpoints, FastOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  dist::Cluster loopback(graph, kNumGps);

  core::TopKParams params;
  params.k = 5;
  const Query query = {3};
  core::QueryWorkspace workspace;
  auto remote_result =
      dist::DistributedTopK(**remote, query, params, workspace);
  auto loopback_result =
      dist::DistributedTopK(loopback, query, params, workspace);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
  ASSERT_TRUE(loopback_result.ok()) << loopback_result.status().ToString();

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
  // Same record-level traffic as the simulation; real wire traffic and the
  // scripted recoveries on top.
  EXPECT_EQ(remote_result->active_set_bytes,
            loopback_result->active_set_bytes);
  dist::WireTraffic w = (*remote)->total_wire();
  EXPECT_GT(w.bytes_received, 0u);
  EXPECT_GE(w.retries, 2u);  // one per faulted shard

  // Now shard 1 dies for good: the same query must become a clean typed
  // error (assuming its stripe is touched), not a hang or a wrong answer.
  injectors[1].set_dead(true);
  for (std::unique_ptr<net::GpServer>& s : servers) {
    if (s->shard() == 1) s->Stop();
  }
  auto dead_result =
      dist::DistributedTopK(**remote, query, params, workspace);
  ASSERT_FALSE(dead_result.ok());
  EXPECT_EQ(dead_result.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace rtr
