// RPC layer happy paths: frame codec, listener + client round-trips,
// shard-identity handshake, and multiplexed concurrent fetches. Every suite
// name matches the CI TSan filter (Rpc|Transport|RemoteGraphProcessor) so
// the concurrency in here runs under TSan too. The scripted failure paths
// live in tests/net/fault_test.cc.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distributed_topk.h"
#include "dist/record_testing.h"
#include "graph/builder.h"
#include "net/frame.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "net/rpc_client.h"
#include "net/transport.h"
#include "util/bytes.h"

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

TEST(TransportFrameTest, HeaderRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame;
  net::EncodeFrame(net::FrameType::kFetch, 42, payload, &frame);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());

  net::FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.type, net::FrameType::kFetch);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_TRUE(net::VerifyFramePayload(
                  header, std::span<const uint8_t>(frame.data() +
                                                       net::kFrameHeaderBytes,
                                                   payload.size()))
                  .ok());
}

TEST(TransportFrameTest, CorruptionIsDetected) {
  std::vector<uint8_t> payload = {9, 8, 7};
  std::vector<uint8_t> frame;
  net::EncodeFrame(net::FrameType::kFetchReply, 7, payload, &frame);

  // Bad magic.
  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xFF;
  net::FrameHeader header;
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), &header).code(),
            StatusCode::kIoError);

  // Protocol version 1 (the six-column kFetchReply layout): a v1 peer is
  // refused at the header, before its payload is read as four columns.
  ASSERT_EQ(frame[4], net::kProtocolVersion);
  bad = frame;
  bad[4] = 1;
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), &header).code(),
            StatusCode::kIoError);

  // Nonzero reserved bytes (header offsets 6-7 and 20-23).
  for (size_t at : {size_t{6}, size_t{7}, size_t{20}, size_t{23}}) {
    bad = frame;
    bad[at] = 1;
    EXPECT_EQ(net::DecodeFrameHeader(bad.data(), &header).code(),
              StatusCode::kIoError)
        << "reserved byte " << at;
  }

  // Flipped checksum byte (exactly what FaultOp::kCorruptChecksum does).
  bad = frame;
  bad[net::kChecksumOffset] ^= 0xFF;
  ASSERT_TRUE(net::DecodeFrameHeader(bad.data(), &header).ok());
  EXPECT_EQ(net::VerifyFramePayload(
                    header,
                    std::span<const uint8_t>(bad.data() +
                                                 net::kFrameHeaderBytes,
                                             payload.size()))
                .code(),
            StatusCode::kIoError);

  // Flipped payload byte.
  bad = frame;
  bad[net::kFrameHeaderBytes] ^= 0x01;
  ASSERT_TRUE(net::DecodeFrameHeader(bad.data(), &header).ok());
  EXPECT_FALSE(net::VerifyFramePayload(
                   header,
                   std::span<const uint8_t>(bad.data() +
                                                net::kFrameHeaderBytes,
                                            payload.size()))
                   .ok());
}

TEST(TransportFrameTest, FetchReplyCodecRoundTrip) {
  dist::GraphProcessor gp(std::make_shared<const Graph>(SmallRandomishGraph()),
                          0, 1);
  std::vector<dist::NodeRecord> records;
  ASSERT_TRUE(gp.Fetch({0, 1, 2, 3}, &records).ok());

  std::vector<uint8_t> payload;
  net::EncodeFetchReply(records, &payload);
  std::vector<dist::NodeRecord> decoded;
  ASSERT_TRUE(net::DecodeFetchReply(payload, &decoded).ok());
  dist::ExpectSameRecords(decoded, records);

  // A truncated payload must fail cleanly, never read out of bounds.
  std::span<const uint8_t> truncated(payload.data(), payload.size() - 3);
  decoded.clear();
  EXPECT_EQ(net::DecodeFetchReply(truncated, &decoded).code(),
            StatusCode::kIoError);
}

// Wire-format guard: the kFetchReply bytes for every record of a fixed
// graph, pinned by size and checksum. Any change to the reply encoding
// (field order, widths, padding) breaks this before it breaks a peer.
TEST(TransportFrameTest, FetchReplyEncodingIsByteStable) {
  const auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  const Graph& g = *graph;
  dist::GraphProcessor gp(graph, 0, 1);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  std::vector<dist::NodeRecord> records;
  ASSERT_TRUE(gp.Fetch(all, &records).ok());

  std::vector<uint8_t> payload;
  net::EncodeFetchReply(records, &payload);
  EXPECT_EQ(payload.size(), 9076u);
  EXPECT_EQ(Fnv1a64Bytes(payload), 0x0b50106211837a11ull);
}

TEST(TransportFrameTest, ErrorReplyCarriesStatus) {
  std::vector<uint8_t> payload;
  net::EncodeErrorReply(Status::InvalidArgument("no such node"), &payload);
  Status remote = Status::OK();
  ASSERT_TRUE(net::DecodeErrorReply(payload, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(remote.message(), "no such node");
}

TEST(TransportFrameTest, ParseEndpoint) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(net::ParseEndpoint("127.0.0.1:8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_FALSE(net::ParseEndpoint("no-port", &host, &port).ok());
  EXPECT_FALSE(net::ParseEndpoint(":1234", &host, &port).ok());
  EXPECT_FALSE(net::ParseEndpoint("host:99999", &host, &port).ok());
  EXPECT_FALSE(net::ParseEndpoint("host:", &host, &port).ok());
}

TEST(RemoteGraphProcessorTest, FetchMatchesLocalBitForBit) {
  Graph g = SmallRandomishGraph();
  auto graph = std::make_shared<const Graph>(std::move(g));
  auto server = net::GpServer::Start(graph, /*shard=*/1, /*num_gps=*/3,
                                     /*generation=*/9);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  net::RemoteGraphProcessor remote(
      "127.0.0.1", (*server)->port(), IdentityFor(*graph, 1, 3, 9));
  ASSERT_TRUE(remote.Connect().ok());

  dist::GraphProcessor local(graph, 1, 3);
  std::vector<NodeId> wanted;
  for (NodeId v = 1; v < graph->num_nodes(); v += 3) wanted.push_back(v);

  std::vector<dist::NodeRecord> remote_records;
  std::vector<dist::NodeRecord> local_records;
  ASSERT_TRUE(remote.Fetch(wanted, &remote_records).ok());
  ASSERT_TRUE(local.Fetch(wanted, &local_records).ok());
  dist::ExpectSameRecords(remote_records, local_records);
  // Record-level accounting matches the loopback tier; wire-level traffic
  // is real (and nonzero) on the remote side only.
  EXPECT_EQ(remote.records_served(), local.records_served());
  EXPECT_EQ(remote.bytes_served(), local.bytes_served());
  EXPECT_GT(remote.wire().bytes_received, 0u);
  EXPECT_EQ(local.wire().bytes_received, 0u);
}

TEST(RemoteGraphProcessorTest, WrongNodeIsATypedRemoteError) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  auto server = net::GpServer::Start(graph, 0, 2, 0);
  ASSERT_TRUE(server.ok());

  net::RemoteGraphProcessor remote("127.0.0.1", (*server)->port(),
                                   IdentityFor(*graph, 0, 2, 0));
  // Node 1 is owned by shard 1, not shard 0: the shard's own typed error
  // must cross the wire unchanged (and must not be retried).
  std::vector<dist::NodeRecord> out;
  Status status = remote.Fetch({1}, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(remote.wire().retries, 0u);
}

TEST(RemoteGraphProcessorTest, HandshakeRejectsWrongShardIdentity) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  auto server = net::GpServer::Start(graph, /*shard=*/0, /*num_gps=*/3,
                                     /*generation=*/5);
  ASSERT_TRUE(server.ok());

  // Wrong stripe arity: an AP expecting 4 GPs must not fetch from a shard
  // striped 3 ways — the records would be silently wrong.
  net::RemoteGraphProcessor wrong_arity("127.0.0.1", (*server)->port(),
                                        IdentityFor(*graph, 0, 4, 5));
  EXPECT_EQ(wrong_arity.Connect().code(), StatusCode::kFailedPrecondition);

  // Wrong generation: a restriped AP must not trust a stale shard.
  net::RemoteGraphProcessor wrong_gen("127.0.0.1", (*server)->port(),
                                      IdentityFor(*graph, 0, 3, 6));
  EXPECT_EQ(wrong_gen.Connect().code(), StatusCode::kFailedPrecondition);

  // The matching identity connects fine.
  net::RemoteGraphProcessor right("127.0.0.1", (*server)->port(),
                                  IdentityFor(*graph, 0, 3, 5));
  EXPECT_TRUE(right.Connect().ok());
}

TEST(RpcClientTest, ConcurrentFetchesMultiplexOneConnection) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  auto server = net::GpServer::Start(graph, 0, 1, 0);
  ASSERT_TRUE(server.ok());

  net::RpcClient client("127.0.0.1", (*server)->port(),
                        IdentityFor(*graph, 0, 1, 0));
  dist::GraphProcessor local(graph, 0, 1);

  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFetchesPerThread; ++i) {
        std::vector<NodeId> wanted = {
            static_cast<NodeId>((t * 13 + i * 7) % graph->num_nodes()),
            static_cast<NodeId>((t * 29 + i * 3) % graph->num_nodes())};
        std::vector<dist::NodeRecord> got;
        std::vector<dist::NodeRecord> want;
        if (!client.Fetch(wanted, &got).ok() ||
            !local.Fetch(wanted, &want).ok() ||
            !dist::SameRecords(got, want)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // All of it multiplexed over the one connection: no retries, no
  // reconnects, and the server accepted exactly one peer.
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.reconnects, 0u);
  EXPECT_EQ((*server)->connections_accepted(), 1u);
  EXPECT_EQ(w.frames_sent, 1u + kThreads * kFetchesPerThread);  // + hello
}

TEST(RemoteGraphProcessorTest, ConnectRemoteClusterRejectsBadEndpoints) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  StatusOr<std::unique_ptr<dist::Cluster>> bad =
      net::ConnectRemoteCluster(graph, 0, {"not-an-endpoint"});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(net::ConnectRemoteCluster(graph, 0, {}).ok());
}

}  // namespace
}  // namespace rtr
