// RPC layer happy paths: frame codec, listener + client round-trips,
// shard-identity handshake, concurrent fetches over the client's pool (and
// its shed when the pool stays busy), and the GP server's one loop
// (connection cap, reconnect churn, prompt Stop). Every
// suite name matches the CI TSan filter
// (Rpc|Transport|RemoteGraphProcessor|GpServer) so the concurrency in here
// runs under TSan too. The scripted failure paths live in
// tests/net/fault_test.cc.

#include <atomic>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "dist/distributed_topk.h"
#include "dist/record_testing.h"
#include "graph/builder.h"
#include "net/frame.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "net/rpc_client.h"
#include "net/transport.h"
#include "util/bytes.h"
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
  // Byte-wise FNV-1a 64 from the standard offset basis: the pin predates
  // the word-wise frame checksum and guards the payload bytes alone.
  uint64_t fnv = 0xcbf29ce484222325ull;
  for (uint8_t byte : payload) fnv = (fnv ^ byte) * 1099511628211ull;
  EXPECT_EQ(fnv, 0x0b50106211837a11ull);
}

TEST(TransportFrameTest, VersionTwoHeaderIsRefused) {
  // A v2 peer seals frames with the byte-wise checksum; it is refused at
  // the header, before its checksum could read as a corrupt payload.
  std::vector<uint8_t> frame;
  net::EncodeFrame(net::FrameType::kFetch, 5, std::vector<uint8_t>{1, 2, 3},
                   &frame);
  ASSERT_EQ(net::kProtocolVersion, 3);
  frame[4] = 2;
  net::FrameHeader header;
  const Status status = net::DecodeFrameHeader(frame.data(), &header);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message(), "unsupported protocol version 2");
}

TEST(TransportFrameTest, ChecksumIsWordWiseWithAByteTail) {
  // 11 bytes: one 64-bit word, then three tail bytes folded in one by one.
  std::vector<uint8_t> payload(11);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 37 + 1);
  }
  const uint64_t checksum = net::FrameChecksum(payload);
  EXPECT_EQ(checksum, Fnv1a64Words(std::string_view(
                          reinterpret_cast<const char*>(payload.data()),
                          payload.size())));
  EXPECT_EQ(checksum, 0x1f1130c76f8439aeull);
  std::vector<uint8_t> frame;
  net::EncodeFrame(net::FrameType::kFetch, 5, payload, &frame);
  uint64_t sealed = 0;
  std::memcpy(&sealed, frame.data() + net::kChecksumOffset, sizeof(sealed));
  EXPECT_EQ(sealed, checksum);
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

TEST(RpcClientTest, ConcurrentFetchesSharePooledConnections) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  auto server = net::GpServer::Start(graph, 0, 1, 0);
  ASSERT_TRUE(server.ok());

  net::RpcClient client("127.0.0.1", (*server)->port(),
                        IdentityFor(*graph, 0, 1, 0));
  dist::GraphProcessor local(graph, 0, 1);

  // More callers than the pool holds connections: the surplus waits for
  // one to come back instead of dialing past the server's cap.
  constexpr int kThreads = 20;
  static_assert(kThreads > static_cast<int>(net::kMaxConnections));
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
  // No retries, no reconnects, nothing refused, at most a pool's worth of
  // connections, and one hello per connection on top of the fetches.
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.reconnects, 0u);
  EXPECT_EQ(w.sheds, 0u);
  EXPECT_EQ((*server)->connections_refused(), 0u);
  const uint64_t accepted = (*server)->connections_accepted();
  EXPECT_GE(accepted, 1u);
  EXPECT_LE(accepted, net::kMaxConnections);
  EXPECT_EQ(w.frames_sent, accepted + kThreads * kFetchesPerThread);
}

TEST(RpcClientTest, AllConnectionsBusyPastTheDeadlineSheds) {
  // A peer that accepts but never answers: every dial holds its pool slot
  // for the whole handshake budget.
  StatusOr<int> listener = net::ListenOn(0);
  ASSERT_TRUE(listener.ok());
  StatusOr<uint16_t> port = net::ListenerPort(*listener);
  ASSERT_TRUE(port.ok());
  net::RpcClientOptions options;
  options.connect_timeout_ms = 10000;
  options.call_timeout_ms = 100;
  net::RpcClient client("127.0.0.1", *port, net::HelloPayload{}, options);

  std::vector<std::thread> dialers;
  std::atomic<int> dial_failures{0};
  for (size_t i = 0; i < net::kMaxConnections; ++i) {
    dialers.emplace_back([&] {
      if (!client.Connect().ok()) dial_failures.fetch_add(1);
    });
  }
  // Once the peer holds every connection, every slot is taken.
  std::vector<std::unique_ptr<net::Transport>> accepted;
  for (size_t i = 0; i < net::kMaxConnections; ++i) {
    auto conn = net::AcceptConnection(*listener, 5000);
    if (!conn.ok()) {  // no ASSERT: the dialers must still be joined
      ADD_FAILURE() << conn.status().ToString();
      break;
    }
    accepted.push_back(std::move(*conn));
  }

  std::vector<dist::NodeRecord> out;
  WallTimer timer;
  Status status = client.Fetch({0}, &out);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_GE(timer.ElapsedMillis(), 90.0);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
  EXPECT_TRUE(out.empty());

  // Hanging up on the handshakes fails every dial, promptly.
  accepted.clear();
  for (std::thread& t : dialers) t.join();
  EXPECT_EQ(dial_failures.load(), static_cast<int>(net::kMaxConnections));
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.sheds, 1u);
  EXPECT_EQ(w.retries, 0u);  // a shed is not retried
  EXPECT_EQ(w.frames_sent, net::kMaxConnections);  // the hellos only
  ::close(*listener);
}

// Client budgets tight enough that a stopped server fails a call in
// milliseconds.
net::RpcClientOptions FastOptions() {
  net::RpcClientOptions options;
  options.connect_timeout_ms = 1000;
  options.call_timeout_ms = 400;
  options.max_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 5;
  return options;
}

// Sends a hello on a raw connection and reads the server's answer.
Status HelloExchange(net::Transport& transport, const net::HelloPayload& hello,
                     net::HelloPayload* ack) {
  std::vector<uint8_t> payload;
  std::vector<uint8_t> scratch;
  net::EncodeHello(hello, &payload);
  RTR_RETURN_IF_ERROR(net::WriteFrame(transport, net::FrameType::kHello,
                                      /*request_id=*/1, payload, 1000,
                                      &scratch));
  net::FrameHeader header;
  RTR_RETURN_IF_ERROR(net::ReadFrame(transport, 2000, 2000, &header,
                                     &payload));
  if (header.type != net::FrameType::kHelloAck) {
    return Status::IoError("expected a hello ack");
  }
  return net::DecodeHello(payload, ack);
}

TEST(GpServerTest, ConnectionsPastTheCapAreRefusedThenChurnIsPruned) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  auto server = net::GpServer::Start(graph, 0, 1, 0);
  ASSERT_TRUE(server.ok());
  const net::HelloPayload identity = IdentityFor(*graph, 0, 1, 0);

  // (a) kMaxConnections + 2 held open: the listener queues them in order,
  // so the first kMaxConnections are served and the last 2 are refused.
  std::vector<std::unique_ptr<net::Transport>> held;
  for (size_t i = 0; i < net::kMaxConnections + 2; ++i) {
    auto dialed = net::ConnectTo("127.0.0.1", (*server)->port(), 1000);
    ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
    held.push_back(std::move(*dialed));
  }
  for (size_t i = 0; i < held.size(); ++i) {
    net::HelloPayload ack;
    Status s = HelloExchange(*held[i], identity, &ack);
    if (i < net::kMaxConnections) {
      ASSERT_TRUE(s.ok()) << "connection " << i << ": " << s.ToString();
      EXPECT_EQ(ack.num_nodes, graph->num_nodes());
    } else {
      EXPECT_FALSE(s.ok()) << "connection " << i << " was served";
    }
  }
  EXPECT_EQ((*server)->connections_refused(), 2u);
  EXPECT_EQ((*server)->connections_accepted(), net::kMaxConnections);

  // (b) Close them all, then churn: every connection that closes must leave
  // the loop's set, or the cap would refuse the later cycles.
  held.clear();
  dist::GraphProcessor local(graph, 0, 1);
  constexpr int kCycles = 50;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::vector<NodeId> wanted = {
        static_cast<NodeId>(cycle % graph->num_nodes()),
        static_cast<NodeId>((cycle * 7 + 3) % graph->num_nodes())};
    net::RpcClient client("127.0.0.1", (*server)->port(), identity);
    std::vector<dist::NodeRecord> got;
    std::vector<dist::NodeRecord> want;
    ASSERT_TRUE(client.Fetch(wanted, &got).ok()) << "cycle " << cycle;
    ASSERT_TRUE(local.Fetch(wanted, &want).ok());
    dist::ExpectSameRecords(got, want);
    EXPECT_EQ(client.wire().retries, 0u) << "cycle " << cycle;
  }
  EXPECT_EQ((*server)->connections_refused(), 2u);
  EXPECT_EQ((*server)->connections_accepted(),
            net::kMaxConnections + kCycles);
}

TEST(GpServerTest, StopWithIdleClientsIsPromptAndFailsTheirCalls) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  auto server = net::GpServer::Start(graph, 0, 1, 0);
  ASSERT_TRUE(server.ok());
  const std::vector<NodeId> wanted = {0, 5, 10};

  std::vector<std::unique_ptr<net::RpcClient>> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<net::RpcClient>(
        "127.0.0.1", (*server)->port(), IdentityFor(*graph, 0, 1, 0),
        FastOptions()));
    std::vector<dist::NodeRecord> out;
    ASSERT_TRUE(clients.back()->Fetch(wanted, &out).ok());
  }

  // Both connections idle: shutting the listener down wakes the loop.
  WallTimer stop_timer;
  (*server)->Stop();
  EXPECT_LT(stop_timer.ElapsedMillis(), 50.0);

  for (std::unique_ptr<net::RpcClient>& client : clients) {
    std::vector<dist::NodeRecord> out;
    WallTimer timer;
    Status status = client->Fetch(wanted, &out);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    EXPECT_LT(timer.ElapsedMillis(), 5000.0);
    EXPECT_TRUE(out.empty());
  }
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
