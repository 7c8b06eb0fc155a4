#include "net/gp_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "util/logging.h"

namespace rtr::net {

namespace {
// Poll slice of the loop: a bound on noticing Stop() where shutting the
// listener down does not wake poll(2) (Linux wakes it at once).
constexpr int kIdleSliceMs = 100;
// Budget for finishing a frame once its first byte arrived, and for
// writing one reply.
constexpr int kFrameTimeoutMs = 5000;
}  // namespace

GpServer::GpServer(std::shared_ptr<const Graph> graph, int shard, int num_gps,
                   uint64_t generation, GpServerOptions options)
    : graph_(std::move(graph)),
      shard_(shard),
      num_gps_(num_gps),
      generation_(generation),
      options_(options),
      gp_(graph_, shard, num_gps) {}

StatusOr<std::unique_ptr<GpServer>> GpServer::Start(
    std::shared_ptr<const Graph> graph, int shard, int num_gps,
    uint64_t generation, GpServerOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("gp server needs a graph");
  }
  if (num_gps < 1 || shard < 0 || shard >= num_gps) {
    return Status::InvalidArgument(
        "invalid shard " + std::to_string(shard) + "/" +
        std::to_string(num_gps));
  }
  std::unique_ptr<GpServer> server(
      new GpServer(std::move(graph), shard, num_gps, generation, options));
  StatusOr<int> fd = ListenOn(options.port);
  RTR_RETURN_IF_ERROR(fd.status());
  server->listen_fd_ = *fd;
  StatusOr<uint16_t> port = ListenerPort(*fd);
  RTR_RETURN_IF_ERROR(port.status());
  server->port_ = *port;
  server->loop_thread_ = std::thread([s = server.get()] { s->Loop(); });
  return server;
}

GpServer::~GpServer() { Stop(); }

void GpServer::Stop() {
  stop_.store(true, std::memory_order_release);
  // A listener shut down polls as hung up, which wakes the loop at once.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void GpServer::Loop() {
  // Owned by the loop alone; they close when it returns.
  std::vector<std::unique_ptr<Transport>> connections;
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    // The listener is polled first, so a connection that closed before a
    // new one arrived is dropped in the same turn, before the accept.
    fds.assign(1, pollfd{listen_fd_, POLLIN, 0});
    for (const std::unique_ptr<Transport>& c : connections) {
      fds.push_back(pollfd{c->fd(), POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), kIdleSliceMs) <= 0 ||
        stop_.load(std::memory_order_acquire)) {
      continue;
    }
    size_t kept = 0;
    for (size_t i = 0; i < connections.size(); ++i) {
      if (fds[i + 1].revents != 0 && !ServeFrame(*connections[i])) {
        connections[i].reset();  // closes the socket
        continue;
      }
      connections[kept++] = std::move(connections[i]);
    }
    connections.resize(kept);
    if (fds[0].revents != 0) Accept(&connections);
  }
}

void GpServer::Accept(std::vector<std::unique_ptr<Transport>>* connections) {
  StatusOr<std::unique_ptr<Transport>> accepted =
      AcceptConnection(listen_fd_, 0);
  if (!accepted.ok()) {
    if (accepted.status().code() != StatusCode::kDeadlineExceeded) {
      LOG(WARNING) << "gp " << shard_
                   << " accept: " << accepted.status().ToString();
    }
    return;
  }
  std::unique_ptr<Transport> transport = std::move(*accepted);
  if (connections->size() >= kMaxConnections) {
    refused_.Increment();
    return;  // the transport closes as it goes out of scope
  }
  connections_.Increment();
  if (options_.fault_injector != nullptr) {
    ConnectionScript script = options_.fault_injector->Next();
    if (options_.fault_injector->dead() || script.refuse) return;
    transport = std::make_unique<FaultyTransport>(std::move(transport),
                                                  std::move(script));
  }
  connections->push_back(std::move(transport));
}

bool GpServer::ServeFrame(Transport& transport) {
  Status read = ReadFrame(transport, /*idle_timeout_ms=*/0, kFrameTimeoutMs,
                          &header_, &payload_);
  // Woken without a byte to read: still a good connection.
  if (read.code() == StatusCode::kDeadlineExceeded) return true;
  if (!read.ok()) return false;  // peer gone or stream poisoned
  frames_received_.Increment();
  bytes_received_.Add(kFrameHeaderBytes + payload_.size());
  FrameType reply_type = FrameType::kErrorReply;
  reply_.clear();
  switch (header_.type) {
    case FrameType::kHello: {
      // Always ack with the server's actual identity; the client decides
      // whether the shard matches what it expects.
      HelloPayload ignored;
      Status s = DecodeHello(payload_, &ignored);
      if (!s.ok()) {
        EncodeErrorReply(s, &reply_);
        break;
      }
      HelloPayload mine;
      mine.shard = static_cast<uint32_t>(shard_);
      mine.num_gps = static_cast<uint32_t>(num_gps_);
      mine.num_nodes = graph_->num_nodes();
      mine.generation = generation_;
      EncodeHello(mine, &reply_);
      reply_type = FrameType::kHelloAck;
      break;
    }
    case FrameType::kFetch: {
      nodes_.clear();
      records_.clear();
      Status s = DecodeFetchRequest(payload_, &nodes_);
      if (s.ok()) s = gp_.Fetch(nodes_, &records_);
      if (!s.ok()) {
        EncodeErrorReply(s, &reply_);
        break;
      }
      EncodeFetchReply(records_, &reply_);
      reply_type = FrameType::kFetchReply;
      break;
    }
    default:
      EncodeErrorReply(
          Status::InvalidArgument("unexpected frame type on a gp server"),
          &reply_);
      break;
  }
  size_t wire_bytes = 0;
  Status written = WriteFrame(transport, reply_type, header_.request_id,
                              reply_, kFrameTimeoutMs, &scratch_, &wire_bytes);
  if (!written.ok()) return false;  // cut, possibly by a fault script
  frames_sent_.Increment();
  bytes_sent_.Add(wire_bytes);
  return true;
}

std::vector<obs::MetricsRegistry::Registration> GpServer::RegisterMetrics(
    obs::MetricsRegistry* registry) const {
  obs::Labels labels{{"shard", std::to_string(shard_)}};
  std::vector<obs::MetricsRegistry::Registration> regs;
  regs.push_back(registry->RegisterCounter("rtr_net_server_connections_total",
                                           labels, &connections_));
  regs.push_back(registry->RegisterCounter("rtr_net_server_refused_total",
                                           labels, &refused_));
  regs.push_back(registry->RegisterCounter(
      "rtr_net_server_frames_received_total", labels, &frames_received_));
  regs.push_back(registry->RegisterCounter("rtr_net_server_frames_sent_total",
                                           labels, &frames_sent_));
  regs.push_back(registry->RegisterCounter(
      "rtr_net_server_bytes_received_total", labels, &bytes_received_));
  regs.push_back(registry->RegisterCounter("rtr_net_server_bytes_sent_total",
                                           labels, &bytes_sent_));
  regs.push_back(registry->RegisterCallbackCounter(
      "rtr_net_server_fetch_requests_total", labels,
      [this] { return gp_.fetch_requests(); }));
  regs.push_back(registry->RegisterCallbackCounter(
      "rtr_net_server_records_served_total", labels,
      [this] { return gp_.records_served(); }));
  regs.push_back(registry->RegisterCallbackCounter(
      "rtr_net_server_record_bytes_served_total", labels,
      [this] { return gp_.bytes_served(); }));
  return regs;
}

}  // namespace rtr::net
