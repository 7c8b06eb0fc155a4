#include "net/gp_server.h"

#include <unistd.h>

#include <string>
#include <utility>

#include "util/logging.h"

namespace rtr::net {

namespace {
// Accept/read poll slice: how promptly Stop() is honored.
constexpr int kIdleSliceMs = 100;
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
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

GpServer::~GpServer() { Stop(); }

void GpServer::Stop() {
  bool was_stopped = stop_.exchange(true, std::memory_order_acq_rel);
  if (was_stopped) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::weak_ptr<Transport>& weak : live_connections_) {
      if (std::shared_ptr<Transport> t = weak.lock()) t->Close();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void GpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<std::unique_ptr<Transport>> accepted =
        AcceptConnection(listen_fd_, kIdleSliceMs);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) continue;
      if (!stop_.load(std::memory_order_acquire)) {
        LOG(WARNING) << "gp " << shard_
                     << " accept: " << accepted.status().ToString();
      }
      continue;
    }
    connections_.Increment();
    std::unique_ptr<Transport> owned = std::move(*accepted);
    if (options_.fault_injector != nullptr) {
      ConnectionScript script = options_.fault_injector->Next();
      if (options_.fault_injector->dead() || script.refuse) {
        owned->Close();
        continue;
      }
      owned = std::make_unique<FaultyTransport>(std::move(owned),
                                                std::move(script));
    }
    std::shared_ptr<Transport> transport = std::move(owned);
    std::lock_guard<std::mutex> lock(mu_);
    live_connections_.push_back(transport);
    handlers_.emplace_back(
        [this, transport]() mutable { ServeConnection(std::move(transport)); });
  }
}

void GpServer::ServeConnection(std::shared_ptr<Transport> transport) {
  FrameHeader header;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> reply;
  std::vector<uint8_t> scratch;
  std::vector<NodeId> nodes;
  std::vector<dist::NodeRecord> records;
  while (!stop_.load(std::memory_order_acquire)) {
    Status read = ReadFrame(*transport, kIdleSliceMs,
                            options_.frame_timeout_ms, &header, &payload);
    if (!read.ok()) {
      if (read.code() == StatusCode::kDeadlineExceeded) continue;  // idle
      break;  // peer gone or stream poisoned; the client reconnects
    }
    frames_received_.Increment();
    bytes_received_.Add(kFrameHeaderBytes + payload.size());
    FrameType reply_type = FrameType::kErrorReply;
    reply.clear();
    switch (header.type) {
      case FrameType::kHello: {
        // Always ack with the server's actual identity; the client decides
        // whether the shard matches what it expects.
        HelloPayload ignored;
        Status s = DecodeHello(payload, &ignored);
        if (!s.ok()) {
          EncodeErrorReply(s, &reply);
          break;
        }
        HelloPayload mine;
        mine.shard = static_cast<uint32_t>(shard_);
        mine.num_gps = static_cast<uint32_t>(num_gps_);
        mine.num_nodes = graph_->num_nodes();
        mine.generation = generation_;
        EncodeHello(mine, &reply);
        reply_type = FrameType::kHelloAck;
        break;
      }
      case FrameType::kFetch: {
        nodes.clear();
        records.clear();
        Status s = DecodeFetchRequest(payload, &nodes);
        if (s.ok()) s = gp_.Fetch(nodes, &records);
        if (!s.ok()) {
          EncodeErrorReply(s, &reply);
          break;
        }
        EncodeFetchReply(records, &reply);
        reply_type = FrameType::kFetchReply;
        break;
      }
      default:
        EncodeErrorReply(
            Status::InvalidArgument("unexpected frame type on a gp server"),
            &reply);
        break;
    }
    size_t wire_bytes = 0;
    Status written =
        WriteFrame(*transport, reply_type, header.request_id, reply,
                   options_.frame_timeout_ms, &scratch, &wire_bytes);
    if (!written.ok()) break;  // connection cut (possibly by a fault script)
    frames_sent_.Increment();
    bytes_sent_.Add(wire_bytes);
  }
  transport->Close();
}

std::vector<obs::MetricsRegistry::Registration> GpServer::RegisterMetrics(
    obs::MetricsRegistry* registry) const {
  obs::Labels labels{{"shard", std::to_string(shard_)}};
  std::vector<obs::MetricsRegistry::Registration> regs;
  regs.push_back(registry->RegisterCounter("rtr_net_server_connections_total",
                                           labels, &connections_));
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
