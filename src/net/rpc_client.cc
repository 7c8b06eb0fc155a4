#include "net/rpc_client.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/logging.h"

namespace rtr::net {

namespace {

// Reader-side poll slice: how promptly a closing client is noticed.
constexpr int kIdleSliceMs = 100;

bool Retryable(const Status& s) {
  switch (s.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kIoError:
      return true;
    default:
      return false;
  }
}

}  // namespace

RpcClient::RpcClient(std::string host, uint16_t port, HelloPayload expected,
                     RpcClientOptions options)
    : host_(std::move(host)),
      port_(port),
      endpoint_(host_ + ":" + std::to_string(port)),
      expected_(expected),
      options_(options) {}

RpcClient::~RpcClient() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_ != nullptr) graveyard_.push_back(std::move(conn_));
  }
  ReapGraveyard();
}

void RpcClient::ReapGraveyard() {
  std::vector<std::shared_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead.swap(graveyard_);
  }
  for (std::shared_ptr<Connection>& conn : dead) {
    conn->transport->Close();
    if (conn->reader.joinable()) conn->reader.join();
  }
}

Status RpcClient::Connect() {
  StatusOr<std::shared_ptr<Connection>> conn = EnsureConnected();
  return conn.status();
}

StatusOr<std::shared_ptr<RpcClient::Connection>> RpcClient::EnsureConnected() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_ != nullptr && !conn_->broken.load(std::memory_order_acquire)) {
      return conn_;
    }
  }
  std::lock_guard<std::mutex> connect_lock(connect_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_ != nullptr && !conn_->broken.load(std::memory_order_acquire)) {
      return conn_;  // someone else already redialed
    }
    if (conn_ != nullptr) graveyard_.push_back(std::move(conn_));
  }
  ReapGraveyard();
  StatusOr<std::unique_ptr<Transport>> dialed =
      ConnectTo(host_, port_, options_.connect_timeout_ms);
  RTR_RETURN_IF_ERROR(dialed.status());
  auto conn = std::make_shared<Connection>();
  conn->transport = std::move(*dialed);
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  RTR_RETURN_IF_ERROR(Handshake(*conn->transport));
  // The raw pointer is safe: a Connection is destroyed only after its
  // reader is joined (ReapGraveyard / destructor).
  conn->reader = std::thread([this, c = conn.get()] { ReaderLoop(c); });
  std::lock_guard<std::mutex> lock(mu_);
  conn_ = conn;
  return conn;
}

Status RpcClient::Handshake(Transport& transport) {
  std::vector<uint8_t> payload;
  EncodeHello(expected_, &payload);
  std::vector<uint8_t> scratch;
  size_t wire_bytes = 0;
  RTR_RETURN_IF_ERROR(WriteFrame(transport, FrameType::kHello,
                                 /*request_id=*/0, payload,
                                 options_.connect_timeout_ms, &scratch,
                                 &wire_bytes));
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(wire_bytes, std::memory_order_relaxed);
  FrameHeader header;
  std::vector<uint8_t> reply;
  RTR_RETURN_IF_ERROR(ReadFrame(transport, options_.connect_timeout_ms,
                                options_.connect_timeout_ms, &header,
                                &reply));
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  bytes_received_.fetch_add(kFrameHeaderBytes + reply.size(),
                            std::memory_order_relaxed);
  if (header.type == FrameType::kErrorReply) {
    Status remote = Status::OK();
    RTR_RETURN_IF_ERROR(DecodeErrorReply(reply, &remote));
    return remote;
  }
  if (header.type != FrameType::kHelloAck) {
    return Status::IoError(endpoint_ + " answered the handshake with frame "
                                       "type " +
                           std::to_string(static_cast<int>(header.type)));
  }
  HelloPayload actual;
  RTR_RETURN_IF_ERROR(DecodeHello(reply, &actual));
  if (actual.shard != expected_.shard ||
      actual.num_gps != expected_.num_gps ||
      actual.num_nodes != expected_.num_nodes ||
      actual.generation != expected_.generation) {
    return Status::FailedPrecondition(
        endpoint_ + " identifies as shard " + std::to_string(actual.shard) +
        "/" + std::to_string(actual.num_gps) + " over " +
        std::to_string(actual.num_nodes) + " nodes (generation " +
        std::to_string(actual.generation) + "); this AP expects shard " +
        std::to_string(expected_.shard) + "/" +
        std::to_string(expected_.num_gps) + " over " +
        std::to_string(expected_.num_nodes) + " nodes (generation " +
        std::to_string(expected_.generation) + ")");
  }
  return Status::OK();
}

void RpcClient::ReaderLoop(Connection* conn) {
  FrameHeader header;
  std::vector<uint8_t> payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    Status read = ReadFrame(*conn->transport, kIdleSliceMs,
                            options_.call_timeout_ms, &header, &payload);
    if (read.code() == StatusCode::kDeadlineExceeded) continue;  // idle
    if (!read.ok()) {
      // The stream is unusable (peer gone, or a frame failed validation —
      // after a checksum mismatch nothing downstream can be trusted).
      // Poison the connection and fail every waiter with a retryable code.
      Status failure = Status::Unavailable("connection to " + endpoint_ +
                                           " lost: " + read.message());
      std::lock_guard<std::mutex> lock(mu_);
      conn->broken.store(true, std::memory_order_release);
      for (auto& [id, call] : pending_) {
        if (!call->done) {
          call->done = true;
          call->status = failure;
        }
      }
      cv_.notify_all();
      return;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(kFrameHeaderBytes + payload.size(),
                              std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(header.request_id);
    if (it == pending_.end()) continue;  // late reply for a timed-out call
    PendingCall* call = it->second;
    if (!call->done) {
      call->header = header;
      call->payload = std::move(payload);
      call->status = Status::OK();
      call->done = true;
      cv_.notify_all();
    }
  }
}

Status RpcClient::Fetch(const std::vector<NodeId>& nodes,
                        std::vector<dist::NodeRecord>* out) {
  std::vector<uint8_t> request;
  EncodeFetchRequest(nodes, &request);
  const size_t request_wire_bytes = kFrameHeaderBytes + request.size();

  // Backpressure: shed locally when the peer already has a full window of
  // un-replied request bytes. Not retried — the caller sees kUnavailable
  // and can back off at its own level.
  size_t outstanding = outstanding_bytes_.fetch_add(
      request_wire_bytes, std::memory_order_acq_rel);
  if (outstanding + request_wire_bytes > options_.max_outstanding_bytes) {
    outstanding_bytes_.fetch_sub(request_wire_bytes,
                                 std::memory_order_acq_rel);
    sheds_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "backpressure: " + endpoint_ + " has " + std::to_string(outstanding) +
        " un-replied bytes (cap " +
        std::to_string(options_.max_outstanding_bytes) + ")");
  }

  Status last = Status::OK();
  int backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    last = TryFetch(request, nodes.size(), out);
    if (last.ok() || !Retryable(last)) break;
  }
  outstanding_bytes_.fetch_sub(request_wire_bytes, std::memory_order_acq_rel);
  if (!last.ok()) {
    if (Retryable(last)) {
      return Status::Unavailable(
          endpoint_ + " unreachable after " +
          std::to_string(std::max(1, options_.max_attempts)) +
          " attempts; last error: " + last.ToString());
    }
    return last;
  }
  return Status::OK();
}

Status RpcClient::TryFetch(const std::vector<uint8_t>& request,
                           size_t num_nodes,
                           std::vector<dist::NodeRecord>* out) {
  StatusOr<std::shared_ptr<Connection>> conn_or = EnsureConnected();
  RTR_RETURN_IF_ERROR(conn_or.status());
  std::shared_ptr<Connection> conn = std::move(*conn_or);

  PendingCall call;
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[id] = &call;
  }

  Status written = Status::OK();
  {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    std::vector<uint8_t> scratch;
    size_t wire_bytes = 0;
    written = WriteFrame(*conn->transport, FrameType::kFetch, id, request,
                         options_.call_timeout_ms, &scratch, &wire_bytes);
    if (written.ok()) {
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(wire_bytes, std::memory_order_relaxed);
    }
  }
  if (!written.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(id);
      conn->broken.store(true, std::memory_order_release);
    }
    conn->transport->Close();
    return written;  // kIoError / kDeadlineExceeded — both retryable
  }

  std::unique_lock<std::mutex> lock(mu_);
  bool done = cv_.wait_for(
      lock, std::chrono::milliseconds(options_.call_timeout_ms),
      [&call] { return call.done; });
  pending_.erase(id);
  if (!done) {
    // Poison the connection: a reply this late must never be matched to a
    // future request, and the frame may still be half-way down the stream.
    conn->broken.store(true, std::memory_order_release);
    lock.unlock();
    conn->transport->Close();
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("no reply from " + endpoint_ +
                                    " within " +
                                    std::to_string(options_.call_timeout_ms) +
                                    "ms");
  }
  lock.unlock();
  RTR_RETURN_IF_ERROR(call.status);

  if (call.header.type == FrameType::kErrorReply) {
    Status remote = Status::OK();
    RTR_RETURN_IF_ERROR(DecodeErrorReply(call.payload, &remote));
    return remote;
  }
  if (call.header.type != FrameType::kFetchReply) {
    return Status::IoError(endpoint_ + " answered a fetch with frame type " +
                           std::to_string(static_cast<int>(call.header.type)));
  }
  const size_t before = out->size();
  RTR_RETURN_IF_ERROR(DecodeFetchReply(call.payload, out));
  if (out->size() - before != num_nodes) {
    const size_t served = out->size() - before;
    out->erase(out->begin() + static_cast<ptrdiff_t>(before), out->end());
    return Status::Internal(endpoint_ + " served " + std::to_string(served) +
                            " records for a request of " +
                            std::to_string(num_nodes));
  }
  return Status::OK();
}

dist::WireTraffic RpcClient::wire() const {
  dist::WireTraffic w;
  w.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  w.frames_received = frames_received_.load(std::memory_order_relaxed);
  w.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  w.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  w.retries = retries_.load(std::memory_order_relaxed);
  // The first dial is counted as a reconnect internally; report
  // re-establishments only.
  uint64_t dials = reconnects_.load(std::memory_order_relaxed);
  w.reconnects = dials > 0 ? dials - 1 : 0;
  w.timeouts = timeouts_.load(std::memory_order_relaxed);
  w.sheds = sheds_.load(std::memory_order_relaxed);
  return w;
}

}  // namespace rtr::net
