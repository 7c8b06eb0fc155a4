#include "net/rpc_client.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace rtr::net {

namespace {

using Clock = std::chrono::steady_clock;

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

Status RpcClient::Connect() {
  std::unique_ptr<Connection> conn;
  bool shed = false;
  RTR_RETURN_IF_ERROR(Checkout(&conn, &shed));
  Release(std::move(conn));
  return Status::OK();
}

Status RpcClient::Checkout(std::unique_ptr<Connection>* conn, bool* shed) {
  *shed = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!released_.wait_for(
            lock, std::chrono::milliseconds(options_.call_timeout_ms),
            [this] { return !idle_.empty() || open_ < kMaxConnections; })) {
      *shed = true;
      sheds_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "all " + std::to_string(kMaxConnections) + " connections to " +
          endpoint_ + " stayed busy for " +
          std::to_string(options_.call_timeout_ms) + "ms");
    }
    if (!idle_.empty()) {
      *conn = std::move(idle_.back());  // the most recently used
      idle_.pop_back();
      return Status::OK();
    }
    ++open_;
    if (open_ > peak_open_.load(std::memory_order_relaxed)) {
      peak_open_.store(open_, std::memory_order_relaxed);
    }
  }
  // Dial outside the lock; the slot claimed above is held meanwhile.
  auto fresh = std::make_unique<Connection>();
  StatusOr<std::unique_ptr<Transport>> dialed =
      ConnectTo(host_, port_, options_.connect_timeout_ms);
  Status status = dialed.status();
  if (status.ok()) {
    dials_.fetch_add(1, std::memory_order_relaxed);
    fresh->transport = std::move(*dialed);
    status = Handshake(*fresh);
  }
  if (!status.ok()) {
    Release(nullptr);  // frees the slot; the transport closes with `fresh`
    return status;
  }
  *conn = std::move(fresh);
  return Status::OK();
}

void RpcClient::Release(std::unique_ptr<Connection> conn) {
  // Closed (as they go out of scope) after the lock is released.
  std::vector<std::unique_ptr<Connection>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn != nullptr && !conn->broken) {
      idle_.push_back(std::move(conn));
    } else {
      dropped.swap(idle_);
      open_ -= dropped.size() + 1;
    }
  }
  released_.notify_all();
}

Status RpcClient::Handshake(Connection& conn) {
  std::vector<uint8_t> hello;
  EncodeHello(expected_, &hello);
  size_t wire_bytes = 0;
  RTR_RETURN_IF_ERROR(WriteFrame(*conn.transport, FrameType::kHello,
                                 /*request_id=*/0, hello,
                                 options_.connect_timeout_ms, &conn.scratch,
                                 &wire_bytes));
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(wire_bytes, std::memory_order_relaxed);
  RTR_RETURN_IF_ERROR(ReadFrame(*conn.transport, options_.connect_timeout_ms,
                                options_.connect_timeout_ms, &conn.header,
                                &conn.reply));
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  bytes_received_.fetch_add(kFrameHeaderBytes + conn.reply.size(),
                            std::memory_order_relaxed);
  if (conn.header.type == FrameType::kErrorReply) {
    Status remote = Status::OK();
    RTR_RETURN_IF_ERROR(DecodeErrorReply(conn.reply, &remote));
    return remote;
  }
  if (conn.header.type != FrameType::kHelloAck) {
    return Status::IoError(endpoint_ + " answered the handshake with frame "
                                       "type " +
                           std::to_string(static_cast<int>(conn.header.type)));
  }
  HelloPayload actual;
  RTR_RETURN_IF_ERROR(DecodeHello(conn.reply, &actual));
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

Status RpcClient::Fetch(const std::vector<NodeId>& nodes,
                        std::vector<dist::NodeRecord>* out) {
  std::vector<uint8_t> request;
  EncodeFetchRequest(nodes, &request);

  const int attempts = std::max(1, options_.max_attempts);
  Status last = Status::OK();
  int backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    std::unique_ptr<Connection> conn;
    bool shed = false;
    last = Checkout(&conn, &shed);
    if (shed) return last;  // not retried: the caller backs off itself
    if (last.ok()) {
      last = Call(*conn, request, nodes.size(), out);
      Release(std::move(conn));
    }
    if (last.ok() || !Retryable(last)) break;
  }
  if (Retryable(last)) {
    return Status::Unavailable(endpoint_ + " unreachable after " +
                               std::to_string(attempts) +
                               " attempts; last error: " + last.ToString());
  }
  return last;
}

Status RpcClient::Call(Connection& conn, const std::vector<uint8_t>& request,
                       size_t num_nodes, std::vector<dist::NodeRecord>* out) {
  // Broken until a reply to this request has been read and decoded: after
  // any failure the stream may still carry it, or part of it.
  conn.broken = true;
  const uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  size_t wire_bytes = 0;
  RTR_RETURN_IF_ERROR(WriteFrame(*conn.transport, FrameType::kFetch, id,
                                 request, options_.call_timeout_ms,
                                 &conn.scratch, &wire_bytes));
  const Clock::time_point sent = Clock::now();
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(wire_bytes, std::memory_order_relaxed);

  // Spin, then park. The spin counts against the deadline; the park waits
  // out the rest, rounded up to poll(2)'s whole milliseconds.
  const Clock::time_point deadline =
      sent + std::chrono::milliseconds(options_.call_timeout_ms);
  const Clock::time_point spin_until =
      std::min(deadline, sent + std::chrono::nanoseconds(kSpinNanos));
  // A zero-timeout poll(2) neither blocks nor allocates. It also reports a
  // closed or failed socket as ready, and the read then surfaces that.
  pollfd pfd{conn.transport->fd(), POLLIN, 0};
  while (::poll(&pfd, 1, 0) == 0 && Clock::now() < spin_until) {
  }
  const int park_ms = static_cast<int>(std::max<int64_t>(
      0, std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
             .count()));
  Status read = ReadFrame(*conn.transport, park_ms, options_.call_timeout_ms,
                          &conn.header, &conn.reply);
  if (read.code() == StatusCode::kDeadlineExceeded) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("no reply from " + endpoint_ +
                                    " within " +
                                    std::to_string(options_.call_timeout_ms) +
                                    "ms");
  }
  if (!read.ok()) {
    // Peer gone, or a frame failed validation (after a checksum mismatch
    // nothing further on the stream can be trusted).
    return Status::Unavailable("connection to " + endpoint_ +
                               " lost: " + read.message());
  }
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  bytes_received_.fetch_add(kFrameHeaderBytes + conn.reply.size(),
                            std::memory_order_relaxed);
  if (conn.header.request_id != id) {
    return Status::IoError(endpoint_ + " answered request " +
                           std::to_string(id) + " with a reply to " +
                           std::to_string(conn.header.request_id));
  }

  if (conn.header.type == FrameType::kErrorReply) {
    Status remote = Status::OK();
    RTR_RETURN_IF_ERROR(DecodeErrorReply(conn.reply, &remote));
    conn.broken = false;  // a typed answer: the stream is in step
    return remote;
  }
  if (conn.header.type != FrameType::kFetchReply) {
    return Status::IoError(endpoint_ + " answered a fetch with frame type " +
                           std::to_string(static_cast<int>(conn.header.type)));
  }
  const size_t before = out->size();
  RTR_RETURN_IF_ERROR(DecodeFetchReply(conn.reply, out));
  if (out->size() - before != num_nodes) {
    const size_t served = out->size() - before;
    out->erase(out->begin() + static_cast<ptrdiff_t>(before), out->end());
    return Status::Internal(endpoint_ + " served " + std::to_string(served) +
                            " records for a request of " +
                            std::to_string(num_nodes));
  }
  conn.broken = false;
  return Status::OK();
}

dist::WireTraffic RpcClient::wire() const {
  dist::WireTraffic w;
  w.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  w.frames_received = frames_received_.load(std::memory_order_relaxed);
  w.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  w.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  w.retries = retries_.load(std::memory_order_relaxed);
  // Dials beyond the most connections ever open at once re-establish a
  // dropped connection.
  const uint64_t dials = dials_.load(std::memory_order_relaxed);
  const uint64_t peak = peak_open_.load(std::memory_order_relaxed);
  w.reconnects = dials > peak ? dials - peak : 0;
  w.timeouts = timeouts_.load(std::memory_order_relaxed);
  w.sheds = sheds_.load(std::memory_order_relaxed);
  return w;
}

}  // namespace rtr::net
