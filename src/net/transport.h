#ifndef RTR_NET_TRANSPORT_H_
#define RTR_NET_TRANSPORT_H_

// Byte transport under the frame protocol (net/frame.h).
//
// Transport is the seam the fault-injection harness exploits: every frame
// crosses it as exactly ONE WriteAll call, so a wrapper (net/fault.h) can
// delay, corrupt, truncate, or swallow individual frames without parsing the
// stream. Production code only ever uses SocketTransport — a non-blocking
// TCP socket driven through poll(2) with bounded waits, so no call can hang
// past its timeout and Close() from another thread unblocks a sleeping peer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/frame.h"
#include "util/status.h"

namespace rtr::net {

// Live connections one GP server holds (the next accepted one is refused),
// and connections one RpcClient pools per peer.
inline constexpr size_t kMaxConnections = 16;

class Transport {
 public:
  virtual ~Transport() = default;

  // Reads at least 1 and at most `n` bytes into `buf`, waiting up to
  // `timeout_ms`. Returns the byte count; 0 means the peer closed cleanly.
  // kDeadlineExceeded: nothing arrived in time. kIoError: connection broken.
  virtual StatusOr<size_t> ReadSome(uint8_t* buf, size_t n,
                                    int timeout_ms) = 0;

  // Writes all of `frame` (one encoded frame per call — the contract the
  // fault harness relies on), waiting up to `timeout_ms` for socket space.
  // kDeadlineExceeded: the peer stopped draining. kIoError: connection
  // broken.
  virtual Status WriteAll(std::span<const uint8_t> frame, int timeout_ms) = 0;

  // Tears down the connection. Safe to call from any thread and
  // idempotent; a ReadSome/WriteAll blocked in poll wakes up and fails.
  virtual void Close() = 0;

  virtual bool closed() const = 0;

  // The connected socket, for poll(2); the transport keeps ownership.
  virtual int fd() const = 0;

  // "host:port" of the peer, for error messages.
  virtual const std::string& peer() const = 0;
};

// Transport over a connected TCP socket. Takes ownership of `fd` (made
// non-blocking on construction; closed on destruction).
class SocketTransport : public Transport {
 public:
  SocketTransport(int fd, std::string peer);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  StatusOr<size_t> ReadSome(uint8_t* buf, size_t n, int timeout_ms) override;
  Status WriteAll(std::span<const uint8_t> frame, int timeout_ms) override;
  void Close() override;
  bool closed() const override { return closed_.load(std::memory_order_acquire); }
  int fd() const override { return fd_; }
  const std::string& peer() const override { return peer_; }

 private:
  int fd_ = -1;
  std::string peer_;
  // Close() only half-closes via shutdown(2); the fd itself is released in
  // the destructor so a concurrent poll never races an fd-number reuse.
  std::atomic<bool> closed_{false};
};

// Splits "host:port". kInvalidArgument on malformed input.
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

// Opens a listening socket on `port` (0 picks an ephemeral port) bound to
// all interfaces, SO_REUSEADDR set. Returns the fd.
StatusOr<int> ListenOn(uint16_t port);

// Actual bound port of a listening fd (resolves port 0).
StatusOr<uint16_t> ListenerPort(int listen_fd);

// Accepts one pending connection, waiting up to `timeout_ms`.
// kDeadlineExceeded when none arrives — callers loop on a short slice so a
// stop flag is honored promptly.
StatusOr<std::unique_ptr<Transport>> AcceptConnection(int listen_fd,
                                                      int timeout_ms);

// Connects to host:port with a bounded handshake wait.
// kUnavailable if the peer refuses or the wait expires.
StatusOr<std::unique_ptr<Transport>> ConnectTo(const std::string& host,
                                               uint16_t port, int timeout_ms);

// Reads one whole frame: waits up to `idle_timeout_ms` for the first byte
// (kDeadlineExceeded if none — an idle tick, the connection is still good),
// then requires the rest within `frame_timeout_ms` (a peer dying or stalling
// mid-frame is kIoError — the stream is unrecoverable). A clean peer close
// at a frame boundary is kUnavailable. The payload checksum is verified
// before returning; mismatch is kIoError.
Status ReadFrame(Transport& transport, int idle_timeout_ms,
                 int frame_timeout_ms, FrameHeader* header,
                 std::vector<uint8_t>* payload);

// Encodes and writes one frame in a single Transport::WriteAll call.
// `scratch` holds the encoded bytes (reused across calls); on success
// *wire_bytes (optional) is the frame's size on the wire.
Status WriteFrame(Transport& transport, FrameType type, uint64_t request_id,
                  std::span<const uint8_t> payload, int timeout_ms,
                  std::vector<uint8_t>* scratch,
                  size_t* wire_bytes = nullptr);

}  // namespace rtr::net

#endif  // RTR_NET_TRANSPORT_H_
