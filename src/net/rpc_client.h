#ifndef RTR_NET_RPC_CLIENT_H_
#define RTR_NET_RPC_CLIENT_H_

// AP-side RPC endpoint for one GP peer (DESIGN.md §12).
//
// One RpcClient per (host, port) peer, shared by every AP worker thread.
// The client keeps a pool of at most kMaxConnections connections and each
// call has one to itself: it checks a connection out, writes its request,
// reads its own reply off the same socket, and checks the connection back
// in. No thread of the client's own runs, and every wait is bounded.
//
// Failure policy (exercised fault-by-fault in tests/net/fault_test.cc):
//  * per-attempt timeout — a reply not starting within call_timeout_ms
//    counts a timeout; like every transport failure it closes the
//    connection (a late reply must never be matched to a later call);
//  * bounded retry — transport loss, timeouts, and refused connections
//    (kIoError / kDeadlineExceeded / kUnavailable) are retried up to
//    max_attempts with doubling backoff on a fresh connection; anything
//    else (a remote kInvalidArgument, a handshake kFailedPrecondition) is
//    returned immediately — re-sending cannot fix it;
//  * reconnect — connections are dialed on demand, and a failed one drops
//    the idle ones with it (they most likely share its fate, e.g. a
//    restarted peer); the Hello/HelloAck handshake re-verifies the peer's
//    shard identity on every dial, so a restarted peer serving the wrong
//    stripe is caught before any record is trusted;
//  * shed — when all kMaxConnections connections stay checked out for
//    call_timeout_ms, the call fails with kUnavailable (not retried:
//    retrying a shed would defeat its purpose).
//
// Spin, then park: once its request is written, a call polls its socket
// with a zero timeout for up to kSpinNanos, and only then parks in poll(2)
// for the rest of its deadline. A reply that comes inside the spin saves
// the park and the wake-up, about half of a fast round trip. The handshake
// reads its HelloAck without a spin.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/distributed_topk.h"
#include "graph/types.h"
#include "net/frame.h"
#include "net/transport.h"
#include "util/status.h"

namespace rtr::net {

struct RpcClientOptions {
  int connect_timeout_ms = 2000;
  // Per-attempt budget for the reply to start, and again for it to finish;
  // also how long a call waits for a pooled connection.
  int call_timeout_ms = 5000;
  // Total tries per Fetch (first attempt + retries).
  int max_attempts = 4;
  // Doubling backoff between attempts, capped.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 100;
};

// How long a call polls for its reply before it parks.
inline constexpr int64_t kSpinNanos = 150'000;

class RpcClient {
 public:
  // `expected` is the shard identity this peer must prove in its HelloAck.
  // Does not dial; the first call (or an explicit Connect) does.
  RpcClient(std::string host, uint16_t port, HelloPayload expected,
            RpcClientOptions options = {});

  // Requires no Fetch in flight on other threads.
  ~RpcClient() = default;

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Eagerly dials and verifies the handshake (kFailedPrecondition on a
  // shard-identity mismatch), leaving the connection in the pool. Fetch
  // dials on demand; cluster bring-up calls this to fail fast on
  // misconfiguration.
  Status Connect();

  // One batched record fetch, with the full retry/reconnect policy above.
  // Appends one record per node to `out` on success; on failure `out` is
  // untouched. Thread-safe.
  Status Fetch(const std::vector<NodeId>& nodes,
               std::vector<dist::NodeRecord>* out);

  // Cumulative wire traffic (frames/bytes both ways, retries, reconnects,
  // timeouts, sheds) since construction.
  dist::WireTraffic wire() const;

  const std::string& endpoint() const { return endpoint_; }

 private:
  // One pooled connection and the buffers its calls reuse.
  struct Connection {
    std::unique_ptr<Transport> transport;
    // Set by a failed exchange: the connection is closed, not pooled.
    bool broken = false;
    FrameHeader header;
    std::vector<uint8_t> reply;
    std::vector<uint8_t> scratch;
  };

  // Takes an idle connection, or dials one while fewer than kMaxConnections
  // are open, or waits up to call_timeout_ms for one to come back. When
  // none does the call is shed: *shed is set and kUnavailable returned. On
  // any failure *conn is null and no slot is held.
  Status Checkout(std::unique_ptr<Connection>* conn, bool* shed);
  // Pools a healthy connection; closes a broken one, with every idle one.
  void Release(std::unique_ptr<Connection> conn);
  Status Handshake(Connection& conn);
  // One attempt on `conn`: write the request, read its reply, decode.
  // Appends exactly num_nodes records to `out` on success and leaves it as
  // it was on failure.
  Status Call(Connection& conn, const std::vector<uint8_t>& request,
              size_t num_nodes, std::vector<dist::NodeRecord>* out);

  const std::string host_;
  const uint16_t port_;
  const std::string endpoint_;
  const HelloPayload expected_;
  const RpcClientOptions options_;

  std::mutex mu_;  // idle_, open_
  std::condition_variable released_;
  std::vector<std::unique_ptr<Connection>> idle_;
  // Connections checked out, pooled, or being dialed.
  size_t open_ = 0;
  std::atomic<uint64_t> next_request_id_{1};  // 0 is the handshake

  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> dials_{0};
  std::atomic<uint64_t> peak_open_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> sheds_{0};
};

}  // namespace rtr::net

#endif  // RTR_NET_RPC_CLIENT_H_
