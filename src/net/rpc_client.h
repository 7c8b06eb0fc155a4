#ifndef RTR_NET_RPC_CLIENT_H_
#define RTR_NET_RPC_CLIENT_H_

// AP-side RPC endpoint for one GP peer (DESIGN.md §12).
//
// One RpcClient per (host, port) peer. Calls from any number of AP worker
// threads are multiplexed over a single connection: each in-flight request
// carries a unique request id, a dedicated reader thread dispatches reply
// frames to the waiting callers by that id, and a caller only ever blocks
// on its own bounded condition wait — so a slow reply for one query never
// serializes the others, and nothing waits without a deadline.
//
// Failure policy (exercised fault-by-fault in tests/net/fault_test.cc):
//  * per-attempt timeout — a reply not arriving in call_timeout_ms poisons
//    the connection (late replies must not be mis-matched to a retry) and
//    counts a timeout;
//  * bounded retry — transport loss, timeouts, and refused connections
//    (kIoError / kDeadlineExceeded / kUnavailable) are retried up to
//    max_attempts with doubling backoff on a fresh connection; anything
//    else (a remote kInvalidArgument, a handshake kFailedPrecondition) is
//    returned immediately — re-sending cannot fix it;
//  * reconnect — connections are dialed lazily and redialed after poison;
//    the Hello/HelloAck handshake re-verifies the peer's shard identity
//    every time, so a restarted peer serving the wrong stripe is caught
//    before any record is trusted;
//  * backpressure — when the peer already holds max_outstanding_bytes of
//    un-replied request bytes, new fetches are shed locally with
//    kUnavailable (not retried: retrying a shed would defeat its purpose).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/distributed_topk.h"
#include "graph/types.h"
#include "net/frame.h"
#include "net/transport.h"
#include "util/status.h"

namespace rtr::net {

struct RpcClientOptions {
  int connect_timeout_ms = 2000;
  // Per-attempt budget for one request/reply exchange.
  int call_timeout_ms = 5000;
  // Total tries per Fetch (first attempt + retries).
  int max_attempts = 4;
  // Doubling backoff between attempts, capped.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 100;
  // Per-peer backpressure: un-replied request bytes beyond this are shed.
  size_t max_outstanding_bytes = 8u << 20;
};

class RpcClient {
 public:
  // `expected` is the shard identity this peer must prove in its HelloAck.
  // Does not dial; the first call (or an explicit Connect) does.
  RpcClient(std::string host, uint16_t port, HelloPayload expected,
            RpcClientOptions options = {});

  // Requires no Fetch in flight on other threads.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Eagerly dials and verifies the handshake (kFailedPrecondition on a
  // shard-identity mismatch). Fetch does this lazily; cluster bring-up
  // calls it to fail fast on misconfiguration.
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
  struct Connection {
    std::unique_ptr<Transport> transport;
    std::thread reader;
    std::atomic<bool> broken{false};
    std::mutex write_mu;  // frame writes on one connection are atomic
  };

  struct PendingCall {
    bool done = false;
    Status status;
    FrameHeader header;
    std::vector<uint8_t> payload;
  };

  // Returns the healthy current connection, dialing (and handshaking) a
  // fresh one if needed. Serialized so concurrent callers share one dial.
  StatusOr<std::shared_ptr<Connection>> EnsureConnected();
  Status Handshake(Transport& transport);
  // One attempt: write the request, wait for its reply, decode. Appends
  // exactly num_nodes records to `out` on success and leaves it as it was
  // on failure.
  Status TryFetch(const std::vector<uint8_t>& request, size_t num_nodes,
                  std::vector<dist::NodeRecord>* out);
  void ReaderLoop(Connection* conn);
  // Closes and joins retired connections (never called from a reader).
  void ReapGraveyard();

  const std::string host_;
  const uint16_t port_;
  const std::string endpoint_;
  const HelloPayload expected_;
  const RpcClientOptions options_;

  std::mutex mu_;  // pending_, conn_, graveyard_
  std::condition_variable cv_;
  std::unordered_map<uint64_t, PendingCall*> pending_;
  std::shared_ptr<Connection> conn_;
  std::vector<std::shared_ptr<Connection>> graveyard_;
  std::mutex connect_mu_;  // serializes dial attempts
  std::atomic<uint64_t> next_request_id_{1};  // 0 is the handshake
  std::atomic<bool> stopping_{false};

  std::atomic<size_t> outstanding_bytes_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> sheds_{0};
};

}  // namespace rtr::net

#endif  // RTR_NET_RPC_CLIENT_H_
