#ifndef RTR_NET_GP_SERVER_H_
#define RTR_NET_GP_SERVER_H_

// Network listener serving one GraphProcessor shard (DESIGN.md §12).
//
// A GpServer serves shard `shard` of `num_gps` through a
// dist::GraphProcessor that views the server's graph (one copy of the graph
// per process) and answers the frame protocol on a TCP port: kHello is
// acked with the server's actual identity (the client compares and
// refuses to proceed on mismatch), kFetch batches are answered with
// kFetchReply or — when the shard-level Fetch fails — a kErrorReply
// carrying the typed Status across the wire. One handler thread per
// accepted connection; requests on a connection are served in order, and
// independent AP connections proceed in parallel.
//
// The options' FaultInjector (tests only) wraps each accepted connection in
// a net::FaultyTransport so tests/net/fault_test.cc can script delays,
// corruption, and disconnects per reply frame; `rtr_cli gp-serve` never
// sets it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dist/distributed_topk.h"
#include "graph/graph.h"
#include "net/fault.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace rtr::net {

struct GpServerOptions {
  // TCP port to listen on; 0 picks an ephemeral port (read it back via
  // port() — the CLI prints it so scripts can connect).
  uint16_t port = 0;
  // Budget for finishing a frame once its first byte arrived, and for
  // writing one reply.
  int frame_timeout_ms = 5000;
  // Test hook: scripts faults on accepted connections. Not owned; must
  // outlive the server. nullptr (the default) serves faithfully.
  FaultInjector* fault_injector = nullptr;
};

class GpServer {
 public:
  // Sets up the shard's GraphProcessor and starts listening + accepting.
  static StatusOr<std::unique_ptr<GpServer>> Start(
      std::shared_ptr<const Graph> graph, int shard, int num_gps,
      uint64_t generation, GpServerOptions options = {});

  ~GpServer();

  GpServer(const GpServer&) = delete;
  GpServer& operator=(const GpServer&) = delete;

  // Stops accepting, cuts live connections, joins all threads. Idempotent.
  void Stop();

  // Actual listening port (resolves an ephemeral request).
  uint16_t port() const { return port_; }
  int shard() const { return shard_; }
  int num_gps() const { return num_gps_; }
  uint64_t generation() const { return generation_; }
  // The served stripe (record-level traffic counters live here).
  const dist::GraphProcessor& gp() const { return gp_; }

  // Wire-level totals across all connections this server handled.
  uint64_t connections_accepted() const { return connections_.value(); }
  uint64_t frames_received() const { return frames_received_.value(); }
  uint64_t frames_sent() const { return frames_sent_.value(); }
  uint64_t bytes_received() const { return bytes_received_.value(); }
  uint64_t bytes_sent() const { return bytes_sent_.value(); }

  // Registers this server's rtr_net_server_* series (labeled by shard) plus
  // the stripe's record-level counters; the registrations must not outlive
  // the server.
  [[nodiscard]] std::vector<obs::MetricsRegistry::Registration>
  RegisterMetrics(obs::MetricsRegistry* registry) const;

 private:
  GpServer(std::shared_ptr<const Graph> graph, int shard, int num_gps,
           uint64_t generation, GpServerOptions options);

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Transport> transport);

  std::shared_ptr<const Graph> graph_;
  int shard_ = 0;
  int num_gps_ = 1;
  uint64_t generation_ = 0;
  GpServerOptions options_;
  dist::GraphProcessor gp_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  std::mutex mu_;  // guards handlers_ and live_connections_
  // Handler threads accumulate until Stop joins them — fine for the
  // bounded connection counts of one AP per shard plus fault-retry churn.
  std::vector<std::thread> handlers_;
  std::vector<std::weak_ptr<Transport>> live_connections_;

  obs::Counter connections_;
  obs::Counter frames_received_;
  obs::Counter frames_sent_;
  obs::Counter bytes_received_;
  obs::Counter bytes_sent_;
};

}  // namespace rtr::net

#endif  // RTR_NET_GP_SERVER_H_
