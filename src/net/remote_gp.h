#ifndef RTR_NET_REMOTE_GP_H_
#define RTR_NET_REMOTE_GP_H_

// Networked dist::RecordSource (DESIGN.md §12).
//
// RemoteGraphProcessor is the dist::RecordSource a dist::Cluster holds for
// a shard served by a `rtr_cli gp-serve` process, where a loopback cluster
// holds an in-process GraphProcessor: same Fetch contract (on failure `out`
// and the counters are unchanged), same record-level counters, but the
// records come off a TCP connection and wire() reports the real frames/
// bytes/retries instead of zeros. Each reply is decoded into one shared
// column block that its records view (net::DecodeFetchReply), so a fetch
// costs a constant number of allocations, not one per record.
// DistributedTopK validates every remote record byte-for-byte against the
// AP graph, so the two tiers are bit-checkable against each other
// (tests/dist/remote_parity_test.cc).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/distributed_topk.h"
#include "graph/graph.h"
#include "net/rpc_client.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace rtr::net {

class RemoteGraphProcessor : public dist::RecordSource {
 public:
  // A client for shard `expected.shard` served at host:port. Lazy-dials on
  // the first fetch; call Connect() to verify the peer up-front.
  RemoteGraphProcessor(std::string host, uint16_t port, HelloPayload expected,
                       RpcClientOptions options = {});

  // Dials and verifies the shard-identity handshake.
  Status Connect() { return client_.Connect(); }

  Status Fetch(const std::vector<NodeId>& nodes,
               std::vector<dist::NodeRecord>* out) const override;

  uint64_t fetch_requests() const override { return fetch_requests_.value(); }
  uint64_t records_served() const override { return records_served_.value(); }
  uint64_t bytes_served() const override { return bytes_served_.value(); }
  dist::WireTraffic wire() const override { return client_.wire(); }

  const std::string& endpoint() const { return client_.endpoint(); }

 private:
  // Fetch is const (the RecordSource contract); the client's state churn
  // is this source's internal business.
  mutable RpcClient client_;
  mutable obs::Counter fetch_requests_;
  mutable obs::Counter records_served_;
  mutable obs::Counter bytes_served_;
};

// Dials one RemoteGraphProcessor per endpoint (endpoint i serves shard i of
// endpoints.size()), verifies every handshake eagerly, and assembles a
// Cluster of them over `graph`. Typed failures: kUnavailable when a
// peer cannot be reached, kFailedPrecondition when one serves the wrong
// stripe/graph/generation.
StatusOr<std::unique_ptr<dist::Cluster>> ConnectRemoteCluster(
    std::shared_ptr<const Graph> graph, uint64_t generation,
    const std::vector<std::string>& endpoints, RpcClientOptions options = {});

}  // namespace rtr::net

#endif  // RTR_NET_REMOTE_GP_H_
