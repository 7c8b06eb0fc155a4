#ifndef RTR_DIST_DISTRIBUTED_TOPK_H_
#define RTR_DIST_DISTRIBUTED_TOPK_H_

// Distributed top-K query processing (Sect. V-B of the paper).
//
// Architecture (Sect. V-B2): the graph is striped across several Graph
// Processors (GPs); an Application Processor (AP) runs 2SBound and fetches
// the per-node records it touches — the query's *active set* — from the
// owning GPs in batched requests. Because the active set stays a tiny
// fraction of the graph (Sect. V-B1, Figs. 12-13), the AP's working set and
// the GP traffic per query are small and nearly independent of graph size.
//
// A Cluster holds one RecordSource per shard: an in-process GraphProcessor
// (loopback) or a net::RemoteGraphProcessor (TCP, src/net/), behind one
// interface. Every record the AP assembles for the active set comes out of
// a source's response, and the returned byte/request counts are measured
// from those responses, not estimated. A record is a view of four columns:
// spans into the pinned graph (loopback) or into the decoded reply (net/),
// plus a keep-alive for those bytes, so the fetch path copies no arcs and
// allocates nothing per record.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/twosbound.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace rtr::dist {

// One node's shard record as served by a GP (the unit of transfer of
// Sect. V-B2): the node id plus views of the four arc columns 2SBound
// reads, endpoints and probabilities per direction (never arc weights).
// Entries at one index across a direction's spans describe the same arc.
// `storage` keeps the viewed bytes alive — the graph a GraphProcessor
// serves, or the one block a decoded fetch reply copies its columns into —
// so a record outlives its source, and copying a record copies no arcs.
struct NodeRecord {
  NodeId node = kInvalidNode;
  std::span<const NodeId> out_targets;
  std::span<const double> out_probs;
  std::span<const NodeId> in_sources;
  std::span<const double> in_probs;
  std::shared_ptr<const void> storage;

  size_t num_out_arcs() const { return out_targets.size(); }
  size_t num_in_arcs() const { return in_sources.size(); }

  // This record in the Figs. 12-13 accounting unit the local active-set
  // bytes use (id + 4 bounds per node, endpoint + weight + prob per arc),
  // so local and distributed counts agree. Not the frame size (WireTraffic).
  size_t LedgerBytes() const {
    return core::kActiveNodeRecordBytes +
           (num_out_arcs() + num_in_arcs()) * core::kActiveArcRecordBytes;
  }
};

// Wire-level traffic actually put on (or read off) a socket by a networked
// record source, as opposed to the simulated record-byte accounting of
// NodeRecord::LedgerBytes. All zero for in-process sources: the loopback
// Cluster moves no wire bytes, which is exactly what the Sect. V-B traffic
// tables should show for it (bench_fig13_growth reports both columns).
struct WireTraffic {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t retries = 0;     // re-sent attempts after timeout/transport loss
  uint64_t reconnects = 0;  // connection (re-)establishments
  uint64_t timeouts = 0;    // attempts abandoned at the per-request timeout
  uint64_t sheds = 0;       // fetches refused by per-peer backpressure

  WireTraffic& operator+=(const WireTraffic& other) {
    frames_sent += other.frames_sent;
    frames_received += other.frames_received;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    retries += other.retries;
    reconnects += other.reconnects;
    timeouts += other.timeouts;
    sheds += other.sheds;
    return *this;
  }
};

// The record-fetch contract an Aggregation Processor consumes: one batched
// request in, one NodeRecord per requested node out, in request order.
// Implemented in-process by GraphProcessor (the loopback tier) and over TCP
// by net::RemoteGraphProcessor (the networked tier) — DistributedTopK only
// ever talks to this interface, so the two tiers are interchangeable under
// the same stripe layout.
//
// Thread safety: implementations must allow concurrent Fetch calls (the
// serving layer issues fetches from several worker threads).
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  // Serves one batched request: appends a record per requested node to
  // `out`, in request order. Every node must be owned by this source's
  // shard. Each record carries its own keep-alive (NodeRecord::storage),
  // so it stays valid after this source is destroyed. On failure `out` and
  // the counters below are unchanged.
  virtual Status Fetch(const std::vector<NodeId>& nodes,
                       std::vector<NodeRecord>* out) const = 0;

  // Cumulative record-level traffic served through this source.
  virtual uint64_t fetch_requests() const = 0;
  virtual uint64_t records_served() const = 0;
  virtual uint64_t bytes_served() const = 0;

  // Cumulative wire-level traffic; all-zero for in-process sources.
  virtual WireTraffic wire() const { return WireTraffic{}; }
};

// A graph processor serving one stripe of the node set (node v belongs to
// GP v mod num_gps) out of the pinned graph generation it shares with the
// AP: it holds the graph's shared_ptr, not a copy of its stripe, and serves
// batched record fetches as views into the graph's columns.
//
// Thread safety: immutable after construction except the traffic counters;
// Fetch and the accessors are const and may be called concurrently (the
// serving layer issues fetches from several worker threads against one
// cluster).
class GraphProcessor : public RecordSource {
 public:
  // Serves the stripe of `graph` owned by processor `id` out of `num_gps`.
  // Requires a non-null graph and 0 <= id < num_gps (CHECK-enforced).
  GraphProcessor(std::shared_ptr<const Graph> graph, int id, int num_gps);

  int id() const { return id_; }
  // Owned nodes are id, id+num_gps, ... below the graph's node count.
  size_t num_owned_nodes() const;
  // Size of this stripe as a stand-alone CSR (owned ids, two offsets
  // arrays, three columns per direction), the per-GP series of Fig. 12.
  size_t stored_bytes() const { return stored_bytes_; }

  bool Owns(NodeId v) const { return v % num_gps_ == static_cast<NodeId>(id_); }

  // RecordSource::Fetch: every node in `nodes` must be owned by this GP.
  // The records view the graph's columns and share its ownership: no arc
  // is copied, and a warm `out` makes the call allocation-free.
  Status Fetch(const std::vector<NodeId>& nodes,
               std::vector<NodeRecord>* out) const override;

  // Cumulative traffic served by this GP since construction (the per-shard
  // series net-tier backpressure and the serve metrics read). A serving
  // layer that restripes per generation must accumulate these before
  // dropping the cluster (serve::QueryService does).
  uint64_t fetch_requests() const override { return fetch_requests_.value(); }
  uint64_t records_served() const override { return records_served_.value(); }
  uint64_t bytes_served() const override { return bytes_served_.value(); }

 private:
  // The served generation; also every record's keep-alive.
  std::shared_ptr<const Graph> graph_;
  int id_ = 0;
  int num_gps_ = 1;
  size_t stored_bytes_ = 0;
  // Served-traffic counters; mutable because Fetch is logically const.
  mutable obs::Counter fetch_requests_;
  mutable obs::Counter records_served_;
  mutable obs::Counter bytes_served_;
};

// A set of record sources jointly serving one generation of one graph,
// nodes striped round-robin (shard i serves stripe i of num_gps()). Every
// shard is a RecordSource: an in-process GraphProcessor (loopback) or a
// net::RemoteGraphProcessor (TCP), and nothing past construction tells the
// two apart. The cluster also keeps the full graph for the AP-side
// algorithm run (in a real deployment the AP holds only the active set;
// the simulation cross-checks that the GP responses reconstruct it
// exactly).
//
// Ownership: the cluster shares ownership of its graph generation via
// shared_ptr — there is no "must outlive" contract, and a live-updating
// service (serve::QueryService over a graph::GraphStore) rebuilds a fresh
// Cluster per published generation while in-flight queries drain on the
// old one.
class Cluster {
 public:
  // Loopback cluster: stripes `graph` across num_gps in-process
  // GraphProcessors. Requires a non-null graph and num_gps >= 1
  // (CHECK-enforced). `generation` tags which graph generation the shards
  // were built from.
  Cluster(std::shared_ptr<const Graph> graph, int num_gps,
          uint64_t generation = 0);

  // The AP-side graph plus one non-null RecordSource per shard (shard i
  // must serve stripe i of sources.size() — e.g. a
  // net::RemoteGraphProcessor whose handshake verified exactly that).
  Cluster(std::shared_ptr<const Graph> graph,
          std::vector<std::unique_ptr<RecordSource>> sources,
          uint64_t generation = 0);

  int num_gps() const { return static_cast<int>(sources_.size()); }
  // The record source for shard `gp`.
  const RecordSource& source(int gp) const;
  const Graph& graph() const { return *graph_; }
  const std::shared_ptr<const Graph>& graph_ptr() const { return graph_; }
  // Generation of the striped graph (graph/store.h).
  uint64_t generation() const { return generation_; }

  // GP owning node v.
  int OwnerOf(NodeId v) const {
    return static_cast<int>(v % static_cast<NodeId>(num_gps()));
  }

  // Sum of the in-process GPs' stored bytes — the cluster-wide snapshot
  // size — for a loopback cluster; 0 for one built from sources (the
  // stripes live wherever those sources serve them).
  size_t total_stored_bytes() const { return total_stored_bytes_; }

  // Per-shard and cluster-wide traffic since construction
  // (serve::QueryService's rtr_dist_* and rtr_net_* callbacks read these).
  uint64_t fetch_requests(int gp) const { return source(gp).fetch_requests(); }
  uint64_t records_served(int gp) const { return source(gp).records_served(); }
  uint64_t bytes_served(int gp) const { return source(gp).bytes_served(); }
  WireTraffic wire(int gp) const { return source(gp).wire(); }
  uint64_t total_fetch_requests() const;
  uint64_t total_records_served() const;
  uint64_t total_bytes_served() const;
  WireTraffic total_wire() const;

 private:
  std::shared_ptr<const Graph> graph_;
  uint64_t generation_ = 0;
  std::vector<std::unique_ptr<RecordSource>> sources_;
  size_t total_stored_bytes_ = 0;
};

struct DistributedTopKResult {
  core::TopKResult topk;
  // End-to-end AP wall time for the query, including GP fetches.
  double query_millis = 0.0;
  // Active-set economics (Sect. V-B1), measured from the GP responses.
  size_t active_nodes = 0;
  size_t active_set_bytes = 0;
  // Batched GP fetches issued by the AP for this query.
  size_t requests_sent = 0;
};

// Maximum node records per GP request; the AP splits larger fetches into
// multiple requests (message-size cap of the AP/GP protocol).
inline constexpr size_t kMaxRecordsPerRequest = 256;

// Answers a top-K RoundTripRank query on the clustered graph: runs 2SBound
// on the AP, replays its active set (TopKResult::active_node_ids) through
// batched per-GP fetches, verifies the responses reconstruct the active
// nodes' adjacency exactly, and reports the measured traffic.
//
// Thread safety: the cluster is only read and all per-query state is local,
// so concurrent calls over one Cluster are safe (see core/twosbound.h for
// the underlying engine's guarantee).
//
// `workspace` is the AP's per-query arena for the embedded 2SBound run,
// borrowed from the caller; it must not be used from two threads at once.
StatusOr<DistributedTopKResult> DistributedTopK(
    const Cluster& cluster, const Query& query,
    const core::TopKParams& params, core::QueryWorkspace& workspace);

}  // namespace rtr::dist

#endif  // RTR_DIST_DISTRIBUTED_TOPK_H_
