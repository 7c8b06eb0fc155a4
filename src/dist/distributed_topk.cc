#include "dist/distributed_topk.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace rtr::dist {

GraphProcessor::GraphProcessor(std::shared_ptr<const Graph> graph, int id,
                               int num_gps)
    : graph_(std::move(graph)), id_(id), num_gps_(num_gps) {
  CHECK(graph_ != nullptr) << "a graph processor needs a graph";
  CHECK_GE(id, 0);
  CHECK_LT(id, num_gps);
  // The stripe as a stand-alone three-column CSR, the Figs. 12-13 unit
  // (DESIGN §4), not how this process shares it or what a reply ships.
  size_t arcs = 0;
  for (NodeId v = static_cast<NodeId>(id); v < graph_->num_nodes();
       v += static_cast<NodeId>(num_gps)) {
    arcs += graph_->out_degree(v) + graph_->in_degree(v);
  }
  const size_t owned = num_owned_nodes();
  stored_bytes_ = owned * sizeof(NodeId) + 2 * (owned + 1) * sizeof(size_t) +
                  arcs * (sizeof(NodeId) + 2 * sizeof(double));
}

size_t GraphProcessor::num_owned_nodes() const {
  const size_t n = graph_->num_nodes();
  const size_t id = static_cast<size_t>(id_);
  return n > id ? (n - id - 1) / static_cast<size_t>(num_gps_) + 1 : 0;
}

Status GraphProcessor::Fetch(const std::vector<NodeId>& nodes,
                             std::vector<NodeRecord>* out) const {
  const size_t before = out->size();
  auto fail = [out, before](Status status) {
    out->resize(before);
    return status;
  };
  out->reserve(before + nodes.size());
  const Graph& g = *graph_;
  uint64_t record_bytes = 0;
  for (NodeId v : nodes) {
    if (!Owns(v)) {
      return fail(Status::InvalidArgument("GP " + std::to_string(id_) +
                                          " does not own node " +
                                          std::to_string(v)));
    }
    if (v >= g.num_nodes()) {
      return fail(Status::OutOfRange("node " + std::to_string(v) +
                                     " beyond GP " + std::to_string(id_) +
                                     "'s stripe"));
    }
    NodeRecord& record = out->emplace_back();
    record.node = v;
    record.out_targets = g.out_targets(v);
    record.out_probs = g.out_probs(v);
    record.in_sources = g.in_sources(v);
    record.in_probs = g.in_probs(v);
    record.storage = graph_;
    record_bytes += record.LedgerBytes();
  }
  fetch_requests_.Increment();
  records_served_.Add(nodes.size());
  bytes_served_.Add(record_bytes);
  return Status::OK();
}

namespace {

// The shards of Cluster(graph, num_gps): GP i serves stripe i of num_gps.
std::vector<std::unique_ptr<RecordSource>> StripeAcross(
    const std::shared_ptr<const Graph>& graph, int num_gps) {
  CHECK(graph != nullptr) << "a cluster needs a graph";
  CHECK_GE(num_gps, 1) << "a cluster needs at least one graph processor";
  std::vector<std::unique_ptr<RecordSource>> gps;
  gps.reserve(static_cast<size_t>(num_gps));
  for (int id = 0; id < num_gps; ++id) {
    gps.push_back(std::make_unique<GraphProcessor>(graph, id, num_gps));
  }
  return gps;
}

}  // namespace

Cluster::Cluster(std::shared_ptr<const Graph> graph, int num_gps,
                 uint64_t generation)
    : Cluster(graph, StripeAcross(graph, num_gps), generation) {
  // Every shard is a GraphProcessor StripeAcross just built.
  for (const std::unique_ptr<RecordSource>& gp : sources_) {
    total_stored_bytes_ +=
        static_cast<const GraphProcessor&>(*gp).stored_bytes();
  }
}

Cluster::Cluster(std::shared_ptr<const Graph> graph,
                 std::vector<std::unique_ptr<RecordSource>> sources,
                 uint64_t generation)
    : graph_(std::move(graph)),
      generation_(generation),
      sources_(std::move(sources)) {
  CHECK(graph_ != nullptr) << "a cluster needs a graph";
  CHECK_GE(sources_.size(), 1u) << "a cluster needs record sources";
  for (const std::unique_ptr<RecordSource>& source : sources_) {
    CHECK(source != nullptr) << "cluster sources must be non-null";
  }
}

const RecordSource& Cluster::source(int gp) const {
  CHECK_GE(gp, 0);
  CHECK_LT(gp, num_gps());
  return *sources_[static_cast<size_t>(gp)];
}

uint64_t Cluster::total_fetch_requests() const {
  uint64_t total = 0;
  for (int gp = 0; gp < num_gps(); ++gp) total += fetch_requests(gp);
  return total;
}

uint64_t Cluster::total_records_served() const {
  uint64_t total = 0;
  for (int gp = 0; gp < num_gps(); ++gp) total += records_served(gp);
  return total;
}

uint64_t Cluster::total_bytes_served() const {
  uint64_t total = 0;
  for (int gp = 0; gp < num_gps(); ++gp) total += bytes_served(gp);
  return total;
}

WireTraffic Cluster::total_wire() const {
  WireTraffic total;
  for (int gp = 0; gp < num_gps(); ++gp) total += wire(gp);
  return total;
}

namespace {

// Cross-checks one GP response record against the AP-side graph; any
// divergence means the shard storage or the fetch path is corrupt. A
// loopback record views the AP's own columns, so there this checks only
// that the right node's spans were served; over TCP it checks the bytes
// that crossed the wire.
Status ValidateRecord(const Graph& g, const NodeRecord& record) {
  auto equal = [](const auto& got, auto want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  };
  bool ok = equal(record.out_targets, g.out_targets(record.node)) &&
            equal(record.out_probs, g.out_probs(record.node)) &&
            equal(record.in_sources, g.in_sources(record.node)) &&
            equal(record.in_probs, g.in_probs(record.node));
  if (!ok) {
    return Status::Internal("GP record for node " +
                            std::to_string(record.node) +
                            " does not match the graph");
  }
  return Status::OK();
}

}  // namespace

StatusOr<DistributedTopKResult> DistributedTopK(
    const Cluster& cluster, const Query& query,
    const core::TopKParams& params, core::QueryWorkspace& workspace) {
  const Graph& g = cluster.graph();
  WallTimer timer;

  if (params.scheme == core::TopKScheme::kNaive) {
    // kNaive touches the whole graph and reports no active_node_ids, so an
    // active-set replay would claim zero traffic for a full-graph scan.
    return Status::InvalidArgument(
        "kNaive has no active-set replay; use a bounded top-K scheme");
  }

  // The AP runs 2SBound; every node id in active_node_ids is a record it had
  // to pull from the owning GP while expanding the two neighborhoods.
  DistributedTopKResult result;
  RTR_RETURN_IF_ERROR(
      core::TopKRoundTripRank(g, query, params, workspace, &result.topk));
  const std::vector<NodeId>& active_node_ids = result.topk.active_node_ids;

  // Replay the active set as batched per-GP fetches.
  std::vector<std::vector<NodeId>> per_gp(
      static_cast<size_t>(cluster.num_gps()));
  for (NodeId v : active_node_ids) {
    per_gp[static_cast<size_t>(cluster.OwnerOf(v))].push_back(v);
  }

  std::vector<NodeRecord> active_records;  // the AP's assembled working set
  active_records.reserve(active_node_ids.size());
  std::vector<NodeId> batch;
  for (size_t gp = 0; gp < per_gp.size(); ++gp) {
    const std::vector<NodeId>& wanted = per_gp[gp];
    for (size_t begin = 0; begin < wanted.size();
         begin += kMaxRecordsPerRequest) {
      size_t end = std::min(begin + kMaxRecordsPerRequest, wanted.size());
      batch.assign(wanted.begin() + begin, wanted.begin() + end);
      size_t before = active_records.size();
      RTR_RETURN_IF_ERROR(
          cluster.source(static_cast<int>(gp)).Fetch(batch, &active_records));
      ++result.requests_sent;
      if (active_records.size() - before != batch.size()) {
        return Status::Internal("GP " + std::to_string(gp) + " served " +
                                std::to_string(active_records.size() -
                                               before) +
                                " records for a request of " +
                                std::to_string(batch.size()));
      }
      for (size_t j = 0; j < batch.size(); ++j) {
        const NodeRecord& record = active_records[before + j];
        if (record.node != batch[j]) {
          return Status::Internal("GP " + std::to_string(gp) +
                                  " served node " +
                                  std::to_string(record.node) +
                                  " where node " + std::to_string(batch[j]) +
                                  " was requested");
        }
        ++result.active_nodes;
        result.active_set_bytes += record.LedgerBytes();
      }
    }
  }

  if (result.active_nodes != active_node_ids.size()) {
    return Status::Internal("GP replay served " +
                            std::to_string(result.active_nodes) +
                            " records for an active set of " +
                            std::to_string(active_node_ids.size()));
  }
  // End of AP-visible work; the cross-check below exists only to keep the
  // simulation honest and stays outside the timed window.
  result.query_millis = timer.ElapsedMillis();

  for (const NodeRecord& record : active_records) {
    RTR_RETURN_IF_ERROR(ValidateRecord(g, record));
  }
  return result;
}

}  // namespace rtr::dist
