#include "dist/distributed_topk.h"

#include <algorithm>
#include <string>
#include <utility>

#include "graph/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rtr::dist {

GraphProcessor::GraphProcessor(const Graph& g, int id, int num_gps)
    : id_(id), num_gps_(num_gps) {
  CHECK_GE(id, 0);
  CHECK_LT(id, num_gps);
  for (NodeId v = static_cast<NodeId>(id); v < g.num_nodes();
       v += static_cast<NodeId>(num_gps)) {
    owned_nodes_.push_back(v);
  }
  auto stripe = std::make_shared<Stripe>();
  stripe->out_offsets.reserve(owned_nodes_.size() + 1);
  stripe->in_offsets.reserve(owned_nodes_.size() + 1);
  stripe->out_offsets.push_back(0);
  stripe->in_offsets.push_back(0);
  auto append = [](auto* column, auto span) {
    column->insert(column->end(), span.begin(), span.end());
  };
  for (NodeId v : owned_nodes_) {
    append(&stripe->out_targets, g.out_targets(v));
    append(&stripe->out_weights, g.out_arc_weights(v));
    append(&stripe->out_probs, g.out_probs(v));
    stripe->out_offsets.push_back(stripe->out_targets.size());
    append(&stripe->in_sources, g.in_sources(v));
    append(&stripe->in_weights, g.in_arc_weights(v));
    append(&stripe->in_probs, g.in_probs(v));
    stripe->in_offsets.push_back(stripe->in_sources.size());
  }
  stored_bytes_ =
      owned_nodes_.size() * sizeof(NodeId) +
      (stripe->out_offsets.size() + stripe->in_offsets.size()) *
          sizeof(size_t) +
      (stripe->out_targets.size() + stripe->in_sources.size()) *
          (sizeof(NodeId) + 2 * sizeof(double));
  stripe_ = std::move(stripe);
}

Status GraphProcessor::Fetch(const std::vector<NodeId>& nodes,
                             std::vector<NodeRecord>* out) const {
  fetch_requests_.Add(1);
  out->reserve(out->size() + nodes.size());
  const Stripe& s = *stripe_;
  for (NodeId v : nodes) {
    if (!Owns(v)) {
      return Status::InvalidArgument("GP " + std::to_string(id_) +
                                     " does not own node " +
                                     std::to_string(v));
    }
    // Owned nodes are the arithmetic progression id, id+num_gps, ...; the
    // stripe-local index is therefore direct, no search needed.
    size_t i = (v - static_cast<NodeId>(id_)) / static_cast<NodeId>(num_gps_);
    if (i >= owned_nodes_.size()) {
      return Status::OutOfRange("node " + std::to_string(v) +
                                " beyond GP " + std::to_string(id_) +
                                "'s stripe");
    }
    const size_t out_begin = s.out_offsets[i];
    const size_t n_out = s.out_offsets[i + 1] - out_begin;
    const size_t in_begin = s.in_offsets[i];
    const size_t n_in = s.in_offsets[i + 1] - in_begin;
    NodeRecord& record = out->emplace_back();
    record.node = v;
    record.out_targets = {s.out_targets.data() + out_begin, n_out};
    record.out_weights = {s.out_weights.data() + out_begin, n_out};
    record.out_probs = {s.out_probs.data() + out_begin, n_out};
    record.in_sources = {s.in_sources.data() + in_begin, n_in};
    record.in_weights = {s.in_weights.data() + in_begin, n_in};
    record.in_probs = {s.in_probs.data() + in_begin, n_in};
    record.storage = stripe_;
    records_served_.Add(1);
    bytes_served_.Add(record.WireBytes());
  }
  return Status::OK();
}

Cluster::Cluster(std::shared_ptr<const Graph> graph, int num_gps,
                 uint64_t generation)
    : graph_(std::move(graph)), generation_(generation) {
  CHECK(graph_ != nullptr) << "a cluster needs a graph";
  CHECK_GE(num_gps, 1) << "a cluster needs at least one graph processor";
  gps_.reserve(static_cast<size_t>(num_gps));
  for (int id = 0; id < num_gps; ++id) {
    gps_.emplace_back(*graph_, id, num_gps);
    total_stored_bytes_ += gps_.back().stored_bytes();
  }
}

Cluster::Cluster(std::shared_ptr<const Graph> graph,
                 std::vector<std::unique_ptr<RecordSource>> sources,
                 uint64_t generation)
    : graph_(std::move(graph)),
      generation_(generation),
      sources_(std::move(sources)) {
  CHECK(graph_ != nullptr) << "a cluster needs a graph";
  CHECK_GE(sources_.size(), 1u) << "a remote cluster needs record sources";
  for (const std::unique_ptr<RecordSource>& source : sources_) {
    CHECK(source != nullptr) << "remote cluster sources must be non-null";
  }
}

const RecordSource& Cluster::source(int gp) const {
  CHECK_GE(gp, 0);
  CHECK_LT(gp, num_gps());
  if (remote()) return *sources_[static_cast<size_t>(gp)];
  return gps_[static_cast<size_t>(gp)];
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

StatusOr<std::unique_ptr<Cluster>> Cluster::FromGraphFile(
    const std::string& path, int num_gps, MapMode map_mode) {
  uint64_t generation = 0;
  StatusOr<Graph> loaded = LoadGraphAuto(path, &generation, map_mode);
  RTR_RETURN_IF_ERROR(loaded.status());
  return std::make_unique<Cluster>(
      std::make_shared<const Graph>(std::move(loaded).value()), num_gps,
      generation);
}

namespace {

// Cross-checks one GP response record against the AP-side graph; any
// divergence means the shard storage or the fetch path is corrupt.
Status ValidateRecord(const Graph& g, const NodeRecord& record) {
  auto equal = [](const auto& got, auto want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  };
  bool ok = equal(record.out_targets, g.out_targets(record.node)) &&
            equal(record.out_weights, g.out_arc_weights(record.node)) &&
            equal(record.out_probs, g.out_probs(record.node)) &&
            equal(record.in_sources, g.in_sources(record.node)) &&
            equal(record.in_weights, g.in_arc_weights(record.node)) &&
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
        result.active_set_bytes += record.WireBytes();
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
