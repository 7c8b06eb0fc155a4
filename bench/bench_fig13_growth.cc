// Reproduces Fig. 13: rate of growth of snapshot size vs active-set size vs
// query time, each normalized by its value on the first snapshot. The
// paper's claim (Sect. V-B1): the active set — and hence query time — grows
// much slower than the graph, O(|V|^{2(a-1)}) vs O(|V|^a).
//
// Part two extends the experiment to LIVE growth (DESIGN.md §8): the same
// query stream is served twice from a serve::QueryService — once over a
// static base generation, once while a writer thread ingests deltas through
// GraphStore::Apply mid-stream — and the tail latencies are compared. The
// claim under test: RCU generation swaps keep ingestion off the query path,
// so p99 during ingestion stays within a small factor of the static p99.
//
// Environment knobs (beyond bench_common.h's):
//   RTR_INGEST_QUERIES — stream length per serving phase   (default 200)
//   RTR_INGEST_WORKERS — QueryService worker threads       (default 4)
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "dist/distributed_topk.h"
#include "eval/experiment.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/store.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "serve/query_service.h"
#include "snapshot_experiment.h"

namespace {

using rtr::Graph;
using rtr::GraphBuilder;
using rtr::GraphDelta;
using rtr::GraphStore;
using rtr::NodeId;
using rtr::bench::SnapshotPoint;
using rtr::eval::TablePrinter;

void PrintGrowth(const char* title,
                 const std::vector<SnapshotPoint>& points) {
  std::printf("\n%s (all series normalized to the first snapshot)\n", title);
  TablePrinter table(
      {"Timestamp", "snapshot", "active set", "query time"});
  const SnapshotPoint& base = points.front();
  for (const SnapshotPoint& point : points) {
    table.AddRow(
        {point.label,
         TablePrinter::FormatDouble(
             static_cast<double>(point.snapshot_bytes) / base.snapshot_bytes,
             2),
         TablePrinter::FormatDouble(
             point.active_set_mb.mean / base.active_set_mb.mean, 2),
         TablePrinter::FormatDouble(point.query_ms.mean / base.query_ms.mean,
                                    2)});
  }
  table.Print();
  double snapshot_growth = static_cast<double>(points.back().snapshot_bytes) /
                           base.snapshot_bytes;
  double active_growth =
      points.back().active_set_mb.mean / base.active_set_mb.mean;
  std::printf("  total growth: snapshot x%.1f, active set x%.1f -> active "
              "set grows %s\n",
              snapshot_growth, active_growth,
              active_growth < snapshot_growth ? "slower (as the paper finds)"
                                              : "NOT slower (unexpected)");
}

// --------------------------------------------------------------------------
// Live-ingestion experiment.
// --------------------------------------------------------------------------

// The id-stable prefix of `full` induced by its first `n` nodes: same node
// ids and types, arcs restricted to both endpoints < n. Year snapshots
// (Subgraph) renumber nodes, so they cannot feed DiffGraphs; prefix graphs
// model the same cumulative growth with arrival order = node id.
Graph PrefixGraph(const Graph& full, size_t n) {
  GraphBuilder b;
  // Type 0 ("untyped") is pre-registered by the builder.
  for (size_t t = 1; t < full.type_names().size(); ++t) {
    b.AddNodeType(full.type_names()[t]);
  }
  for (NodeId v = 0; v < n; ++v) b.AddNode(full.node_type(v));
  for (NodeId v = 0; v < n; ++v) {
    std::span<const NodeId> targets = full.out_targets(v);
    std::span<const double> weights = full.out_arc_weights(v);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] < n) b.AddDirectedEdge(v, targets[i], weights[i]);
    }
  }
  return b.Build().value();
}

struct PhaseResult {
  const char* phase;
  rtr::serve::ServiceStats stats;
  uint64_t swaps = 0;
};

// Serves `stream` through a QueryService over `store` with `num_workers`
// workers and the result cache on. When deltas are supplied, the stream is
// submitted in D+1 chunks with delta i applied (on this thread) between
// chunks i and i+1: the pool drains chunk i concurrently with the
// generation build, and every query submitted afterwards is served on the
// newly published generation.
PhaseResult RunServingPhase(const char* phase,
                            std::shared_ptr<GraphStore> store,
                            const std::vector<GraphDelta>& deltas,
                            const std::vector<NodeId>& stream,
                            const rtr::core::TopKParams& params,
                            int num_workers) {
  rtr::serve::ServiceOptions options;
  options.num_workers = num_workers;
  options.queue_capacity = stream.size();
  options.enable_cache = true;
  options.cache_capacity = 4096;
  rtr::serve::QueryService service(store, options);
  CHECK(service.Start().ok());

  const size_t num_chunks = deltas.size() + 1;
  const size_t chunk = (stream.size() + num_chunks - 1) / num_chunks;
  size_t submitted = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t end = std::min(stream.size(), (c + 1) * chunk);
    for (; submitted < end; ++submitted) {
      CHECK(service.SubmitAsync({{stream[submitted]}, params}, nullptr).ok());
    }
    if (c < deltas.size()) {
      rtr::StatusOr<uint64_t> gen = store->Apply(deltas[c]);
      CHECK(gen.ok()) << gen.status().ToString();
    }
  }
  service.Shutdown();
  return PhaseResult{phase, service.stats(), store->swap_count()};
}

void RunIngestionExperiment(int num_queries, int num_workers) {
  std::printf("\n(c) query p99 during ingestion — static generation vs "
              "deltas applied mid-stream\n");
  rtr::datasets::BibNet bibnet = rtr::bench::MakeFullBibNet();
  const Graph& full = bibnet.graph();

  // Five cumulative prefixes, 60%% -> 100%% of the node range; the last
  // four arrive as deltas during the ingestion phase.
  const double fractions[] = {0.6, 0.7, 0.8, 0.9, 1.0};
  std::vector<Graph> prefixes;
  for (double f : fractions) {
    prefixes.push_back(
        PrefixGraph(full, static_cast<size_t>(f * full.num_nodes())));
  }
  std::vector<GraphDelta> deltas;
  for (size_t i = 0; i + 1 < prefixes.size(); ++i) {
    rtr::StatusOr<GraphDelta> delta = DiffGraphs(prefixes[i], prefixes[i + 1]);
    CHECK(delta.ok()) << delta.status().ToString();
    delta->base_generation = i;
    deltas.push_back(std::move(delta).value());
  }
  const Graph& base = prefixes.front();
  std::printf("BibNet prefix growth: %zu -> %zu nodes over %zu deltas "
              "(%d queries per phase, %d workers)\n",
              base.num_nodes(), prefixes.back().num_nodes(), deltas.size(),
              num_queries, num_workers);

  // One fixed stream for both phases, repeated draws from a pool half the
  // stream's size (the realistic hit/miss skew of bench_serve_throughput).
  rtr::Rng rng(1700);
  std::vector<NodeId> pool;
  for (int i = 0; i < std::max(1, num_queries / 2); ++i) {
    NodeId q = rtr::bench::SampleQueryNode(base, rng);
    CHECK_NE(q, rtr::kInvalidNode) << "prefix graph has no query nodes";
    pool.push_back(q);
  }
  std::vector<NodeId> stream;
  for (int i = 0; i < num_queries; ++i) {
    stream.push_back(pool[static_cast<size_t>(rng.NextUint64(pool.size()))]);
  }
  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;

  PhaseResult static_phase = RunServingPhase(
      "static", std::make_shared<GraphStore>(PrefixGraph(full, base.num_nodes())),
      {}, stream, params, num_workers);
  PhaseResult ingest_phase = RunServingPhase(
      "ingestion",
      std::make_shared<GraphStore>(PrefixGraph(full, base.num_nodes())),
      deltas, stream, params, num_workers);

  TablePrinter table({"phase", "QPS", "p50 ms", "p95 ms", "p99 ms",
                      "generations", "cache invalidations"});
  for (const PhaseResult& r : {static_phase, ingest_phase}) {
    table.AddRow({r.phase, TablePrinter::FormatDouble(r.stats.qps, 1),
                  TablePrinter::FormatDouble(r.stats.p50_millis, 2),
                  TablePrinter::FormatDouble(r.stats.p95_millis, 2),
                  TablePrinter::FormatDouble(r.stats.p99_millis, 2),
                  std::to_string(r.stats.generation),
                  std::to_string(r.stats.cache_invalidations)});
  }
  table.Print();
  const double ratio =
      static_phase.stats.p99_millis > 0
          ? ingest_phase.stats.p99_millis / static_phase.stats.p99_millis
          : 0.0;
  std::printf("  ingestion p99 / static p99 = %.2fx (%llu generation swaps "
              "landed mid-stream)\n",
              ratio,
              static_cast<unsigned long long>(ingest_phase.swaps));
}

// --------------------------------------------------------------------------
// AP<->GP traffic: simulated record bytes vs actual wire bytes.
// --------------------------------------------------------------------------

// The paper's Sect. V-B cost model counts record bytes shipped from GPs to
// the AP. The networked tier ships those same records in checksummed frames
// over TCP, so the wire adds a measurable framing overhead. This experiment
// runs one query stream twice — over the in-process loopback cluster and
// over real gp-serve shards on localhost — and reports both ledgers side by
// side. The record-level columns must match exactly (the wire is invisible
// to the cost model); the wire column shows what the network really moved.
void RunWireTrafficExperiment(int num_queries, int num_gps) {
  std::printf("\n(d) AP<->GP traffic — simulated record bytes vs actual "
              "wire bytes (%d queries, %d GPs)\n",
              num_queries, num_gps);
  rtr::datasets::BibNet bibnet = rtr::bench::MakeFullBibNet();
  auto graph = std::make_shared<const Graph>(bibnet.graph());

  std::vector<std::unique_ptr<rtr::net::GpServer>> servers;
  std::vector<std::string> endpoints;
  for (int shard = 0; shard < num_gps; ++shard) {
    auto server = rtr::net::GpServer::Start(graph, shard, num_gps, 0);
    CHECK(server.ok()) << server.status().ToString();
    endpoints.push_back("127.0.0.1:" +
                        std::to_string((*server)->port()));
    servers.push_back(std::move(*server));
  }
  auto remote = rtr::net::ConnectRemoteCluster(graph, 0, endpoints);
  CHECK(remote.ok()) << remote.status().ToString();
  rtr::dist::Cluster loopback(graph, num_gps);

  rtr::Rng rng(1300);
  std::vector<NodeId> stream;
  for (int i = 0; i < num_queries; ++i) {
    stream.push_back(rtr::bench::SampleQueryNode(*graph, rng));
  }
  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;

  rtr::core::QueryWorkspace workspace;
  double loopback_ms = 0.0;
  double remote_ms = 0.0;
  for (NodeId q : stream) {
    rtr::WallTimer timer;
    CHECK(rtr::dist::DistributedTopK(loopback, {q}, params, workspace).ok());
    loopback_ms += timer.ElapsedMillis();
    timer = rtr::WallTimer();
    CHECK(rtr::dist::DistributedTopK(**remote, {q}, params, workspace).ok());
    remote_ms += timer.ElapsedMillis();
  }

  TablePrinter table({"GP", "fetches", "records", "simulated B",
                      "wire B (rx)", "wire/simulated", "frames", "retries"});
  uint64_t simulated_total = 0;
  for (int gp = 0; gp < num_gps; ++gp) {
    CHECK_EQ((*remote)->records_served(gp), loopback.records_served(gp));
    CHECK_EQ((*remote)->bytes_served(gp), loopback.bytes_served(gp));
    const uint64_t simulated = (*remote)->bytes_served(gp);
    simulated_total += simulated;
    rtr::dist::WireTraffic wire = (*remote)->wire(gp);
    table.AddRow(
        {std::to_string(gp), std::to_string((*remote)->fetch_requests(gp)),
         std::to_string((*remote)->records_served(gp)),
         std::to_string(simulated), std::to_string(wire.bytes_received),
         TablePrinter::FormatDouble(
             simulated > 0
                 ? static_cast<double>(wire.bytes_received) / simulated
                 : 0.0,
             3),
         std::to_string(wire.frames_received),
         std::to_string(wire.retries)});
  }
  table.Print();
  rtr::dist::WireTraffic wire = (*remote)->total_wire();
  std::printf("  totals: simulated %llu B, wire rx %llu B (x%.3f of the "
              "simulated ledger), wire tx %llu B\n",
              static_cast<unsigned long long>(simulated_total),
              static_cast<unsigned long long>(wire.bytes_received),
              simulated_total > 0
                  ? static_cast<double>(wire.bytes_received) / simulated_total
                  : 0.0,
              static_cast<unsigned long long>(wire.bytes_sent));
  std::printf("  latency: loopback %.2f ms/query, localhost TCP %.2f "
              "ms/query (x%.2f)\n",
              loopback_ms / num_queries, remote_ms / num_queries,
              loopback_ms > 0 ? remote_ms / loopback_ms : 0.0);
  for (std::unique_ptr<rtr::net::GpServer>& server : servers) server->Stop();
}

}  // namespace

int main() {
  rtr::bench::PrintBanner(
      "Fig. 13 — rate of growth: snapshot vs active set vs query time",
      "Derived from the Fig. 12 experiment; K = 10, eps = 0.01.");
  const int num_queries = rtr::bench::NumEfficiencyQueries();
  std::printf("%d queries per snapshot\n", num_queries);

  std::vector<SnapshotPoint> bibnet =
      rtr::bench::RunBibNetSnapshots(num_queries);
  PrintGrowth("(a) BibNet snapshots", bibnet);
  std::vector<SnapshotPoint> qlog = rtr::bench::RunQLogSnapshots(num_queries);
  PrintGrowth("(b) QLog snapshots", qlog);

  RunIngestionExperiment(rtr::bench::EnvInt("RTR_INGEST_QUERIES", 200),
                         rtr::bench::EnvInt("RTR_INGEST_WORKERS", 4));
  RunWireTrafficExperiment(rtr::bench::EnvInt("RTR_NET_QUERIES", 40),
                           rtr::bench::EnvInt("RTR_NET_GPS", 3));
  return 0;
}
