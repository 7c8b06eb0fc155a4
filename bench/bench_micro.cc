// Kernel microbenchmarks (google-benchmark): the building blocks behind the
// paper's query times — CSR construction, power iteration, BCA pushes,
// Stage-II refinement sweeps, and end-to-end 2SBound, plus the
// workspace-arena variants of the online path (DESIGN.md §7).
//
// The binary doubles as the allocation-regression gate: alloc_counter.h
// interposes global operator new, and main() exits non-zero if a
// steady-state 2SBound query on a warm QueryWorkspace performs any heap
// allocation, if a warm GP record fetch allocates, or if decoding a fetch
// reply allocates per record (the bench-smoke CI job runs this at 1 and 4
// threads; ctest's bench_micro_alloc_audit runs the audits alone).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_common.h"
#include "core/bca.h"
#include "core/two_stage.h"
#include "core/twosbound.h"
#include "core/workspace.h"
#include "datasets/qlog.h"
#include "dist/distributed_topk.h"
#include "obs/trace.h"
#include "graph/builder.h"
#include "graph/snapshot.h"
#include "net/frame.h"
#include "ranking/pagerank.h"
#include "util/dense_kernels.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace {

using rtr::Graph;
using rtr::GraphBuilder;
using rtr::NodeId;

Graph MakeGraph(size_t n, size_t extra_edges, uint64_t seed) {
  rtr::Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddUndirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

const Graph& SharedGraph() {
  // Snapshot-cached under RTR_SNAPSHOT_DIR so repeated bench runs skip the
  // builder (see bench_common.h).
  static const Graph* graph = new Graph(rtr::bench::LoadOrBuildGraph(
      "bench_micro_n20000_e80000_s7", [] { return MakeGraph(20000, 80000, 7); }));
  return *graph;
}

void BM_GraphBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Graph g = MakeGraph(n, n * 4, 11);
    benchmark::DoNotOptimize(g.num_arcs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * 10));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(10000);

void BM_FRankPowerIteration(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::ranking::WalkParams params;
  params.tolerance = 1e-10;
  for (auto _ : state) {
    std::vector<double> f = rtr::ranking::FRank(g, {0}, params);
    benchmark::DoNotOptimize(f.data());
  }
  state.counters["threads"] = rtr::util::NumThreads();
}
BENCHMARK(BM_FRankPowerIteration);

void BM_TRankPowerIteration(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::ranking::WalkParams params;
  params.tolerance = 1e-10;
  for (auto _ : state) {
    std::vector<double> t = rtr::ranking::TRank(g, {0}, params);
    benchmark::DoNotOptimize(t.data());
  }
  state.counters["threads"] = rtr::util::NumThreads();
}
BENCHMARK(BM_TRankPowerIteration);

// The gather-multiply-accumulate kernel itself, over the shared graph's
// whole in-column per iteration.
void BM_GatherDot(benchmark::State& state) {
  const Graph& g = SharedGraph();
  std::vector<double> x(g.num_nodes(), 1.0);
  const uint32_t* idx = g.in_sources().data();
  const double* probs = g.in_probs().data();
  const size_t n = g.in_sources().size();
  for (auto _ : state) {
    double sum = rtr::util::GatherDot(idx, probs, n, x.data());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GatherDot);

void BM_BcaProcessBest(benchmark::State& state) {
  const Graph& g = SharedGraph();
  for (auto _ : state) {
    rtr::core::QueryWorkspace ws;  // fresh per iteration: the cold arena
    ws.BeginQuery(g.num_nodes());
    rtr::core::Bca bca(g, {0}, 0.25, ws);
    for (int round = 0; round < 20; ++round) {
      if (bca.ProcessBest(100) == 0) break;
    }
    benchmark::DoNotOptimize(bca.total_residual());
  }
}
BENCHMARK(BM_BcaProcessBest);

// Same BCA work through a reused workspace: isolates the arena's win over
// per-query construction of the dense arrays and heaps.
void BM_BcaProcessBestWorkspace(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::core::QueryWorkspace ws;
  for (auto _ : state) {
    ws.BeginQuery(g.num_nodes());
    rtr::core::Bca bca(g, {0}, 0.25, ws);
    for (int round = 0; round < 20; ++round) {
      if (bca.ProcessBest(100) == 0) break;
    }
    benchmark::DoNotOptimize(bca.total_residual());
  }
}
BENCHMARK(BM_BcaProcessBestWorkspace);

void BM_FBounderExpandRefine(benchmark::State& state) {
  const Graph& g = SharedGraph();
  const bool stage2 = state.range(0) != 0;
  for (auto _ : state) {
    rtr::core::FBounderOptions options;
    options.stage2 = stage2;
    rtr::core::QueryWorkspace ws;
    ws.BeginQuery(g.num_nodes());
    rtr::core::FRankBounder bounder(g, {0}, options, ws);
    for (int round = 0; round < 10; ++round) {
      if (!bounder.ExpandAndRefine()) break;
    }
    benchmark::DoNotOptimize(bounder.UnseenUpper());
  }
}
BENCHMARK(BM_FBounderExpandRefine)->Arg(0)->Arg(1);

void BM_TBounderExpandRefine(benchmark::State& state) {
  const Graph& g = SharedGraph();
  for (auto _ : state) {
    rtr::core::TBounderOptions options;
    rtr::core::QueryWorkspace ws;
    ws.BeginQuery(g.num_nodes());
    rtr::core::TRankBounder bounder(g, {0}, options, ws);
    for (int round = 0; round < 10; ++round) {
      if (!bounder.ExpandAndRefine()) break;
    }
    benchmark::DoNotOptimize(bounder.UnseenUpper());
  }
}
BENCHMARK(BM_TBounderExpandRefine);

void BM_TopK2SBound(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01 * static_cast<double>(state.range(0));
  NodeId q = 0;
  for (auto _ : state) {
    rtr::core::QueryWorkspace ws;  // fresh per query: the cold arena
    rtr::core::TopKResult result;
    rtr::Status status = rtr::core::TopKRoundTripRank(g, {q}, params, ws,
                                                      &result);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(result.entries.size());
    q = (q + 37) % static_cast<NodeId>(g.num_nodes());
  }
}
BENCHMARK(BM_TopK2SBound)->Arg(1)->Arg(3);

// The serving hot path: reused workspace AND result buffers. Reports
// allocations per query — after warm-up this must be (and on fixed query
// streams is asserted by main() to be) zero.
void BM_TopK2SBoundWorkspace(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01 * static_cast<double>(state.range(0));
  rtr::core::QueryWorkspace ws;
  rtr::core::TopKResult result;
  rtr::Query query(1);  // reused: the engine never copies the query
  // Warm the arena and the result capacity on the query rotation.
  query[0] = 0;
  for (int warm = 0; warm < 8; ++warm) {
    (void)rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
    query[0] = (query[0] + 37) % static_cast<NodeId>(g.num_nodes());
  }
  const uint64_t allocs_before = rtr::bench::AllocCount();
  uint64_t iterations = 0;
  query[0] = 0;
  for (auto _ : state) {
    rtr::Status status =
        rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(result.entries.size());
    query[0] = (query[0] + 37) % static_cast<NodeId>(g.num_nodes());
    ++iterations;
  }
  state.counters["allocs_per_query"] =
      iterations == 0
          ? 0.0
          : static_cast<double>(rtr::bench::AllocCount() - allocs_before) /
                static_cast<double>(iterations);
}
BENCHMARK(BM_TopK2SBoundWorkspace)->Arg(1)->Arg(3);

// The serving hot path with a TraceRecorder attached (DESIGN.md §9): the
// engine reads the clock at its geometric check boundaries instead of per
// round, so the traced run should stay within a few percent of the
// untraced one — BENCH_topk.json records both. With the recorder detached
// the engine's only extra work is one pointer test per boundary, which is
// below benchmark noise.
void BM_TopK2SBoundWorkspaceTraced(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01 * static_cast<double>(state.range(0));
  rtr::core::QueryWorkspace ws;
  rtr::obs::TraceRecorder trace;
  ws.trace = &trace;
  rtr::core::TopKResult result;
  rtr::Query query(1);
  query[0] = 0;
  int64_t query_id = 0;
  for (auto _ : state) {
    trace.BeginQuery(query_id++);
    rtr::Status status =
        rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(trace.spans().size());
    query[0] = (query[0] + 37) % static_cast<NodeId>(g.num_nodes());
  }
}
BENCHMARK(BM_TopK2SBoundWorkspaceTraced)->Arg(1)->Arg(3);

// The exact baseline (kNaive = full FRank/TRank power iteration): the
// dense path the parallel kernels accelerate. The bench-smoke CI job runs
// this at RTR_NUM_THREADS=1 and 4 and reports the speedup.
void BM_TopKNaiveExact(benchmark::State& state) {
  const Graph& g = SharedGraph();
  rtr::core::TopKParams params;
  params.k = 10;
  params.scheme = rtr::core::TopKScheme::kNaive;
  rtr::core::QueryWorkspace ws;
  rtr::core::TopKResult result;
  NodeId q = 0;
  for (auto _ : state) {
    rtr::Status status =
        rtr::core::TopKRoundTripRank(g, {q}, params, ws, &result);
    benchmark::DoNotOptimize(status.ok());
    q = (q + 37) % static_cast<NodeId>(g.num_nodes());
  }
  state.counters["threads"] = rtr::util::NumThreads();
}
BENCHMARK(BM_TopKNaiveExact);

// The dist-live restripe (DESIGN.md §4): a loopback Cluster of 3 GPs over
// the default QLog graph (17420 nodes, 47932 arcs), the graph perfbench
// serves. A dist-live service pays this once per published generation.
void BM_ClusterRestripe(benchmark::State& state) {
  static const auto* graph = [] {
    rtr::StatusOr<rtr::datasets::QLog> log =
        rtr::datasets::QLog::Generate(rtr::datasets::QLogConfig{});
    CHECK(log.ok()) << log.status().ToString();
    return new std::shared_ptr<const Graph>(
        std::make_shared<const Graph>(log->graph()));
  }();
  for (auto _ : state) {
    const rtr::dist::Cluster cluster(*graph, 3);
    benchmark::DoNotOptimize(cluster.total_stored_bytes());
  }
}
BENCHMARK(BM_ClusterRestripe)->Unit(benchmark::kMicrosecond);

// Steady-state allocation audit (the CI gate). Runs a fixed query set once
// to warm the arena, then replays it and demands zero operator-new calls.
// Audited on built AND mapped graphs: the span accessors must not hide an
// allocation on the zero-copy path either.
bool AuditSteadyStateAllocsOn(const Graph& g, const char* label) {
  rtr::core::TopKParams params;
  params.k = 10;
  rtr::core::QueryWorkspace ws;
  rtr::core::TopKResult result;
  const NodeId queries[] = {1, 37, 404, 1029, 1777};
  rtr::Query query(1);  // reused: the engine never copies the query
  for (NodeId q : queries) {
    query[0] = q;
    rtr::Status status =
        rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "alloc audit: warm-up query failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
  }
  const uint64_t before = rtr::bench::AllocCount();
  for (NodeId q : queries) {
    query[0] = q;
    (void)rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
  }
  const uint64_t allocs = rtr::bench::AllocCount() - before;
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state 2SBound (%s graph) made %llu heap "
                 "allocations over %zu queries (expected 0)\n",
                 label, static_cast<unsigned long long>(allocs),
                 sizeof(queries) / sizeof(queries[0]));
    return false;
  }
  std::printf(
      "alloc audit: steady-state 2SBound allocs/query = 0 (%s graph) [OK]\n",
      label);
  return true;
}

bool AuditSteadyStateAllocs() {
  const Graph g = MakeGraph(2000, 8000, 13);
  if (!AuditSteadyStateAllocsOn(g, "built")) return false;

  // Same audit over the zero-copy loader's file-backed columns.
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "rtr_bench_micro_alloc_audit.rtrsnap";
  if (!rtr::SaveGraphSnapshotToFile(g, path.string()).ok()) {
    std::fprintf(stderr, "alloc audit: cannot write snapshot\n");
    return false;
  }
  rtr::StatusOr<Graph> mapped = rtr::LoadGraphMapped(path.string());
  if (!mapped.ok()) {
    // No mmap on this platform: the built-graph audit already passed.
    std::printf("alloc audit: mapped-graph leg skipped (%s)\n",
                mapped.status().ToString().c_str());
    return true;
  }
  return AuditSteadyStateAllocsOn(*mapped, "mapped");
}

// Fetch-path allocation audit (the AP<->GP leg, DESIGN.md §4/§12). A warm
// GraphProcessor::Fetch into a reused vector must make no allocation: its
// records view the graph. DecodeFetchReply must make the same number of
// allocations per reply whatever its record count: one shared column block
// per reply, none per record.
bool AuditFetchAllocs() {
  const auto graph = std::make_shared<const Graph>(MakeGraph(2000, 8000, 13));
  const Graph& g = *graph;
  const rtr::dist::GraphProcessor gp(graph, 0, 1);
  std::vector<NodeId> batch(rtr::dist::kMaxRecordsPerRequest);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<NodeId>(i * 7 % g.num_nodes());
  }
  std::vector<rtr::dist::NodeRecord> records;
  if (!gp.Fetch(batch, &records).ok()) {
    std::fprintf(stderr, "alloc audit: warm-up fetch failed\n");
    return false;
  }
  records.clear();
  uint64_t before = rtr::bench::AllocCount();
  (void)gp.Fetch(batch, &records);
  const uint64_t fetch_allocs = rtr::bench::AllocCount() - before;
  if (fetch_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm GraphProcessor::Fetch of %zu nodes made %llu "
                 "heap allocations (expected 0)\n",
                 batch.size(), static_cast<unsigned long long>(fetch_allocs));
    return false;
  }
  std::printf("alloc audit: warm GraphProcessor::Fetch allocs = 0 [OK]\n");

  std::vector<uint8_t> payload;
  std::vector<rtr::dist::NodeRecord> decoded;
  decoded.reserve(records.size());
  uint64_t per_reply = 0;
  for (size_t n : {size_t{1}, size_t{16}, records.size()}) {
    rtr::net::EncodeFetchReply(
        std::span<const rtr::dist::NodeRecord>(records.data(), n), &payload);
    decoded.clear();
    before = rtr::bench::AllocCount();
    const rtr::Status status = rtr::net::DecodeFetchReply(payload, &decoded);
    const uint64_t allocs = rtr::bench::AllocCount() - before;
    if (!status.ok() || decoded.size() != n) {
      std::fprintf(stderr, "alloc audit: decode of %zu records failed\n", n);
      return false;
    }
    if (n == 1) per_reply = allocs;
    if (allocs != per_reply) {
      std::fprintf(stderr,
                   "FAIL: DecodeFetchReply made %llu allocations for %zu "
                   "records but %llu for 1 (expected a constant per reply)\n",
                   static_cast<unsigned long long>(allocs), n,
                   static_cast<unsigned long long>(per_reply));
      return false;
    }
  }
  std::printf("alloc audit: DecodeFetchReply allocs/reply = %llu for 1, 16 "
              "and %zu records [OK]\n",
              static_cast<unsigned long long>(per_reply), records.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // The audit runs after the benchmarks so a filtered run (e.g. CI's
  // --benchmark_filter) still enforces the zero-allocation contract.
  const bool engine_ok = AuditSteadyStateAllocs();
  const bool fetch_ok = AuditFetchAllocs();
  return engine_ok && fetch_ok ? 0 : 1;
}
