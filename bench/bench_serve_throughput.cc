// Throughput/tail-latency scaling of the concurrent serving subsystem
// (serve::QueryService): QPS and p50/p99 for 1/2/4/8 workers, result cache
// off/on, local engine vs. the distributed AP/GP replay, on the synthetic
// BibNet. Queries are submitted as fast as the admission queue accepts
// them, so QPS here is saturation throughput, not an offered load.
//
// A second scenario drives the service past saturation: FIFO capacity is
// measured closed-loop on a Zipf-skewed stream with the overload rows' own
// options (cache off, so every request runs the engine), then the same
// stream is offered open-loop at a multiple of that rate, FIFO admission vs
// the cost-model scheduler (serve/scheduler.h: SJF, and a deadline test
// that widens epsilon or sheds). The comparison metric is goodput —
// completions inside the SLO per second — plus tail latency and shed rate.
//
// Environment knobs (beyond bench_common.h's):
//   RTR_SERVE_QUERIES      — stream length per configuration    (default 240)
//   RTR_SERVE_PAPERS       — BibNet paper count                 (default 4000)
//   RTR_SERVE_GPS          — graph processors for the distributed backend (4)
//   RTR_SERVE_OVERLOAD_QUERIES — offered stream in the overload scenario (4000)
//   RTR_SERVE_OVERLOAD_PCT — offered load as % of measured capacity   (200)
//   RTR_SERVE_SLO_MS       — SLO/deadline for the overload scenario; 0 =
//                            derive 8x the measured per-query service time (0)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "dist/distributed_topk.h"
#include "graph/graph.h"
#include "serve/query_service.h"
#include "util/random.h"

namespace {

using rtr::Graph;
using rtr::NodeId;

// Runs one configuration to completion and returns its stats: the whole
// stream is submitted as fast as admission accepts it, so QPS is the
// saturation throughput of `options` (with an unbounded queue).
rtr::serve::ServiceStats RunConfig(
    const std::shared_ptr<const Graph>& graph,
    const std::shared_ptr<const rtr::dist::Cluster>& cluster,
    rtr::serve::ServiceOptions options, const std::vector<NodeId>& stream,
    const rtr::core::TopKParams& params) {
  options.queue_capacity = stream.size();  // measure saturation, not shedding
  std::unique_ptr<rtr::serve::QueryService> service;
  if (cluster != nullptr) {
    service = std::make_unique<rtr::serve::QueryService>(cluster, options);
  } else {
    service = std::make_unique<rtr::serve::QueryService>(graph, options);
  }
  CHECK(service->Start().ok());
  for (NodeId q : stream) {
    CHECK(service->SubmitAsync({{q}, params}, nullptr).ok());
  }
  service->Shutdown();  // drains the queue; uptime freezes here
  return service->stats();
}

// Zipf-skewed query stream over `pool` ranked by index: P(rank r) is
// proportional to 1/(r+1)^1.1. Serving overload is never uniform — a few
// hot entities absorb most of the traffic.
std::vector<NodeId> ZipfStream(const std::vector<NodeId>& pool, int length,
                               rtr::Rng& rng) {
  std::vector<double> cdf(pool.size());
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf[r] = total;
  }
  std::vector<NodeId> stream;
  stream.reserve(static_cast<size_t>(length));
  for (int i = 0; i < length; ++i) {
    double u = rng.NextDouble() * total;
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    stream.push_back(pool[std::min(r, pool.size() - 1)]);
  }
  return stream;
}

struct OverloadResult {
  rtr::serve::ServiceStats stats;
  double goodput_qps = 0.0;  // completions inside the SLO per second
  double shed_rate = 0.0;    // rejected / offered
  // Exact nearest-rank percentiles of the completed requests' total_millis.
  // ServiceStats' percentiles are upper edges of 1.25x histogram buckets,
  // too coarse to tell two arms apart.
  double p50_millis = 0.0;
  double p99_millis = 0.0;
};

// Nearest-rank percentile of ascending `sorted` (0 when empty).
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// The overload rows' service options. The cache is off so that every
// request runs the engine: the offered load is engine load, not lookups.
rtr::serve::ServiceOptions OverloadOptions(int workers, bool scheduler,
                                           double epsilon) {
  rtr::serve::ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 64;  // bounded: overload must shed, not buffer
  options.enable_cache = false;
  if (scheduler) {
    options.scheduler.enabled = true;
    // A request predicted to miss its deadline at the request epsilon runs
    // at 5x that epsilon if this is predicted to meet the deadline.
    options.scheduler.eps_max = epsilon * 5.0;
  }
  return options;
}

// Offers `stream` at a fixed rate (open loop: arrival times are scheduled
// up front and submission sleeps until each one, so a slow service builds
// queue instead of slowing the arrival process down).
OverloadResult RunOverload(const std::shared_ptr<const Graph>& graph,
                           const std::vector<NodeId>& stream,
                           const rtr::core::TopKParams& params,
                           double offered_qps,
                           const rtr::serve::ServiceOptions& options) {
  rtr::serve::QueryService service(graph, options);
  CHECK(service.Start().ok());
  std::mutex latencies_mu;
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  const rtr::serve::QueryService::DoneCallback record =
      [&](const rtr::serve::ServeResponse& response) {
        std::lock_guard<std::mutex> lock(latencies_mu);
        latencies.push_back(response.total_millis);
      };

  const auto start = std::chrono::steady_clock::now();
  const double interarrival_nanos = 1e9 / offered_qps;
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(
                    interarrival_nanos * static_cast<double>(i)));
    std::this_thread::sleep_until(due);
    rtr::serve::ServeRequest request;
    request.query = {stream[i]};
    request.params = params;
    // The deadline mirrors the SLO: with the scheduler on, work predicted
    // to finish past it is shed at admission instead of served late.
    request.deadline_millis =
        options.scheduler.enabled ? options.slo_millis : 0.0;
    // Rejections are the measurement here, not an error.
    (void)service.SubmitAsync(std::move(request), record);
  }
  service.Shutdown();  // joins the workers: every callback has run
  std::sort(latencies.begin(), latencies.end());

  OverloadResult result;
  result.stats = service.stats();
  const uint64_t good = result.stats.completed - result.stats.failed -
                        result.stats.slo_violations;
  result.goodput_qps = result.stats.elapsed_seconds <= 0.0
                           ? 0.0
                           : static_cast<double>(good) /
                                 result.stats.elapsed_seconds;
  result.shed_rate = static_cast<double>(result.stats.rejected) /
                     static_cast<double>(stream.size());
  result.p50_millis = NearestRank(latencies, 0.50);
  result.p99_millis = NearestRank(latencies, 0.99);
  return result;
}

}  // namespace

int main() {
  rtr::bench::PrintBanner(
      "Serving throughput",
      "QPS vs tail latency of serve::QueryService: workers x cache x "
      "backend");

  rtr::datasets::BibNetConfig config;
  config.num_papers = rtr::bench::EnvInt("RTR_SERVE_PAPERS", 4000);
  config.num_authors = config.num_papers / 4;
  // Only the bare graph is served, so it is snapshot-cacheable under
  // RTR_SNAPSHOT_DIR (see bench_common.h).
  const auto graph_ptr = std::make_shared<const Graph>(
      rtr::bench::LoadOrBuildGraph(
          "bench_serve_p" + std::to_string(config.num_papers), [&config] {
            return rtr::datasets::BibNet::Generate(config).value().graph();
          }));
  const Graph& graph = *graph_ptr;

  int num_queries = rtr::bench::EnvInt("RTR_SERVE_QUERIES", 240);
  int num_gps = rtr::bench::EnvInt("RTR_SERVE_GPS", 4);
  std::printf("BibNet: %zu nodes, %zu arcs; %d queries per configuration, "
              "%d GPs\n\n",
              graph.num_nodes(), graph.num_arcs(), num_queries, num_gps);

  // One fixed stream for every configuration, so rows are comparable. It
  // mixes repeated queries (uniform draws from a pool half the stream's
  // size) so the cache-on rows serve a realistic skew of hits and misses.
  rtr::Rng rng(515);
  std::vector<NodeId> pool;
  for (int i = 0; i < std::max(1, num_queries / 2); ++i) {
    NodeId q = rtr::bench::SampleQueryNode(graph, rng);
    CHECK_NE(q, rtr::kInvalidNode) << "BibNet should have non-dangling nodes";
    pool.push_back(q);
  }
  std::vector<NodeId> stream;
  for (int i = 0; i < num_queries; ++i) {
    stream.push_back(pool[static_cast<size_t>(rng.NextUint64(pool.size()))]);
  }

  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;

  auto cluster =
      std::make_shared<const rtr::dist::Cluster>(graph_ptr, num_gps);

  std::printf("%-12s %-6s %8s %10s %9s %9s %9s %6s\n", "backend", "cache",
              "workers", "QPS", "p50 ms", "p95 ms", "p99 ms", "hit%");
  const int worker_counts[] = {1, 2, 4, 8};
  for (const char* backend : {"local", "distributed"}) {
    std::shared_ptr<const rtr::dist::Cluster> maybe_cluster =
        backend[0] == 'l' ? nullptr : cluster;
    for (bool cache : {false, true}) {
      for (int workers : worker_counts) {
        rtr::serve::ServiceOptions options;
        options.num_workers = workers;
        options.enable_cache = cache;
        options.cache_capacity = 4096;
        rtr::serve::ServiceStats stats =
            RunConfig(graph_ptr, maybe_cluster, options, stream, params);
        uint64_t lookups = stats.cache_hits + stats.cache_misses;
        std::printf("%-12s %-6s %8d %10.1f %9.2f %9.2f %9.2f %5.1f%%\n",
                    backend, cache ? "on" : "off", workers, stats.qps,
                    stats.p50_millis, stats.p95_millis, stats.p99_millis,
                    lookups == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(stats.cache_hits) /
                              static_cast<double>(lookups));
      }
      std::printf("\n");
    }
  }
  std::printf("Expected shape: QPS grows >1x from 1 to 4 workers (shared\n"
              "immutable graph, per-query state on worker stacks), and the\n"
              "cache-on rows trade engine work for hash lookups on the\n"
              "repeated half of the stream.\n\n");

  // ----------------------------------------------------------------------
  // Overload scenario: FIFO vs cost-model scheduler past saturation.
  // ----------------------------------------------------------------------
  const int overload_workers = 2;
  const int overload_queries =
      rtr::bench::EnvInt("RTR_SERVE_OVERLOAD_QUERIES", 4000);
  const double overload_factor =
      rtr::bench::EnvInt("RTR_SERVE_OVERLOAD_PCT", 200) / 100.0;
  rtr::Rng zipf_rng(909);
  std::vector<NodeId> overload_stream =
      ZipfStream(pool, overload_queries, zipf_rng);

  // Capacity is what this machine actually sustains closed-loop on the
  // offered stream itself, under the FIFO overload row's options.
  const double capacity_qps =
      RunConfig(graph_ptr, nullptr,
                OverloadOptions(overload_workers, false, params.epsilon),
                overload_stream, params)
          .qps;
  const double offered_qps = capacity_qps * overload_factor;
  double slo_millis =
      static_cast<double>(rtr::bench::EnvInt("RTR_SERVE_SLO_MS", 0));
  if (slo_millis <= 0.0) {
    // 8x the measured per-query service time: generous at capacity,
    // hopeless for a request stuck behind a 64-deep FIFO backlog.
    slo_millis = 8.0 * 1000.0 * overload_workers / capacity_qps;
  }
  std::printf("Overload: capacity %.1f QPS (%d workers) -> offering %.1f "
              "QPS (%.0f%%), SLO/deadline %.2f ms, Zipf-skewed pool, "
              "cache off\n\n",
              capacity_qps, overload_workers, offered_qps,
              100.0 * overload_factor, slo_millis);

  std::printf("%-10s %10s %10s %9s %9s %7s %7s\n", "admission", "goodput",
              "QPS", "p50 ms", "p99 ms", "shed%", "eps+");
  OverloadResult fifo;
  OverloadResult sched;
  for (bool scheduler : {false, true}) {
    rtr::serve::ServiceOptions options =
        OverloadOptions(overload_workers, scheduler, params.epsilon);
    options.slo_millis = slo_millis;
    OverloadResult r =
        RunOverload(graph_ptr, overload_stream, params, offered_qps, options);
    std::printf("%-10s %10.1f %10.1f %9.2f %9.2f %6.1f%% %7llu\n",
                scheduler ? "scheduler" : "fifo", r.goodput_qps, r.stats.qps,
                r.p50_millis, r.p99_millis, 100.0 * r.shed_rate,
                static_cast<unsigned long long>(r.stats.eps_widened));
    (scheduler ? sched : fifo) = r;
  }
  const double goodput_gain =
      fifo.goodput_qps <= 0.0 ? 0.0 : sched.goodput_qps / fifo.goodput_qps;
  const double p99_drop =
      fifo.p99_millis <= 0.0 ? 0.0 : 1.0 - sched.p99_millis / fifo.p99_millis;
  std::printf("\nscheduler vs fifo at %.0f%% load: %.2fx goodput, %.0f%% "
              "lower p99 (shed %.1f%% vs %.1f%%)\n",
              100.0 * overload_factor, goodput_gain, 100.0 * p99_drop,
              100.0 * sched.shed_rate, 100.0 * fifo.shed_rate);
  std::printf("Expected shape: FIFO serves every admitted request however\n"
              "late, so overload turns into deep queue waits and SLO\n"
              "misses; the scheduler sheds predicted-late work at\n"
              "admission, serves predicted-cheap work first and widens\n"
              "epsilon where that alone meets a deadline, converting the\n"
              "same offered load into completions that still land inside\n"
              "the SLO.\n");
  return 0;
}
