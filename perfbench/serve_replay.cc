// Serving benchmark replay program (built and run by perfbench/run.py).
//
// Replays one seeded query stream over the synthetic QLog graph through five
// serving modes of serve::QueryService:
//
//   local     FIFO admission, local 2SBound engine, one static generation
//   sched     cost-model admission scheduler (SJF batches, adaptive epsilon)
//   live      FIFO admission over a GraphStore while a writer thread applies
//             deltas (new phrase nodes with clicks) during the replay
//   loopback  FIFO admission, distributed engine over kNumGps in-process
//             graph processors (the dist::Cluster a service builds itself)
//   tcp       FIFO admission, distributed engine whose record fetches go
//             over localhost TCP to kNumGps net::GpServer shards in this
//             process
//
// The modes take turns in kRounds short slices each, so a slow spell of a
// shared machine lands on every mode alike. On a shared host the same work
// runs at one of a few speeds, set by what the host's other tenants do, and
// that mix drifts from minute to minute; so an end-to-end figure is the
// kSliceQuantile quantile of the mode's per-slice figures, which reads the
// program at the host's fast speed whenever some of the run had it. A change
// to the program moves every slice, so it moves that figure too.
//
// Load is a closed loop: kClients caller threads each wait for a reply
// before sending their next request, against kWorkers service workers, so
// every mode runs with a standing admission queue. Latency is timed by the
// callers around QueryService::Call, from send to reply. Throughput is not
// reported: in a closed loop it is kClients over the mean latency.
//
// With --trace 0 the program reports per-mode median latency plus set-up
// time. Tail percentiles are left out: while the host is busy they swing
// from one run to the next far more than the median does. With --trace 1 it
// turns phase tracing on and reports, per mode, the mean time per query in
// each traced phase, the fetch leg timed around every record fetch of the
// tcp mode, and what no span covers.
// loopback and tcp run the same engine, so the gap between them is the wire.
//
// Every answer is checked: answers for the same (query, generation,
// effective epsilon) must agree, and a sample of them is recomputed serially
// with core::TopKRoundTripRank on the generation that served them and must
// match bit for bit.
//
// Usage:
//   serve_replay --workload clicks|distinct --seed N --seconds S --trace 0|1
//                --snapshot PATH
// PATH is where the graph snapshot goes that each set-up loads; the caller
// removes it. The last line of stdout is one JSON object: correct,
// attempted, failed, metrics.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/twosbound.h"
#include "core/workspace.h"
#include "datasets/qlog.h"
#include "dist/distributed_topk.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/store.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace {

using rtr::Graph;
using rtr::NodeId;
using rtr::Status;
using rtr::serve::QueryService;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 8;
constexpr int kWorkers = 2;
constexpr int kNumGps = 3;
constexpr size_t kCacheCapacity = 1024;
constexpr int kTopK = 10;
constexpr double kEpsilon = 0.01;
// The scheduler may widen epsilon up to this under queue pressure.
constexpr double kSchedEpsMax = 2 * kEpsilon;
// Each mode runs in kRounds slices, interleaved with the other modes.
constexpr int kRounds = 48;
// Quantile over a mode's slices that its end-to-end figures report.
constexpr double kSliceQuantile = 0.10;
// Deltas the live mode's writer applies per slice, evenly spaced over it.
constexpr int kDeltasPerSlice = 2;
constexpr int kPhrasesPerDelta = 16;
// Distinct answers per mode recomputed serially.
constexpr size_t kVerifyPerMode = 96;
// Warm-up before each measured slice, as a share of the slice: fills the
// result cache, the workspaces and the scheduler's cost model.
constexpr double kWarmupShare = 0.15;
constexpr size_t kClicksStreamLength = size_t{1} << 18;

enum Mode { kLocal, kSched, kLive, kLoopback, kTcp, kNumModes };
constexpr std::array<const char*, kNumModes> kModeNames = {
    "local", "sched", "live", "loopback", "tcp"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string snapshot;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--snapshot") {
      args->snapshot = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         !args->snapshot.empty() &&
         (args->workload == "clicks" || args->workload == "distinct");
}

rtr::core::TopKParams Params(double epsilon) {
  rtr::core::TopKParams params;
  params.k = kTopK;
  params.epsilon = epsilon;
  return params;
}

// FNV-1a over the ranked entries, bounds included bit for bit.
uint64_t Digest(const rtr::core::TopKResult& topk) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(topk.entries.size());
  for (const rtr::core::TopKEntry& e : topk.entries) {
    uint64_t lower = 0;
    uint64_t upper = 0;
    std::memcpy(&lower, &e.lower, sizeof(lower));
    std::memcpy(&upper, &e.upper, sizeof(upper));
    mix(e.node);
    mix(lower);
    mix(upper);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Inputs: the graph is the default synthetic QLog, the same for every run,
// so runs differ only in traffic; the query stream and the live mode's
// deltas derive from --seed.
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<NodeId> stream;
  std::vector<rtr::GraphDelta> deltas;
};

Inputs MakeInputs(const Args& args) {
  rtr::StatusOr<rtr::datasets::QLog> log =
      rtr::datasets::QLog::Generate(rtr::datasets::QLogConfig{});
  CHECK(log.ok()) << log.status().ToString();
  const Graph& g = log->graph();
  Status saved = rtr::SaveGraphSnapshotToFile(g, args.snapshot);
  CHECK(saved.ok()) << saved.ToString();

  rtr::Rng rng(args.seed);
  const std::vector<NodeId> phrases = g.NodesOfType(log->phrase_type());

  Inputs in;
  if (args.workload == "distinct") {
    // A permutation of every phrase, cycled: the pool is several times the
    // cache capacity, so no key comes back while LRU still holds it.
    in.stream = phrases;
    rng.Shuffle(in.stream);
  } else {
    // Each phrase as often as the log clicked it: its share of the stream
    // is its summed click weight over the log's total.
    std::vector<double> clicks(g.num_nodes(), 0.0);
    for (const rtr::datasets::QLog::Click& click : log->clicks()) {
      clicks[click.phrase] += click.weight;
    }
    std::vector<double> cdf(phrases.size());
    double total = 0.0;
    for (size_t i = 0; i < phrases.size(); ++i) {
      total += clicks[phrases[i]];
      cdf[i] = total;
    }
    in.stream.reserve(kClicksStreamLength);
    for (size_t i = 0; i < kClicksStreamLength; ++i) {
      const double u = rng.NextDouble() * total;
      const size_t r = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      in.stream.push_back(phrases[std::min(r, phrases.size() - 1)]);
    }
  }

  // Log growth: each delta appends new phrases that click 1-3 existing URLs
  // (click edges are undirected, so both arc directions are inserted).
  const std::vector<NodeId> urls = g.NodesOfType(log->url_type());
  NodeId next_node = static_cast<NodeId>(g.num_nodes());
  for (int d = 0; d < kRounds * kDeltasPerSlice; ++d) {
    rtr::GraphDelta delta;
    delta.base_generation = static_cast<uint64_t>(d);
    for (int p = 0; p < kPhrasesPerDelta; ++p) {
      const NodeId phrase = next_node++;
      delta.added_node_types.push_back(log->phrase_type());
      const int clicks = 1 + static_cast<int>(rng.NextUint64(3));
      for (int c = 0; c < clicks; ++c) {
        const NodeId url = urls[rng.NextUint64(urls.size())];
        const double weight = 1.0 + static_cast<double>(rng.NextUint64(10));
        delta.added_arcs.push_back({phrase, url, weight});
        delta.added_arcs.push_back({url, phrase, weight});
      }
    }
    in.deltas.push_back(std::move(delta));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Deployment: the five serving modes, brought up from the snapshot.
// ---------------------------------------------------------------------------

// Times the AP<->GP record-fetch leg from outside the program: every fetch
// the distributed engine issues for one shard passes through here.
class TimedSource : public rtr::dist::RecordSource {
 public:
  explicit TimedSource(std::unique_ptr<rtr::dist::RecordSource> inner)
      : inner_(std::move(inner)) {}

  Status Fetch(const std::vector<NodeId>& nodes,
               std::vector<rtr::dist::NodeRecord>* out) const override {
    const Clock::time_point start = Clock::now();
    Status status = inner_->Fetch(nodes, out);
    nanos_.fetch_add(static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start)
                             .count()),
                     std::memory_order_relaxed);
    return status;
  }
  uint64_t fetch_requests() const override { return inner_->fetch_requests(); }
  uint64_t records_served() const override { return inner_->records_served(); }
  uint64_t bytes_served() const override { return inner_->bytes_served(); }
  rtr::dist::WireTraffic wire() const override { return inner_->wire(); }

  double fetch_millis() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) / 1e6;
  }

 private:
  std::unique_ptr<rtr::dist::RecordSource> inner_;
  mutable std::atomic<uint64_t> nanos_{0};
};

// Members are destroyed in reverse order: the services (and with them the
// tcp cluster's RPC clients) go before the GP servers they talk to.
struct Deployment {
  std::shared_ptr<const Graph> graph;
  uint64_t generation = 0;
  std::shared_ptr<rtr::GraphStore> live_store;
  std::shared_ptr<const rtr::dist::Cluster> loopback;
  std::vector<std::unique_ptr<rtr::net::GpServer>> gp_servers;
  std::vector<const TimedSource*> fetch_legs;  // owned by the tcp cluster
  std::array<std::unique_ptr<QueryService>, kNumModes> services;
};

rtr::StatusOr<std::unique_ptr<Deployment>> Deploy(const std::string& path) {
  auto d = std::make_unique<Deployment>();
  rtr::StatusOr<Graph> loaded =
      rtr::LoadGraphAuto(path, &d->generation, rtr::MapMode::kNever);
  if (!loaded.ok()) return loaded.status();
  d->graph = std::make_shared<const Graph>(std::move(loaded).value());

  rtr::serve::ServiceOptions options;
  options.num_workers = kWorkers;
  // A closed loop never has more than kClients requests outstanding, so
  // admission never overflows; the scheduler's widening watermark sits at
  // half of it.
  options.queue_capacity = kClients;
  options.cache_capacity = kCacheCapacity;

  d->services[kLocal] = std::make_unique<QueryService>(d->graph, options);

  rtr::serve::ServiceOptions sched = options;
  sched.scheduler.enabled = true;
  sched.scheduler.eps_max = kSchedEpsMax;
  d->services[kSched] = std::make_unique<QueryService>(d->graph, sched);

  d->live_store = std::make_shared<rtr::GraphStore>(d->graph, d->generation);
  d->services[kLive] = std::make_unique<QueryService>(d->live_store, options);

  d->loopback = std::make_shared<const rtr::dist::Cluster>(d->graph, kNumGps,
                                                           d->generation);
  d->services[kLoopback] = std::make_unique<QueryService>(d->loopback, options);

  std::vector<std::unique_ptr<rtr::dist::RecordSource>> sources;
  for (int shard = 0; shard < kNumGps; ++shard) {
    rtr::StatusOr<std::unique_ptr<rtr::net::GpServer>> server =
        rtr::net::GpServer::Start(d->graph, shard, kNumGps, d->generation);
    if (!server.ok()) return server.status();
    rtr::net::HelloPayload expected;
    expected.shard = static_cast<uint32_t>(shard);
    expected.num_gps = kNumGps;
    expected.num_nodes = d->graph->num_nodes();
    expected.generation = d->generation;
    auto remote = std::make_unique<rtr::net::RemoteGraphProcessor>(
        "127.0.0.1", (*server)->port(), expected);
    RTR_RETURN_IF_ERROR(remote->Connect());
    auto timed = std::make_unique<TimedSource>(std::move(remote));
    d->fetch_legs.push_back(timed.get());
    sources.push_back(std::move(timed));
    d->gp_servers.push_back(std::move(server).value());
  }
  auto cluster = std::make_shared<const rtr::dist::Cluster>(
      d->graph, std::move(sources), d->generation);
  d->services[kTcp] = std::make_unique<QueryService>(cluster, options);

  for (std::unique_ptr<QueryService>& service : d->services) {
    RTR_RETURN_IF_ERROR(service->Start());
  }
  return d;
}

// Linear interpolation between closest ranks; `sorted` is non-empty.
double Percentile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

struct Answer {
  NodeId query = rtr::kInvalidNode;
  uint64_t generation = 0;
  double epsilon = 0.0;
  uint64_t digest = 0;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<Answer> answers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Service-side counters, read around each measured slice.
struct Counters {
  std::array<double, rtr::obs::kNumPhases> phase_ms{};
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  uint64_t eps_widened = 0;
  double fetch_ms = 0.0;
  uint64_t fetch_requests = 0;
  uint64_t wire_bytes = 0;

  // Adds what the counters grew by between two readings.
  void AddGrowth(const Counters& before, const Counters& after) {
    for (size_t p = 0; p < phase_ms.size(); ++p) {
      phase_ms[p] += after.phase_ms[p] - before.phase_ms[p];
    }
    completed += after.completed - before.completed;
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    cache_invalidations +=
        after.cache_invalidations - before.cache_invalidations;
    batches += after.batches - before.batches;
    batched_queries += after.batched_queries - before.batched_queries;
    eps_widened += after.eps_widened - before.eps_widened;
    fetch_ms += after.fetch_ms - before.fetch_ms;
    fetch_requests += after.fetch_requests - before.fetch_requests;
    wire_bytes += after.wire_bytes - before.wire_bytes;
  }
};

Counters ReadCounters(const Deployment& d, Mode mode) {
  const QueryService& service = *d.services[mode];
  const rtr::serve::ServiceStats stats = service.stats();
  Counters c;
  for (size_t p = 0; p < rtr::obs::kNumPhases; ++p) {
    c.phase_ms[p] =
        service.phase_latencies(static_cast<rtr::obs::Phase>(p)).SumMillis();
  }
  c.completed = stats.completed;
  c.cache_hits = stats.cache_hits;
  c.cache_misses = stats.cache_misses;
  c.cache_invalidations = stats.cache_invalidations;
  c.batches = stats.batches;
  c.batched_queries = stats.batched_queries;
  c.eps_widened = stats.eps_widened;
  if (mode == kLoopback) {
    c.fetch_requests = d.loopback->total_fetch_requests();
  } else if (mode == kTcp) {
    for (const TimedSource* leg : d.fetch_legs) {
      c.fetch_ms += leg->fetch_millis();
      c.fetch_requests += leg->fetch_requests();
      const rtr::dist::WireTraffic wire = leg->wire();
      c.wire_bytes += wire.bytes_sent + wire.bytes_received;
    }
  }
  return c;
}

// One mode's measurements, accumulated over its slices.
struct ModeRun {
  std::atomic<size_t> next{0};  // stream position, continued across slices
  // One entry per measured slice.
  std::vector<double> p50_ms;
  double latency_sum_ms = 0.0;
  std::vector<Answer> answers;  // one per successful reply
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Counters layers;  // growth over the measured slices only
  size_t deltas_applied = 0;
  std::vector<double> delta_apply_ms;
  // Graph of every generation the mode served.
  std::map<uint64_t, std::shared_ptr<const Graph>> generations;
};

// Runs kClients closed-loop callers over `stream` (continuing at *next)
// for `seconds`, returning once every caller has its last reply.
std::vector<ClientLog> RunClients(QueryService& service,
                                  const std::vector<NodeId>& stream,
                                  std::atomic<size_t>* next, double seconds) {
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &stream, next, end, log = &logs[c]] {
      rtr::serve::ServeRequest request;
      request.params = Params(kEpsilon);
      for (;;) {
        const Clock::time_point sent = Clock::now();
        if (sent >= end) break;
        const NodeId q = stream[next->fetch_add(1) % stream.size()];
        request.query.assign(1, q);
        rtr::StatusOr<rtr::serve::ServeResponse> reply = service.Call(request);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        ++log->attempted;
        if (!reply.ok() || !reply->status.ok()) {
          ++log->failed;
          continue;
        }
        log->latency_ms.push_back(ms);
        log->answers.push_back({q, reply->generation,
                                reply->effective_epsilon,
                                Digest(reply->topk)});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return logs;
}

// Time point `fraction` of the way through a window of `seconds` from start.
Clock::time_point At(Clock::time_point start, double seconds,
                     double fraction) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds * fraction));
}

// One slice of one mode: an unmeasured warm-up, then `seconds` measured. In
// the live mode a writer thread applies the next kDeltasPerSlice deltas,
// evenly spaced over the measured window.
void RunSlice(Deployment& d, Mode mode, const Inputs& in, double seconds,
              ModeRun* run) {
  QueryService& service = *d.services[mode];
  RunClients(service, in.stream, &run->next, seconds * kWarmupShare);

  const Counters before = ReadCounters(d, mode);
  const Clock::time_point start = Clock::now();
  std::thread writer;
  if (mode == kLive) {
    writer = std::thread([&d, &in, run, seconds, start] {
      for (int i = 0; i < kDeltasPerSlice; ++i) {
        std::this_thread::sleep_until(
            At(start, seconds, (i + 1.0) / (kDeltasPerSlice + 1.0)));
        const Clock::time_point t0 = Clock::now();
        rtr::StatusOr<uint64_t> generation =
            d.live_store->Apply(in.deltas[run->deltas_applied]);
        run->delta_apply_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
        if (!generation.ok()) {
          std::fprintf(stderr, "delta: %s\n",
                       generation.status().ToString().c_str());
          ++run->failed;
          return;
        }
        ++run->deltas_applied;
        run->generations[*generation] = d.live_store->Current();
      }
    });
  }
  std::vector<ClientLog> logs =
      RunClients(service, in.stream, &run->next, seconds);
  if (writer.joinable()) writer.join();
  run->layers.AddGrowth(before, ReadCounters(d, mode));

  std::vector<double> latency_ms;
  for (ClientLog& log : logs) {
    run->attempted += log.attempted;
    run->failed += log.failed;
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                      log.latency_ms.end());
    run->answers.insert(run->answers.end(), log.answers.begin(),
                        log.answers.end());
  }
  if (latency_ms.empty()) return;
  std::sort(latency_ms.begin(), latency_ms.end());
  run->p50_ms.push_back(Percentile(latency_ms, 0.50));
  for (double ms : latency_ms) run->latency_sum_ms += ms;
}

// Counts answers that disagree with each other or with a serial
// recomputation on the generation that served them.
uint64_t Verify(const ModeRun& run) {
  using Key = std::tuple<NodeId, uint64_t, double>;
  std::map<Key, uint64_t> digests;
  uint64_t mismatches = 0;
  for (const Answer& a : run.answers) {
    auto [it, inserted] =
        digests.emplace(Key{a.query, a.generation, a.epsilon}, a.digest);
    if (!inserted && it->second != a.digest) ++mismatches;
  }
  const size_t stride = std::max<size_t>(1, digests.size() / kVerifyPerMode);
  rtr::core::QueryWorkspace workspace;
  rtr::core::TopKResult reference;
  size_t index = 0;
  for (const auto& [key, digest] : digests) {
    if (index++ % stride != 0) continue;
    const auto& [query, generation, epsilon] = key;
    auto graph = run.generations.find(generation);
    if (graph == run.generations.end()) {
      ++mismatches;
      continue;
    }
    Status status = rtr::core::TopKRoundTripRank(
        *graph->second, {query}, Params(epsilon), workspace, &reference);
    if (!status.ok() || Digest(reference) != digest) ++mismatches;
  }
  return mismatches;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

// The kSliceQuantile quantile of the mode's per-slice median latencies.
void AddEndToEnd(Mode mode, const ModeRun& run, std::vector<Metric>* out) {
  std::vector<double> p50_ms = run.p50_ms;
  std::sort(p50_ms.begin(), p50_ms.end());
  out->push_back({std::string(kModeNames[mode]) + "_p50_ms",
                  Percentile(p50_ms, kSliceQuantile), "ms"});
}

// Mean time per served query in each layer, over all measured slices.
void AddPerLayer(Mode mode, const ModeRun& run, std::vector<Metric>* out) {
  using rtr::obs::Phase;
  const std::string m = kModeNames[mode];
  const Counters& c = run.layers;
  auto phase = [&c](Phase p) {
    return PerQuery(c.phase_ms[static_cast<size_t>(p)], c.completed);
  };
  const double admission = phase(Phase::kQueueWait) + phase(Phase::kSchedWait);
  const double fetch = PerQuery(c.fetch_ms, c.completed);
  const double wall = PerQuery(run.latency_sum_ms, run.answers.size());
  double covered = admission + fetch;
  for (Phase p : {Phase::kGenerationPin, Phase::kCacheLookup,
                  Phase::kStage1Expand, Phase::kStage2Refine,
                  Phase::kFinalize}) {
    covered += phase(p);
  }
  out->push_back({m + "_admission_ms", admission, "ms"});
  out->push_back({m + "_pin_ms", phase(Phase::kGenerationPin), "ms"});
  out->push_back({m + "_cache_ms", phase(Phase::kCacheLookup), "ms"});
  out->push_back({m + "_stage1_ms", phase(Phase::kStage1Expand), "ms"});
  out->push_back({m + "_stage2_ms", phase(Phase::kStage2Refine), "ms"});
  out->push_back({m + "_finalize_ms", phase(Phase::kFinalize), "ms"});
  // Caller-observed time no span covers: hand-offs between caller and
  // worker, result copies, and record checks after the fetch leg.
  out->push_back({m + "_unattributed_ms", wall - covered, "ms"});
  out->push_back({m + "_hit_pct",
                  Pct(c.cache_hits, c.cache_hits + c.cache_misses), "%"});
  if (mode == kSched) {
    out->push_back({"sched_batch_size",
                    PerQuery(static_cast<double>(c.batched_queries), c.batches),
                    "count"});
    out->push_back({"sched_widened_pct", Pct(c.eps_widened, c.completed), "%"});
  } else if (mode == kLive) {
    out->push_back({"live_delta_apply_ms", Median(run.delta_apply_ms), "ms"});
    out->push_back({"live_invalidations",
                    static_cast<double>(c.cache_invalidations), "count"});
  } else if (mode == kLoopback) {
    out->push_back({"loopback_fetches_per_miss",
                    PerQuery(static_cast<double>(c.fetch_requests),
                             c.cache_misses),
                    "count"});
  } else if (mode == kTcp) {
    out->push_back({"tcp_fetch_ms", fetch, "ms"});
    out->push_back({"tcp_fetches_per_miss",
                    PerQuery(static_cast<double>(c.fetch_requests),
                             c.cache_misses),
                    "count"});
    out->push_back({"tcp_wire_kib_per_miss",
                    PerQuery(static_cast<double>(c.wire_bytes) / 1024.0,
                             c.cache_misses),
                    "KiB"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_replay --workload clicks|distinct --seed N "
                 "--seconds S --trace 0|1 --snapshot PATH\n");
    return 2;
  }
  const Inputs inputs = MakeInputs(args);

  // Times one full bring-up; setup_s is the median over the run.
  std::vector<double> setup_s;
  auto timed_deploy = [&args, &setup_s]() -> std::unique_ptr<Deployment> {
    const Clock::time_point start = Clock::now();
    rtr::StatusOr<std::unique_ptr<Deployment>> deployed =
        Deploy(args.snapshot);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!deployed.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   deployed.status().ToString().c_str());
      return nullptr;
    }
    return std::move(deployed).value();
  };
  std::unique_ptr<Deployment> deployment = timed_deploy();
  if (deployment == nullptr) return 1;

  std::array<ModeRun, kNumModes> runs;
  for (int m = 0; m < kNumModes; ++m) {
    runs[m].generations[deployment->generation] = deployment->graph;
    deployment->services[m]->SetTracing(args.trace);
  }
  const double slice = args.seconds / (kRounds * kNumModes);
  for (int round = 0; round < kRounds; ++round) {
    // One more bring-up per round, torn down at once, so the set-up
    // samples spread over the run like the slices do.
    if (timed_deploy() == nullptr) return 1;
    for (int m = 0; m < kNumModes; ++m) {
      RunSlice(*deployment, static_cast<Mode>(m), inputs, slice, &runs[m]);
    }
  }
  deployment.reset();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  for (int m = 0; m < kNumModes; ++m) {
    const Mode mode = static_cast<Mode>(m);
    const ModeRun& run = runs[m];
    attempted += run.attempted;
    failed += run.failed;
    const uint64_t bad = Verify(run);
    if (bad != 0 || run.p50_ms.size() != kRounds) {
      std::fprintf(stderr, "%s: %llu wrong answers, %zu of %d slices served\n",
                   kModeNames[mode], static_cast<unsigned long long>(bad),
                   run.p50_ms.size(), kRounds);
      mismatches += std::max<uint64_t>(bad, 1);
      continue;
    }
    if (args.trace) {
      AddPerLayer(mode, run, &metrics);
    } else {
      AddEndToEnd(mode, run, &metrics);
    }
  }
  if (!args.trace) metrics.push_back({"setup_s", Median(setup_s), "s"});

  std::string json = "{\"correct\": ";
  json += mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"";
    json += metrics[i].unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
