#ifndef RTR_SERVE_QUERY_SERVICE_H_
#define RTR_SERVE_QUERY_SERVICE_H_

// Concurrent query-serving subsystem (DESIGN.md §5): a fixed-size worker
// pool drains a bounded admission queue of top-K RoundTripRank requests,
// fronting either the local 2SBound engine or the dist::Cluster replay
// behind one API. Per-query latencies feed a util::LatencyHistogram for
// p50/p95/p99 + QPS reporting, and results are memoized in a sharded LRU
// ResultCache. A service is built over a graph, a GraphStore or a Cluster;
// a saved graph is loaded first with LoadGraphAuto (graph/snapshot.h). A
// distributed service exports the per-shard rtr_dist_* series and the
// rtr_net_* wire series whatever its shards are (loopback reports 0 wire
// traffic).
//
// Thread-safety contract (audited in PR 2; see also graph/graph.h,
// core/twosbound.h, dist/distributed_topk.h): each Graph generation is
// immutable and TopKRoundTripRank/DistributedTopK keep all per-query state
// in the calling worker's core::QueryWorkspace arena (one per worker
// thread, DESIGN.md §7 — steady-state queries run allocation-free), so any
// number of workers can share one Graph / one Cluster with no
// synchronization. Components with per-query mutable caches
// (ranking::FTScorer, ProximityMeasure implementations) are NOT used by
// the top-K path; if the service ever serves full rankings, those must be
// instantiated per worker.
//
// Live updates (DESIGN.md §8): a service constructed over a
// graph::GraphStore pins the store's current generation per worker batch
// (GraphStore::Pin — a refcount bump, never a graph copy), so a writer
// publishing new generations through GraphStore::Apply/Publish swaps the
// served graph without stopping the pool: in-flight queries drain on the
// generation they pinned while new arrivals pick up the new one. Cache
// entries carry the generation in their key; the first query to observe a
// newer generation reclaims entries of retired generations
// (ResultCache::EvictGenerationsBelow).

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/twosbound.h"
#include "core/workspace.h"
#include "dist/distributed_topk.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cost_model.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "util/latency_histogram.h"
#include "util/status.h"
#include "util/timer.h"

namespace rtr::serve {

// Which engine answers cache misses.
enum class Backend {
  kLocal,        // core::TopKRoundTripRank on the shared Graph
  kDistributed,  // dist::DistributedTopK on a shared dist::Cluster
};

const char* BackendName(Backend backend);

struct ServiceOptions {
  int num_workers = 4;
  // Admission-queue bound; SubmitAsync rejects with kUnavailable beyond it
  // (load shedding instead of unbounded memory growth — no exceptions, per
  // repo conventions).
  size_t queue_capacity = 256;
  bool enable_cache = true;
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  // Queries slower than this (end-to-end, admission to completion) count as
  // SLO violations in ServiceStats.
  double slo_millis = 100.0;
  // Per-query phase tracing (obs/trace.h). Off by default: workers then
  // never touch a TraceRecorder and the engine's trace pointer stays null
  // (zero overhead beyond one branch per instrumentation site). Togglable
  // at runtime with SetTracing.
  bool enable_tracing = false;
  // How many slowest-query trace dumps to retain for SlowestTraces().
  size_t trace_keep = 8;
  // Cost-model admission scheduling (serve/scheduler.h, DESIGN.md §11):
  // priority queue ordered by predicted cost, batched worker drains,
  // deadline shedding, adaptive epsilon. Disabled by default, which runs
  // the same queue as FIFO: arrival order, one query per drain, no
  // shedding, no widening.
  SchedulerOptions scheduler;
};

struct ServeRequest {
  Query query;
  core::TopKParams params;
  // Optional completion budget, measured from admission. With the
  // scheduler on, admission rejects (kUnavailable, counted in
  // shed_predicted) requests whose predicted completion exceeds this; 0
  // means no deadline. FIFO admission ignores it.
  double deadline_millis = 0.0;
};

struct ServeResponse {
  // Engine-level outcome. One transport-level status exists: admitted
  // requests that a never-started service still holds at Shutdown complete
  // with kUnavailable (see Shutdown).
  Status status;
  core::TopKResult topk;
  bool cache_hit = false;
  // Graph generation the query was answered on (graph/store.h; 0 for
  // static graphs).
  uint64_t generation = 0;
  // Time from admission to worker pickup, and to completion.
  double queue_millis = 0.0;
  double total_millis = 0.0;
  // Epsilon the query actually ran (and cached) under. Equals the request
  // epsilon unless the scheduler widened it under load — clients can tell
  // precision was degraded instead of availability.
  double effective_epsilon = 0.0;
  // The cost model's admission-time latency estimate (scheduler mode; 0
  // under FIFO admission).
  double predicted_millis = 0.0;
};

// Monotonic service counters plus derived latency/throughput figures.
struct ServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;   // every rejection: overflow + shed + stopping
  // Rejection reasons, reported separately so overload diagnosis doesn't
  // have to infer them: queue-capacity overflow (either admission mode)
  // vs the scheduler's deadline shed (predicted completion past the
  // request deadline). rejected - shed_overflow - shed_predicted =
  // requests refused because the service was stopping.
  uint64_t shed_overflow = 0;
  uint64_t shed_predicted = 0;
  // Requests whose callback fired, including those a never-started
  // service completed as kUnavailable at Shutdown; only requests actually
  // served by a worker are recorded in the latency histogram.
  uint64_t completed = 0;
  uint64_t failed = 0;     // completed with a non-OK status
  uint64_t slo_violations = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;      // LRU capacity evictions
  uint64_t cache_invalidations = 0;  // reclaimed after generation swaps
  // Scheduler-mode activity: queries that ran with a widened epsilon,
  // worker batch drains, and queries served through those drains
  // (batched_queries / batches = achieved batch occupancy).
  uint64_t eps_widened = 0;
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  // Highest graph generation the service has observed: the generation at
  // construction until a query pins a newer one (always 0 for static
  // graphs loaded without a generation id).
  uint64_t generation = 0;
  double elapsed_seconds = 0.0;  // since Start()
  double qps = 0.0;              // completed / elapsed_seconds
  double p50_millis = 0.0;
  double p95_millis = 0.0;
  double p99_millis = 0.0;
  // Queue wait split by predicted-cost class (scheduler.h), so "cheap
  // queries stopped waiting behind heavy ones" is a measurement, not an
  // inference. Populated in both admission modes.
  struct ClassQueueWait {
    uint64_t count = 0;
    double mean_millis = 0.0;
    double p99_millis = 0.0;
  };
  std::array<ClassQueueWait, kNumCostClasses> queue_wait{};
};

// A thread-pooled top-K RoundTripRank service over a graph (one fixed
// generation, or a live sequence of generations behind a GraphStore).
//
// Lifecycle: construct -> (optionally SubmitAsync, which queues) -> Start()
// -> ... -> Shutdown(). Shutdown drains every admitted request before
// joining the workers, so every accepted SubmitAsync eventually invokes its
// callback exactly once. The destructor calls Shutdown.
//
// Ownership: every constructor shares ownership of its graph source via
// shared_ptr — there is no "must outlive the service" contract. Every mode
// serves from a GraphStore: the fixed-graph and fixed-cluster constructors
// wrap their graph in a single-generation store that nothing advances.
class QueryService {
 public:
  // Serves a fixed graph from the local engine (wrapped in an internal
  // single-generation GraphStore).
  QueryService(std::shared_ptr<const Graph> graph,
               const ServiceOptions& options);
  // Live local serving: each query pins the store's current generation, so
  // GraphStore::Apply/Publish swap new graph versions in mid-stream.
  QueryService(std::shared_ptr<GraphStore> store,
               const ServiceOptions& options);
  // Serves a fixed cluster through the distributed AP/GP replay (never
  // restriped: its single-generation store is private to the service).
  QueryService(std::shared_ptr<const dist::Cluster> cluster,
               const ServiceOptions& options);
  // Live distributed serving: queries pin the store's current generation,
  // and the first worker to observe a new generation restripes a fresh
  // num_gps-processor cluster for it (under a mutex; in-flight queries
  // keep draining on the retired cluster they resolved).
  QueryService(std::shared_ptr<GraphStore> store, int num_gps,
               const ServiceOptions& options);

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  Backend backend() const { return backend_; }
  const ServiceOptions& options() const { return options_; }

  // Spawns the worker pool. Fails with kFailedPrecondition if already
  // started (including after Shutdown — services are not restartable).
  Status Start();

  // Stops admission, drains the queue, joins the workers. Idempotent.
  void Shutdown();

  // Invoked on a worker thread when the request completes.
  using DoneCallback = std::function<void(const ServeResponse&)>;

  // Enqueues a request. Returns kUnavailable when the admission queue is
  // full or the service is shutting down; the callback is not invoked for
  // rejected requests.
  Status SubmitAsync(ServeRequest request, DoneCallback done);

  // Blocking convenience wrapper: submit and wait for the response. The
  // service must be started (otherwise the call would wait forever and
  // instead fails with kFailedPrecondition).
  StatusOr<ServeResponse> Call(const ServeRequest& request);

  ServiceStats stats() const;
  const LatencyHistogram& latencies() const { return latencies_; }
  const ResultCache& cache() const { return cache_; }

  // Runtime switch for per-query phase tracing; affects queries picked up
  // after the call. When on, every served query feeds the per-phase
  // histograms (rtr_query_phase_ms{phase=...}) and competes for a slot in
  // the slowest-trace ring.
  void SetTracing(bool enabled) {
    tracing_.store(enabled, std::memory_order_relaxed);
  }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  // Aggregated per-phase latency across traced queries.
  const LatencyHistogram& phase_latencies(obs::Phase phase) const {
    return phase_latencies_[static_cast<size_t>(phase)];
  }

  // JSON dumps (TraceRecorder::ToJson) of the slowest traced queries,
  // slowest first, at most options().trace_keep entries.
  std::vector<std::string> SlowestTraces() const;

  // Read-only handle to the online cost model (tests, benches).
  const QueryCostModel& cost_model() const { return cost_model_; }

 private:
  struct Task {
    ServeRequest request;
    DoneCallback done;
    WallTimer admitted;  // started at admission
    // Admission-time scheduling state (computed in SubmitAsync).
    CostFeatures features;
    double predicted_millis = 0.0;
    double effective_epsilon = 0.0;
    CostClass cost_class = CostClass::kModerate;
  };

  // Every public constructor delegates here. A null cluster serves the
  // local engine; otherwise `cluster` is restriped whenever the store
  // publishes a newer generation than it was built from.
  QueryService(std::shared_ptr<GraphStore> store,
               std::shared_ptr<const dist::Cluster> cluster,
               const ServiceOptions& options);

  // Drains batches from queue_, pinning the generation once per batch.
  // Each worker owns one core::QueryWorkspace (the per-query arena of
  // DESIGN.md §7) for its whole lifetime, so steady-state cache misses run
  // the engine without O(num_nodes) allocation or zeroing.
  void WorkerLoop();
  // Serves one dequeued task on its batch's pinned generation and fires
  // its callback. pin_millis is the batch's pin duration, traced as its
  // own phase and left out of the task's queue wait.
  void RunTask(Task& task, const PinnedGraph& pinned,
               const dist::Cluster* cluster, double pin_millis,
               core::QueryWorkspace* workspace, obs::TraceRecorder* trace);
  // Cache lookup + backend dispatch against a pinned generation, with the
  // task's (possibly widened) params. Sets *engine_millis to the measured
  // engine time, or leaves it negative on a cache hit.
  void Execute(const Query& query, const core::TopKParams& params,
               const PinnedGraph& pinned, const dist::Cluster* cluster,
               ServeResponse* response, core::QueryWorkspace* workspace,
               double* engine_millis);
  // Registers this service's series with the default metrics registry;
  // called once, from the delegated-to constructor.
  void RegisterMetrics();
  // Folds one traced query into the per-phase histograms and the
  // slowest-trace ring.
  void RecordTrace(const obs::TraceRecorder& trace, double total_millis);
  // Resolves the graph generation (and, for kDistributed, the cluster)
  // a batch runs on. In dist-live mode this is where a new generation's
  // cluster gets striped.
  PinnedGraph PinForQuery(std::shared_ptr<const dist::Cluster>* cluster);
  // Raises the observed-generation watermark; the winning caller reclaims
  // cache entries of retired generations.
  void ObserveGeneration(uint64_t generation);

  // Graph source. store_ is never null; cluster_ is null for the local
  // backend, else the most recently striped generation's cluster (guarded
  // by cluster_mu_).
  std::shared_ptr<GraphStore> store_;
  std::shared_ptr<const dist::Cluster> cluster_;
  std::mutex cluster_mu_;
  Backend backend_;
  ServiceOptions options_;
  // options_.scheduler resolved at construction. Scheduler off is the
  // FIFO configuration: arrival-order key, batch_size 1, no deadline
  // shedding (enabled stays false), eps_max 0 (no widening).
  SchedulerOptions admission_;
  ResultCache cache_;
  LatencyHistogram latencies_;
  // Highest generation any query has pinned; raised with a CAS so exactly
  // one worker per swap pays the cache-invalidation walk.
  std::atomic<uint64_t> last_seen_generation_{0};

  mutable std::mutex mu_;
  // Held for the whole of Shutdown; see the comment there.
  std::mutex shutdown_mu_;
  std::condition_variable queue_cv_;
  // Admitted, not yet dequeued tasks, ordered by admission_. Under mu_.
  AdmissionQueue<Task> queue_;
  // Decayed mean of admission-time predictions; anchors the
  // cheap/moderate/heavy class split. Under mu_.
  double mean_predicted_millis_ = 0.0;
  // Common arrival clock for the static priority keys (scheduler.h);
  // started at construction, never restarted.
  WallTimer arrival_clock_;
  QueryCostModel cost_model_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopping_ = false;
  WallTimer uptime_;  // restarted by Start()
  // Service uptime frozen at Shutdown so post-mortem stats keep the QPS
  // measured while the pool was live; < 0 while running.
  double frozen_elapsed_seconds_ = -1.0;

  // Service counters double as the registry series (rtr_serve_*, labeled
  // by backend); ServiceStats stays the snapshot view over them.
  obs::Counter accepted_;
  obs::Counter rejected_;
  obs::Counter completed_;
  obs::Counter failed_;
  obs::Counter slo_violations_;
  // Scheduler series (rtr_sched_*): split rejection reasons, widened-
  // epsilon queries, batch drains. shed_overflow_ also counts FIFO-mode
  // queue-full rejections so the reason split covers both modes.
  obs::Counter shed_overflow_;
  obs::Counter shed_predicted_;
  obs::Counter eps_widened_;
  obs::Counter batches_;
  obs::Counter batched_queries_;
  // Queue wait split by predicted-cost class
  // (rtr_serve_queue_wait_ms{class=...}).
  std::array<LatencyHistogram, kNumCostClasses> class_queue_wait_;

  // Per-query phase tracing: per-phase histograms fed by traced queries,
  // plus a small ring of the slowest queries' JSON dumps.
  std::atomic<bool> tracing_{false};
  std::array<LatencyHistogram, obs::kNumPhases> phase_latencies_;
  std::atomic<uint64_t> next_query_id_{0};
  mutable std::mutex traces_mu_;
  // Sorted slowest-first, capped at options_.trace_keep.
  std::vector<std::pair<double, std::string>> slowest_traces_;

  // Dist-live restripes drop the retired cluster's counters; the
  // per-GP traffic folded in here (guarded by cluster_mu_) keeps the
  // rtr_dist_* callback counters monotone across generations.
  std::vector<uint64_t> dist_retired_requests_;
  std::vector<uint64_t> dist_retired_records_;
  std::vector<uint64_t> dist_retired_bytes_;
  // Wall time of each dist-live restripe (rtr_dist_restripe_ms).
  LatencyHistogram restripe_latencies_;

  // Declared last: unregisters before any of the metrics above die.
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace rtr::serve

#endif  // RTR_SERVE_QUERY_SERVICE_H_
