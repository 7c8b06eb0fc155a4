#include "serve/query_service.h"

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "util/logging.h"

namespace rtr::serve {

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kLocal:
      return "local";
    case Backend::kDistributed:
      return "distributed";
  }
  return "unknown";
}

namespace {

// The single-generation store a fixed cluster is served from. Nothing
// outside the service can reach it, so it never advances and the cluster
// (possibly remote) is never restriped.
std::shared_ptr<GraphStore> StoreOf(const dist::Cluster* cluster) {
  CHECK(cluster != nullptr) << "a query service needs a cluster";
  return std::make_shared<GraphStore>(cluster->graph_ptr(),
                                      cluster->generation());
}

// Stripes the store's current generation eagerly so the first queries
// don't all pile up on the striping mutex.
std::shared_ptr<const dist::Cluster> StripeCurrent(const GraphStore* store,
                                                   int num_gps) {
  CHECK(store != nullptr) << "a query service needs a graph store";
  PinnedGraph pinned = store->Pin();
  return std::make_shared<const dist::Cluster>(pinned.graph, num_gps,
                                               pinned.generation);
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const Graph> graph,
                           const ServiceOptions& options)
    : QueryService(std::make_shared<GraphStore>(std::move(graph)), nullptr,
                   options) {}

QueryService::QueryService(std::shared_ptr<GraphStore> store,
                           const ServiceOptions& options)
    : QueryService(std::move(store), nullptr, options) {}

QueryService::QueryService(std::shared_ptr<const dist::Cluster> cluster,
                           const ServiceOptions& options)
    : QueryService(StoreOf(cluster.get()), cluster, options) {}

QueryService::QueryService(std::shared_ptr<GraphStore> store, int num_gps,
                           const ServiceOptions& options)
    : QueryService(store, StripeCurrent(store.get(), num_gps), options) {}

QueryService::QueryService(std::shared_ptr<GraphStore> store,
                           std::shared_ptr<const dist::Cluster> cluster,
                           const ServiceOptions& options)
    : store_(std::move(store)),
      cluster_(std::move(cluster)),
      backend_(cluster_ != nullptr ? Backend::kDistributed : Backend::kLocal),
      options_(options),
      admission_(options.scheduler),
      cache_(options.cache_capacity, options.cache_shards) {
  CHECK(store_ != nullptr) << "a query service needs a graph store";
  CHECK_GE(options_.num_workers, 1);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  if (!admission_.enabled) {  // the FIFO configuration (see admission_)
    admission_.batch_size = 1;
    admission_.eps_max = 0.0;
  }
  admission_.batch_size = std::max<size_t>(1, admission_.batch_size);
  last_seen_generation_.store(store_->generation(),
                              std::memory_order_relaxed);
  tracing_.store(options_.enable_tracing, std::memory_order_relaxed);
  RegisterMetrics();
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::RegisterMetrics() {
  const obs::Labels labels = {{"backend", BackendName(backend_)}};
  auto& registry = obs::MetricsRegistry::Default();
  registrations_.push_back(
      registry.RegisterCounter("rtr_serve_accepted_total", labels,
                               &accepted_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_serve_rejected_total", labels, &rejected_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_serve_completed_total", labels, &completed_));
  registrations_.push_back(
      registry.RegisterCounter("rtr_serve_failed_total", labels, &failed_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_serve_slo_violations_total", labels, &slo_violations_));
  registrations_.push_back(registry.RegisterHistogram(
      "rtr_serve_latency_ms", labels, &latencies_));
  registrations_.push_back(registry.RegisterCallbackGauge(
      "rtr_serve_queue_depth", labels, [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<double>(queue_.size());
      }));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_sched_shed_overflow_total", labels, &shed_overflow_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_sched_shed_predicted_total", labels, &shed_predicted_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_sched_eps_widened_total", labels, &eps_widened_));
  registrations_.push_back(
      registry.RegisterCounter("rtr_sched_batches_total", labels, &batches_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_sched_batched_queries_total", labels, &batched_queries_));
  for (size_t c = 0; c < kNumCostClasses; ++c) {
    obs::Labels class_labels = labels;
    class_labels.emplace_back("class",
                              CostClassName(static_cast<CostClass>(c)));
    registrations_.push_back(registry.RegisterHistogram(
        "rtr_serve_queue_wait_ms", std::move(class_labels),
        &class_queue_wait_[c]));
  }
  registrations_.push_back(registry.RegisterCallbackGauge(
      "rtr_serve_qps", labels, [this] {
        double elapsed = 0.0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!started_) return 0.0;
          elapsed = frozen_elapsed_seconds_ >= 0.0
                        ? frozen_elapsed_seconds_
                        : uptime_.ElapsedSeconds();
        }
        if (elapsed <= 0.0) return 0.0;
        return static_cast<double>(completed_.value()) / elapsed;
      }));
  registrations_.push_back(registry.RegisterCallbackGauge(
      "rtr_serve_generation", labels, [this] {
        return static_cast<double>(
            last_seen_generation_.load(std::memory_order_relaxed));
      }));
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    obs::Labels phase_labels = labels;
    phase_labels.emplace_back("phase",
                              obs::PhaseName(static_cast<obs::Phase>(p)));
    registrations_.push_back(registry.RegisterHistogram(
        "rtr_query_phase_ms", std::move(phase_labels),
        &phase_latencies_[p]));
  }
  if (backend_ != Backend::kDistributed) return;
  registrations_.push_back(registry.RegisterHistogram(
      "rtr_dist_restripe_ms", labels, &restripe_latencies_));
  // Per-shard traffic series. The callbacks fold in traffic retired by
  // dist-live restripes (dist_retired_*) so the counters stay monotone
  // across generations; cluster_mu_ nests inside the registry mutex.
  const int num_gps = cluster_->num_gps();
  dist_retired_requests_.assign(static_cast<size_t>(num_gps), 0);
  dist_retired_records_.assign(static_cast<size_t>(num_gps), 0);
  dist_retired_bytes_.assign(static_cast<size_t>(num_gps), 0);
  for (int gp = 0; gp < num_gps; ++gp) {
    const obs::Labels gp_labels = {{"gp", std::to_string(gp)}};
    const size_t g = static_cast<size_t>(gp);
    const int gp_index = gp;
    registrations_.push_back(registry.RegisterCallbackCounter(
        "rtr_dist_fetch_requests_total", gp_labels, [this, g, gp_index] {
          std::lock_guard<std::mutex> lock(cluster_mu_);
          return dist_retired_requests_[g] +
                 cluster_->fetch_requests(gp_index);
        }));
    registrations_.push_back(registry.RegisterCallbackCounter(
        "rtr_dist_records_served_total", gp_labels, [this, g, gp_index] {
          std::lock_guard<std::mutex> lock(cluster_mu_);
          return dist_retired_records_[g] +
                 cluster_->records_served(gp_index);
        }));
    registrations_.push_back(registry.RegisterCallbackCounter(
        "rtr_dist_bytes_served_total", gp_labels, [this, g, gp_index] {
          std::lock_guard<std::mutex> lock(cluster_mu_);
          return dist_retired_bytes_[g] + cluster_->bytes_served(gp_index);
        }));
  }
  // Wire-level traffic summed over all GP peers. A loopback cluster moves
  // no wire bytes and reports 0; only a fixed cluster can be remote, and it
  // is never restriped, so no retired-counter fold is needed.
  struct WireField {
    const char* name;
    uint64_t dist::WireTraffic::* field;
  };
  static constexpr WireField kWireFields[] = {
      {"rtr_net_frames_sent_total", &dist::WireTraffic::frames_sent},
      {"rtr_net_frames_received_total", &dist::WireTraffic::frames_received},
      {"rtr_net_bytes_sent_total", &dist::WireTraffic::bytes_sent},
      {"rtr_net_bytes_received_total", &dist::WireTraffic::bytes_received},
      {"rtr_net_retries_total", &dist::WireTraffic::retries},
      {"rtr_net_reconnects_total", &dist::WireTraffic::reconnects},
      {"rtr_net_timeouts_total", &dist::WireTraffic::timeouts},
      {"rtr_net_sheds_total", &dist::WireTraffic::sheds},
  };
  for (const WireField& wf : kWireFields) {
    registrations_.push_back(registry.RegisterCallbackCounter(
        wf.name, labels, [this, field = wf.field] {
          std::lock_guard<std::mutex> lock(cluster_mu_);
          return cluster_->total_wire().*field;
        }));
  }
}

void QueryService::RecordTrace(const obs::TraceRecorder& trace,
                               double total_millis) {
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    const obs::Phase phase = static_cast<obs::Phase>(p);
    if (trace.PhaseSpanCount(phase) > 0) {
      phase_latencies_[p].Record(trace.PhaseMillis(phase));
    }
  }
  const size_t keep = std::max<size_t>(1, options_.trace_keep);
  std::lock_guard<std::mutex> lock(traces_mu_);
  if (slowest_traces_.size() >= keep &&
      total_millis <= slowest_traces_.back().first) {
    return;
  }
  auto it = std::upper_bound(
      slowest_traces_.begin(), slowest_traces_.end(), total_millis,
      [](double t, const auto& entry) { return t > entry.first; });
  slowest_traces_.emplace(it, total_millis, trace.ToJson());
  if (slowest_traces_.size() > keep) slowest_traces_.pop_back();
}

std::vector<std::string> QueryService::SlowestTraces() const {
  std::lock_guard<std::mutex> lock(traces_mu_);
  std::vector<std::string> out;
  out.reserve(slowest_traces_.size());
  for (const auto& [millis, json] : slowest_traces_) out.push_back(json);
  return out;
}

Status QueryService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) {
    return Status::FailedPrecondition("service already started");
  }
  started_ = true;
  uptime_.Restart();
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryService::WorkerLoop, this);
  }
  return Status::OK();
}

void QueryService::Shutdown() {
  // Serializes concurrent Shutdown calls: a second caller blocks here until
  // the first has drained and joined, so "idempotent" also means "safe to
  // race" (e.g., an explicit Shutdown racing the destructor's).
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Never-started services have no workers to drain the queue: complete the
  // admitted requests here so every accepted callback fires exactly once.
  std::vector<Task> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!queue_.empty()) orphaned.push_back(queue_.Pop());
    if (started_ && frozen_elapsed_seconds_ < 0.0) {
      frozen_elapsed_seconds_ = uptime_.ElapsedSeconds();
    }
  }
  for (Task& task : orphaned) {
    ServeResponse response;
    response.status = Status::Unavailable("service shut down before execution");
    response.queue_millis = task.admitted.ElapsedMillis();
    response.total_millis = response.queue_millis;
    response.effective_epsilon = task.request.params.epsilon;
    completed_.Increment();
    failed_.Increment();
    if (task.done) task.done(response);
  }
}

Status QueryService::SubmitAsync(ServeRequest request, DoneCallback done) {
  Task task;
  task.request = std::move(request);
  task.done = std::move(done);
  // Admission-time cost estimate against the currently published
  // generation: two offset subtractions per query node, no allocation.
  // Execution may pin a newer generation — the estimate is a scheduling
  // hint, not a contract.
  task.features = CostFeaturesOf(*store_->Current(), task.request.query,
                                 task.request.params);
  task.predicted_millis = cost_model_.PredictMillis(task.features);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      rejected_.Increment();
      return Status::Unavailable("service is shutting down");
    }
    const size_t depth = queue_.size();
    if (depth >= options_.queue_capacity) {
      rejected_.Increment();
      shed_overflow_.Increment();
      return Status::Unavailable(
          "admission queue full (capacity " +
          std::to_string(options_.queue_capacity) + ")");
    }
    // Decayed mean of predictions anchors the cheap/moderate/heavy split.
    mean_predicted_millis_ =
        mean_predicted_millis_ <= 0.0
            ? task.predicted_millis
            : 0.9 * mean_predicted_millis_ + 0.1 * task.predicted_millis;
    task.cost_class =
        ClassifyCost(task.predicted_millis, mean_predicted_millis_);
    if (admission_.enabled && task.request.deadline_millis > 0.0) {
      const double completion = PredictedCompletionMillis(
          queue_.total_predicted_millis(), options_.num_workers,
          task.predicted_millis);
      if (completion > task.request.deadline_millis) {
        rejected_.Increment();
        shed_predicted_.Increment();
        return Status::Unavailable(
            "predicted completion " + std::to_string(completion) +
            "ms exceeds deadline " +
            std::to_string(task.request.deadline_millis) + "ms");
      }
    }
    task.effective_epsilon = EffectiveEpsilon(
        task.request.params.epsilon, admission_, depth,
        options_.queue_capacity);
    if (task.effective_epsilon != task.request.params.epsilon) {
      eps_widened_.Increment();
    }
    const double arrival = arrival_clock_.ElapsedMillis();
    const double key = admission_.enabled
                           ? PriorityKey(task.predicted_millis, arrival)
                           : arrival;
    task.admitted.Restart();
    queue_.Push(key, task.predicted_millis, std::move(task));
    // Count inside the critical section so no observer ever sees a task
    // completed before it was accepted.
    accepted_.Increment();
  }
  queue_cv_.notify_one();
  return Status::OK();
}

StatusOr<ServeResponse> QueryService::Call(const ServeRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return Status::FailedPrecondition(
          "Call requires a started service (no worker would ever answer)");
    }
  }
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  RTR_RETURN_IF_ERROR(SubmitAsync(
      request, [&promise](const ServeResponse& r) { promise.set_value(r); }));
  return future.get();
}

void QueryService::WorkerLoop() {
  // The worker's reusable query arena: sized on the first query, then
  // allocation-free for the rest of the worker's life (DESIGN.md §7).
  core::QueryWorkspace workspace;
  // The worker's trace recorder, reused across queries; only wired into
  // the workspace while tracing is on.
  obs::TraceRecorder trace;
  std::vector<Task> batch;
  batch.reserve(admission_.batch_size);
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      // Fair drain: take up to batch_size, but leave work behind for idle
      // peers — a worker only batches beyond one query when the queue is
      // deeper than the pool could cover one-each.
      const size_t workers = static_cast<size_t>(options_.num_workers);
      const size_t take = std::min(admission_.batch_size,
                                   1 + (queue_.size() - 1) / workers);
      while (batch.size() < take) batch.push_back(queue_.Pop());
    }
    // One generation pin, observe-generation cache walk, and (in dist-live
    // mode) restripe check amortized over the whole batch; the workspace
    // stays warm across its queries, so a batch of repeats of one hot
    // query also reuses the teleport vector (core/workspace.h).
    std::shared_ptr<const dist::Cluster> cluster;
    WallTimer pin_timer;
    PinnedGraph pinned = PinForQuery(&cluster);
    const double pin_millis = pin_timer.ElapsedMillis();
    ObserveGeneration(pinned.generation);
    if (admission_.enabled) {
      batches_.Increment();
      batched_queries_.Add(batch.size());
    }
    for (Task& task : batch) {
      RunTask(task, pinned, cluster.get(), pin_millis, &workspace, &trace);
    }
  }
}

void QueryService::RunTask(Task& task, const PinnedGraph& pinned,
                           const dist::Cluster* cluster, double pin_millis,
                           core::QueryWorkspace* workspace,
                           obs::TraceRecorder* trace) {
  ServeResponse response;
  // The batch pin ran after this task left the queue and is traced as its
  // own phase, so it is not part of the wait.
  response.queue_millis =
      std::max(0.0, task.admitted.ElapsedMillis() - pin_millis);
  response.effective_epsilon = task.effective_epsilon;
  if (admission_.enabled) response.predicted_millis = task.predicted_millis;
  response.generation = pinned.generation;
  class_queue_wait_[static_cast<size_t>(task.cost_class)].Record(
      response.queue_millis);
  const bool traced = tracing_.load(std::memory_order_relaxed);
  if (traced) {
    trace->BeginQuery(static_cast<int64_t>(
        next_query_id_.fetch_add(1, std::memory_order_relaxed)));
    // Wait, then pin, laid end to end up to now.
    const int64_t pin_nanos = static_cast<int64_t>(pin_millis * 1e6);
    const int64_t now = trace->NowNanos();
    trace->AddSpanAt(
        admission_.enabled ? obs::Phase::kSchedWait : obs::Phase::kQueueWait,
        now - pin_nanos, static_cast<int64_t>(response.queue_millis * 1e6));
    trace->AddSpanAt(obs::Phase::kGenerationPin, now, pin_nanos);
    workspace->trace = trace;
  } else {
    workspace->trace = nullptr;
  }
  // The widened epsilon is what actually runs — and what the cache keys
  // on, so a widened answer is never returned to a full-precision request
  // (or vice versa).
  core::TopKParams effective_params = task.request.params;
  effective_params.epsilon = task.effective_epsilon;
  double engine_millis = -1.0;
  Execute(task.request.query, effective_params, pinned, cluster, &response,
          workspace, &engine_millis);
  response.total_millis = task.admitted.ElapsedMillis();
  if (traced) {
    workspace->trace = nullptr;
    RecordTrace(*trace, response.total_millis);
  }
  latencies_.Record(response.total_millis);
  if (response.total_millis > options_.slo_millis) {
    slo_violations_.Increment();
  }
  if (!response.status.ok()) {
    failed_.Increment();
  }
  completed_.Increment();
  // Close the online-learning loop on engine runs only: a cache hit
  // carries no signal about engine cost.
  if (engine_millis >= 0.0 && response.status.ok()) {
    cost_model_.Observe(task.features, engine_millis);
  }
  if (task.done) task.done(response);
}

void QueryService::Execute(const Query& query, const core::TopKParams& params,
                           const PinnedGraph& pinned,
                           const dist::Cluster* cluster,
                           ServeResponse* response,
                           core::QueryWorkspace* workspace,
                           double* engine_millis) {
  CacheKey key;
  if (options_.enable_cache) {
    key = CacheKey::Of(query, params, pinned.generation);
    // The deep copy into the response happens here, outside the shard lock.
    obs::ScopedSpan span(workspace->trace, obs::Phase::kCacheLookup);
    if (std::shared_ptr<const core::TopKResult> hit = cache_.Lookup(key)) {
      response->topk = *hit;
      response->cache_hit = true;
      return;
    }
  }
  WallTimer engine_timer;
  if (backend_ == Backend::kLocal) {
    // Engine output lands directly in the response's result object; all
    // O(num_nodes) scratch comes from the worker's arena.
    response->status = core::TopKRoundTripRank(*pinned.graph, query, params,
                                               *workspace, &response->topk);
  } else {
    StatusOr<dist::DistributedTopKResult> result =
        dist::DistributedTopK(*cluster, query, params, *workspace);
    response->status = result.status();
    if (result.ok()) response->topk = std::move(result->topk);
  }
  *engine_millis = engine_timer.ElapsedMillis();
  if (options_.enable_cache && response->status.ok()) {
    cache_.Insert(key, response->topk);
  }
}

PinnedGraph QueryService::PinForQuery(
    std::shared_ptr<const dist::Cluster>* cluster) {
  PinnedGraph pinned = store_->Pin();
  if (backend_ == Backend::kLocal) return pinned;
  // Serve from a cluster striped off the store's current generation. A
  // fixed cluster's store never advances, so only dist-live restripes: the
  // first worker to pin a new generation restripes while holding
  // cluster_mu_ (its GPs view the pinned graph, so the only per-node work
  // is each GP's degree sum; queries already holding the retired
  // cluster's shared_ptr keep draining untouched). If another worker
  // already striped a generation NEWER than our pin, serve from that: a
  // query must never run on a cluster older than the generation key it
  // caches under.
  std::lock_guard<std::mutex> lock(cluster_mu_);
  if (cluster_->generation() < pinned.generation) {
    // Fold the retired cluster's traffic into the retained totals so the
    // per-GP callback counters stay monotone across restripes.
    const int num_gps = cluster_->num_gps();
    for (int gp = 0; gp < num_gps; ++gp) {
      const size_t g = static_cast<size_t>(gp);
      dist_retired_requests_[g] += cluster_->fetch_requests(gp);
      dist_retired_records_[g] += cluster_->records_served(gp);
      dist_retired_bytes_[g] += cluster_->bytes_served(gp);
    }
    WallTimer restripe_timer;
    cluster_ = std::make_shared<const dist::Cluster>(pinned.graph, num_gps,
                                                     pinned.generation);
    const double restripe_millis = restripe_timer.ElapsedMillis();
    restripe_latencies_.Record(restripe_millis);
    LOG(INFO) << "restriping generation " << pinned.generation << " across "
              << num_gps << " graph processors took " << restripe_millis
              << " ms";
  } else if (cluster_->generation() > pinned.generation) {
    pinned = PinnedGraph{cluster_->graph_ptr(), cluster_->generation()};
  }
  *cluster = cluster_;
  return pinned;
}

void QueryService::ObserveGeneration(uint64_t generation) {
  uint64_t seen = last_seen_generation_.load(std::memory_order_relaxed);
  while (seen < generation) {
    if (last_seen_generation_.compare_exchange_weak(
            seen, generation, std::memory_order_relaxed)) {
      // Exactly one worker wins the raise for each swap and pays the
      // cache walk; entries under older generations are unreachable
      // anyway (the generation is part of the key), so this is memory
      // reclamation, not correctness.
      cache_.EvictGenerationsBelow(generation);
      return;
    }
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats stats;
  stats.accepted = accepted_.value();
  stats.rejected = rejected_.value();
  stats.shed_overflow = shed_overflow_.value();
  stats.shed_predicted = shed_predicted_.value();
  stats.completed = completed_.value();
  stats.failed = failed_.value();
  stats.slo_violations = slo_violations_.value();
  stats.eps_widened = eps_widened_.value();
  stats.batches = batches_.value();
  stats.batched_queries = batched_queries_.value();
  for (size_t c = 0; c < kNumCostClasses; ++c) {
    const uint64_t count = class_queue_wait_[c].Count();
    stats.queue_wait[c].count = count;
    stats.queue_wait[c].mean_millis =
        count > 0 ? class_queue_wait_[c].SumMillis() /
                        static_cast<double>(count)
                  : 0.0;
    stats.queue_wait[c].p99_millis = class_queue_wait_[c].P99();
  }
  CacheStats cache_stats = cache_.stats();
  stats.cache_hits = cache_stats.hits;
  stats.cache_misses = cache_stats.misses;
  stats.cache_insertions = cache_stats.insertions;
  stats.cache_evictions = cache_stats.evictions;
  stats.cache_invalidations = cache_stats.invalidations;
  stats.generation = last_seen_generation_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      stats.elapsed_seconds = frozen_elapsed_seconds_ >= 0.0
                                  ? frozen_elapsed_seconds_
                                  : uptime_.ElapsedSeconds();
    }
  }
  if (stats.elapsed_seconds > 0.0) {
    stats.qps = static_cast<double>(stats.completed) / stats.elapsed_seconds;
  }
  stats.p50_millis = latencies_.P50();
  stats.p95_millis = latencies_.P95();
  stats.p99_millis = latencies_.P99();
  return stats;
}

}  // namespace rtr::serve
