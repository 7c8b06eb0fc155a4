#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace rtr::util {
namespace {

int DefaultNumThreads() {
  const char* env = std::getenv("RTR_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Persistent pool with static chunk assignment: a job publishes its chunk
// bounds once, participant p (p = 0 is the submitting caller) executes
// chunks c ≡ p (mod team) — no work-stealing, no shared counters in the
// chunk loop. All job state is published and reclaimed under one mutex, so
// the pool is trivially race-free (the CI TSan job covers it); workers
// check in exactly once per job generation, and the caller returns only
// after every worker has checked in, so job state never outlives a Run.
class Pool {
 public:
  static Pool& Instance() {
    // Leaked on purpose: worker threads must not be joined from static
    // destructors (they may still serve another static's destructor). The
    // pointer stays reachable, so LeakSanitizer does not report it.
    static Pool* pool = new Pool(DefaultNumThreads());
    return *pool;
  }

  int num_threads() {
    std::lock_guard<std::mutex> job_lock(job_mu_);
    return team_;
  }

  void SetNumThreads(int n) {
    if (n < 1) n = DefaultNumThreads();
    std::lock_guard<std::mutex> job_lock(job_mu_);  // no job in flight
    if (n == team_) return;
    StopWorkers();
    team_ = n;
    threads_.store(n, std::memory_order_relaxed);
    StartWorkers();
  }

  void Run(const size_t* bounds, size_t num_chunks, internal::ChunkFn fn,
           void* ctx) {
    if (num_chunks == 0) return;
    // One job at a time; concurrent callers queue here. Serializing before
    // the inline shortcut keeps the team_ read ordered after any resize.
    std::unique_lock<std::mutex> job_lock(job_mu_);
    const size_t team = static_cast<size_t>(team_);
    jobs_.Increment();
    chunks_.Add(num_chunks);
    if (team <= 1 || num_chunks <= 1) {
      inline_jobs_.Increment();
      participants_.Increment();  // the caller alone
      job_lock.unlock();
      // Same chunk-by-chunk execution as the parallel path: bit-identical.
      for (size_t c = 0; c < num_chunks; ++c) {
        fn(ctx, c, bounds[c], bounds[c + 1]);
      }
      return;
    }
    // Only as many participants as there are chunks: surplus workers wake
    // but neither execute nor check in, so the caller's completion wait
    // never depends on threads that own no work.
    const size_t participants = std::min(team, num_chunks);
    participants_.Add(participants);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_bounds_ = bounds;
      job_chunks_ = num_chunks;
      job_fn_ = fn;
      job_ctx_ = ctx;
      job_team_ = participants;
      workers_done_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
    // The caller is participant 0.
    for (size_t c = 0; c < num_chunks; c += participants) {
      fn(ctx, c, bounds[c], bounds[c + 1]);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return workers_done_ == job_team_ - 1; });
    job_fn_ = nullptr;
  }

 private:
  // Registers the pool-wide series (DESIGN.md §9): job/chunk throughput
  // plus a utilization ratio derivable as
  // participants_total / (jobs_total * threads). The pool is leaked, so
  // they are never released.
  explicit Pool(int team) : team_(std::max(1, team)), threads_(team_) {
    StartWorkers();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registrations_.push_back(
        registry.RegisterCounter("rtr_pool_jobs_total", {}, &jobs_));
    registrations_.push_back(registry.RegisterCounter(
        "rtr_pool_inline_jobs_total", {}, &inline_jobs_));
    registrations_.push_back(
        registry.RegisterCounter("rtr_pool_chunks_total", {}, &chunks_));
    registrations_.push_back(registry.RegisterCounter(
        "rtr_pool_participants_total", {}, &participants_));
    registrations_.push_back(
        registry.RegisterCallbackGauge("rtr_pool_threads", {}, [this] {
          return static_cast<double>(threads_.load(std::memory_order_relaxed));
        }));
  }

  void StartWorkers() {
    for (int p = 1; p < team_; ++p) {
      workers_.emplace_back(&Pool::WorkerLoop, this, static_cast<size_t>(p));
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = false;
  }

  void WorkerLoop(size_t participant) {
    uint64_t seen_generation = 0;
    for (;;) {
      const size_t* bounds;
      size_t chunks, team;
      internal::ChunkFn fn;
      void* ctx;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
        bounds = job_bounds_;
        chunks = job_chunks_;
        team = job_team_;
        fn = job_fn_;
        ctx = job_ctx_;
      }
      // Workers beyond the job's participant count own no chunks and must
      // not check in (the caller only waits on team - 1 check-ins).
      if (fn == nullptr || participant >= team) continue;
      for (size_t c = participant; c < chunks; c += team) {
        fn(ctx, c, bounds[c], bounds[c + 1]);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        // Count the check-in only if no newer job replaced the one this
        // worker saw (a worker woken by a resize or shutdown-restart would
        // otherwise check in for a generation it did no work for).
        if (generation_ == seen_generation) ++workers_done_;
      }
      done_cv_.notify_one();  // only the submitting caller waits
    }
  }

  std::mutex job_mu_;  // serializes Run/SetNumThreads; held for a whole job
  int team_;
  // Copy of team_ for the rtr_pool_threads gauge: a render runs it under the
  // registry mutex and must not wait on job_mu_, held for a whole job.
  std::atomic<int> threads_;
  obs::Counter jobs_, inline_jobs_, chunks_, participants_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_, done_cv_;
  uint64_t generation_ = 0;
  size_t workers_done_ = 0;
  bool shutdown_ = false;
  const size_t* job_bounds_ = nullptr;
  size_t job_chunks_ = 0;
  size_t job_team_ = 1;
  internal::ChunkFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
};

}  // namespace

int NumThreads() { return Pool::Instance().num_threads(); }

void SetNumThreads(int n) { Pool::Instance().SetNumThreads(n); }

size_t ChunkCount(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  size_t chunk = std::max(grain, (n + kMaxChunks - 1) / kMaxChunks);
  return (n + chunk - 1) / chunk;
}

size_t BalancedChunkBounds(const size_t* offsets, size_t n, size_t grain,
                           size_t* bounds) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  const size_t total = offsets[n] - offsets[0];
  size_t chunks = std::min<size_t>(kMaxChunks, std::max<size_t>(
      1, (total + grain - 1) / grain));
  chunks = std::min(chunks, n);  // at least one index per chunk boundary
  bounds[0] = 0;
  for (size_t c = 1; c < chunks; ++c) {
    // First index whose offset reaches the c-th equal share of the mass.
    const size_t target = offsets[0] + (total * c) / chunks;
    const size_t* it = std::upper_bound(offsets, offsets + n + 1, target);
    size_t split = static_cast<size_t>(it - offsets);
    split = split == 0 ? 0 : split - 1;
    bounds[c] = std::clamp(split, bounds[c - 1], n);
  }
  bounds[chunks] = n;
  return chunks;
}

namespace internal {

void ParallelForBounds(const size_t* bounds, size_t num_chunks, ChunkFn fn,
                       void* ctx) {
  Pool::Instance().Run(bounds, num_chunks, fn, ctx);
}

void ParallelForUniform(size_t n, size_t grain, ChunkFn fn, void* ctx) {
  const size_t num_chunks = ChunkCount(n, grain);
  if (num_chunks == 0) return;
  const size_t chunk =
      std::max(grain == 0 ? size_t{1} : grain, (n + kMaxChunks - 1) / kMaxChunks);
  size_t bounds[kMaxChunks + 1];
  for (size_t c = 0; c < num_chunks; ++c) bounds[c] = c * chunk;
  bounds[num_chunks] = n;
  Pool::Instance().Run(bounds, num_chunks, fn, ctx);
}

}  // namespace internal

}  // namespace rtr::util
