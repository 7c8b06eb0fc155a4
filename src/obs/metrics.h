#ifndef RTR_OBS_METRICS_H_
#define RTR_OBS_METRICS_H_

// Process-wide metrics registry (DESIGN.md §9).
//
// The one place the serving tier's signals meet: subsystems register named
// metrics once at setup time, keep writing them lock-free on their hot
// paths, and any reader renders a consistent-enough snapshot of everything
// at once as a Prometheus-style text exposition (RenderText).
//
// Two metric shapes:
//  * Counter   — monotonic u64, one relaxed fetch_add per bump;
//  * Histogram — util::LatencyHistogram (wait-free bucketed samples).
// Gauges are callbacks sampled at render time (generation ids, cache
// occupancy, QPS, the kernel pool's width): a derived value, never stored.
//
// One registration style: the component owns its metrics as ordinary
// members, registers each one (`RegisterCounter(name, labels, &counter)`)
// and keeps the returned RAII Registration, which unregisters the series on
// destruction, so a component's series leave the exposition exactly when
// the component does. Process-global components (the util::ParallelFor
// pool, the snapshot loader's mmap-fallback counter) are leaked, so their
// series stay for the life of the process. serve::QueryService keeps
// ServiceStats as a snapshot view over its registered counters.
//
// Duplicate series (same name + labels, e.g. two QueryServices in one test
// process) are legal at registration and merged at render time: counters
// and gauges sum, histograms merge bucket-wise — the exposition never emits
// the same series twice (tests/cli/rtr_cli_metrics_test.sh checks this).
//
// Thread safety: metric writes are lock-free and may race renders freely
// (the TSan job covers many writers + a rendering reader). Registration,
// unregistration, and rendering serialize on one mutex. Render-time
// callbacks run under that mutex, so the lock order is always registry →
// component: a callback must not call back into the registry, nor wait on
// a lock its component holds while registering.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/latency_histogram.h"

namespace rtr::obs {

// Sorted-by-construction label set. Keep values short and low-cardinality
// (backend names, phase names, shard ids) — every distinct label set is one
// series in the exposition.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonic counter. Wait-free writes; value() may be read concurrently.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class MetricsRegistry {
 public:
  // RAII handle for one registered series: unregisters on destruction, so
  // a component's metrics disappear from the exposition exactly when the
  // component does. Movable, not copyable; a default-constructed handle is
  // empty.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept
        : registry_(other.registry_), id_(other.id_) {
      other.registry_ = nullptr;
    }
    Registration& operator=(Registration&& other) noexcept;
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { Release(); }

    void Release();

   private:
    friend class MetricsRegistry;
    Registration(MetricsRegistry* registry, uint64_t id)
        : registry_(registry), id_(id) {}

    MetricsRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry (leaked on purpose: metrics must stay
  // writable from worker threads that may outlive static destruction).
  static MetricsRegistry& Default();

  // `metric` must outlive the returned Registration.
  [[nodiscard]] Registration RegisterCounter(const std::string& name,
                                             Labels labels,
                                             const Counter* metric);
  [[nodiscard]] Registration RegisterHistogram(
      const std::string& name, Labels labels,
      const LatencyHistogram* metric);

  // Render-time sampled series for derived values. The callback runs under
  // the registry mutex: it must be cheap and must not call back into the
  // registry. Callback counters must return monotonically non-decreasing
  // values (they render as counters).
  [[nodiscard]] Registration RegisterCallbackGauge(
      const std::string& name, Labels labels, std::function<double()> fn);
  [[nodiscard]] Registration RegisterCallbackCounter(
      const std::string& name, Labels labels, std::function<uint64_t()> fn);

  // Prometheus-style text exposition: `# TYPE` comments, `_total`-suffixed
  // counter conventions left to the caller's names, histograms as sparse
  // cumulative `_bucket{le=...}` lines plus `_sum`/`_count`. Series are
  // sorted by (name, labels) and duplicates are merged, so the output is
  // deterministic for a given set of values.
  std::string RenderText() const;

  // Registered series count (before duplicate merging); test hook.
  size_t NumSeries() const;

 private:
  // How a series renders. A borrowed Counter is sampled through a counter
  // callback, so an entry holds one of: counter_fn, gauge_fn, histogram.
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    uint64_t id = 0;
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    std::function<uint64_t()> counter_fn = nullptr;
    std::function<double()> gauge_fn = nullptr;
    const LatencyHistogram* histogram = nullptr;
  };

  // One merged series, sampled under the mutex.
  struct Sample {
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    uint64_t counter_value = 0;
    double gauge_value = 0.0;
    LatencyHistogram::Snapshot histogram_value;
  };

  Registration Add(Entry entry);
  void Remove(uint64_t id);
  // Sampled, merged, sorted view of every series (locks mu_).
  std::vector<Sample> Collect() const;

  friend class Registration;

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  uint64_t next_id_ = 1;
};

}  // namespace rtr::obs

#endif  // RTR_OBS_METRICS_H_
