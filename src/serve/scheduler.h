#ifndef RTR_SERVE_SCHEDULER_H_
#define RTR_SERVE_SCHEDULER_H_

// Cost-model admission scheduling for the serve path (DESIGN.md §11).
//
// This header holds the scheduling *policy* — pure, allocation-light,
// deterministically testable pieces — and the admission queue that
// QueryService runs in both modes. With SchedulerOptions::enabled off the
// service configures it as FIFO (arrival-order key, batches of one, no
// deadline shedding, no widening); with it on:
//
//  * PriorityKey: shortest-predicted-job-first with an age-based
//    anti-starvation boost. The trick is that the key is computed once at
//    admission and never re-keyed: a query's dynamic priority is
//    predicted_ms − age·boost, and since age = now − arrival, ordering two
//    queries by it is equivalent to ordering by the static key
//    predicted_ms + arrival_ms·boost (the −now·boost term is common to
//    every entry at compare time). A plain binary heap therefore suffices;
//    an expensive query is overtaken by cheaper arrivals for at most
//    Δpredicted/boost milliseconds before its head start wins.
//
//  * PredictedCompletionMillis + deadline shedding: admission rejects a
//    request whose predicted completion (queued predicted work divided
//    across the pool, plus its own predicted cost) blows its deadline —
//    shedding the queries that were going to miss anyway, at admission
//    time, instead of evicting the queue tail after they soaked up memory
//    and wait time.
//
//  * EffectiveEpsilon: adaptive precision under load. Past a queue-depth
//    watermark epsilon widens linearly toward eps_max (degrade precision,
//    not availability), quantized to a few steps so the result cache sees a
//    handful of effective epsilons instead of a continuum of keys.
//
//  * AdmissionQueue<TaskT>: a min-key binary heap with FIFO sequence
//    tie-break and a running sum of queued predicted cost (the backlog
//    input to deadline shedding). Externally synchronized — QueryService
//    operates it under its admission mutex.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rtr::serve {

struct SchedulerOptions {
  // Master switch. Off runs QueryService's admission queue as FIFO:
  // arrival-order key, batch_size 1, no deadline shedding, no widening
  // (the fields below are ignored).
  bool enabled = false;
  // Most queued requests one worker drains into a single workspace-warm
  // batch (one generation pin + cache-evict check amortized across them).
  size_t batch_size = 8;
  // Predicted milliseconds forgiven per millisecond a request has waited.
  // 1.0 ≈ "a 5ms head start beats a 5ms cost advantage"; 0 is pure SJF
  // (starvation possible — not recommended outside experiments).
  double age_boost = 1.0;
  // Upper edge of the adaptive-epsilon band. <= the request's own epsilon
  // disables widening (the default 0 therefore turns the feature off).
  double eps_max = 0.0;
  // Fraction of queue capacity where epsilon starts widening.
  double queue_watermark = 0.5;
};

// Priority classes derived from predicted cost, used to split queue-wait
// reporting so degradation is observable per class, not inferred from an
// aggregate.
enum class CostClass : uint8_t {
  kCheap = 0,     // predicted < 0.5x the decayed mean prediction
  kModerate = 1,
  kHeavy = 2,     // predicted > 2x the decayed mean prediction
};
inline constexpr size_t kNumCostClasses = 3;

// Stable lowercase label value ("cheap", "moderate", "heavy").
const char* CostClassName(CostClass c);

CostClass ClassifyCost(double predicted_millis, double mean_predicted_millis);

// The static heap key described above. Lower = served sooner.
double PriorityKey(double predicted_millis, double arrival_millis,
                   double age_boost);

// Admission-time completion estimate: the queued predicted work spread
// across the pool, plus the request's own predicted cost. Ignores work
// already in flight on the workers — an under-estimate of roughly one
// batch, which errs on the side of admitting.
double PredictedCompletionMillis(double queued_predicted_millis,
                                 int num_workers, double own_predicted_millis);

// Epsilon widened for load: base below watermark·capacity, ramping
// linearly to eps_max at a full queue, quantized to kEpsilonSteps levels so
// cache keys stay few. Returns base whenever eps_max <= base.
inline constexpr int kEpsilonSteps = 4;
double EffectiveEpsilon(double base_epsilon, const SchedulerOptions& options,
                        size_t queue_depth, size_t queue_capacity);

// Min-key binary heap of admitted requests with a FIFO tie-break and a
// running total of queued predicted cost. Externally synchronized.
template <typename TaskT>
class AdmissionQueue {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Sum of predicted_millis over queued entries — the backlog term of
  // PredictedCompletionMillis.
  double total_predicted_millis() const { return total_predicted_millis_; }

  void Push(double key, double predicted_millis, TaskT task) {
    heap_.push_back(Item{key, next_seq_++, predicted_millis, std::move(task)});
    std::push_heap(heap_.begin(), heap_.end(), After);
    total_predicted_millis_ += predicted_millis;
  }

  // Removes and returns the minimum-key (soonest-served) entry.
  TaskT Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After);
    Item item = std::move(heap_.back());
    heap_.pop_back();
    total_predicted_millis_ -= item.predicted_millis;
    // The running sum is a float accumulator; pin it to exactly zero when
    // the queue empties so backlog never drifts negative.
    if (heap_.empty()) total_predicted_millis_ = 0.0;
    return std::move(item.task);
  }

 private:
  struct Item {
    double key;
    uint64_t seq;
    double predicted_millis;
    TaskT task;
  };

  // Heap comparator: std::push_heap keeps the comp-maximum first, so
  // "greater key (or later seq) compares less" puts the minimum key at the
  // front with FIFO order among equal keys.
  static bool After(const Item& a, const Item& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }

  std::vector<Item> heap_;
  uint64_t next_seq_ = 0;
  double total_predicted_millis_ = 0.0;
};

}  // namespace rtr::serve

#endif  // RTR_SERVE_SCHEDULER_H_
