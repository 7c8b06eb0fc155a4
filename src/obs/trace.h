#ifndef RTR_OBS_TRACE_H_
#define RTR_OBS_TRACE_H_

// Per-query phase tracing (DESIGN.md §9).
//
// A TraceRecorder timestamps the phases one query passes through on its way
// to a top-K answer: admission-queue wait, generation pin, cache lookup,
// Stage I bound expansion, Stage II refinement, and heap/top-K finalize.
// The recorder is threaded through QueryWorkspace as a plain pointer that
// is null by default — every instrumentation site is a single branch on
// that pointer when tracing is off, which keeps the engine's zero-overhead
// and zero-allocation steady-state contracts intact (bench_micro records
// both configurations in BENCH_topk.json).
//
// Spans nest: BeginSpan/EndSpan pairs track an explicit depth so a dump
// shows Stage II sweeps inside the overall query span. Callers that
// already measured a duration themselves (e.g. the engine's geometric
// check boundaries, which deliberately read the clock O(log rounds) times
// instead of once per round) report it with AddSpan.
//
// A recorder belongs to one query on one thread; it is not thread-safe.
// Aggregation across queries happens by feeding PhaseMillis() into
// per-phase LatencyHistograms in the metrics registry.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace rtr::obs {

// The phase taxonomy. Keep in sync with PhaseName(); these names are the
// `phase` label values of the `rtr_query_phase_ms` histogram family.
enum class Phase : uint8_t {
  kQueueWait = 0,      // admission: enqueue -> worker pickup
  kGenerationPin = 1,  // pinning a graph generation (incl. restripe)
  kCacheLookup = 2,    // result-cache probe (and insert on miss)
  kStage1Expand = 3,   // Stage I: bound-convergence expansion rounds
  kStage2Refine = 4,   // Stage II: candidate refinement sweeps
  kFinalize = 5,       // candidate assembly, sort, top-K emit
  kSchedWait = 6,      // scheduler admission: enqueue -> batch drain pickup
};
inline constexpr size_t kNumPhases = 7;

// Stable lowercase label value for a phase ("queue_wait", "stage1_expand",
// ...).
const char* PhaseName(Phase phase);

// One recorded span. start_nanos is relative to the recorder's
// BeginQuery() epoch, so dumps are self-contained and diffable.
struct TraceSpan {
  Phase phase = Phase::kQueueWait;
  int32_t depth = 0;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
};

class TraceRecorder {
 public:
  // Spans beyond this are dropped (and counted); a query touching the cap
  // is pathological, not typical — Stage II sweeps are bounded by rounds.
  static constexpr size_t kMaxSpans = 4096;

  TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Resets the recorder for a new query and sets the relative-time epoch.
  // `query_id` is echoed into the JSON dump.
  void BeginQuery(int64_t query_id);

  // Opens a span for `phase` now; returns its index for EndSpan, or -1 if
  // the recorder is full (the drop is counted; EndSpan(-1) is a no-op).
  int32_t BeginSpan(Phase phase);

  // Closes the span opened by BeginSpan.
  void EndSpan(int32_t index);

  // Records an externally-timed span: `duration_nanos` of `phase` ending
  // now. Used where the caller batches its own clock reads.
  void AddSpan(Phase phase, int64_t duration_nanos);

  // Same, but the caller supplies the span's end as an absolute
  // steady_clock reading it already holds, so closing a segment costs the
  // engine exactly one clock read (the hot-loop variant; see
  // core/twosbound.cc's close_segment).
  void AddSpanAt(Phase phase, int64_t end_abs_nanos, int64_t duration_nanos);

  // Total time attributed to `phase` across top-level spans, in millis.
  // Nested spans are excluded from the total so phases sum to <= the
  // query's wall time.
  double PhaseMillis(Phase phase) const;

  // Top-level spans recorded for `phase`.
  uint64_t PhaseSpanCount(Phase phase) const;

  const std::vector<TraceSpan>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }
  int64_t query_id() const { return query_id_; }

  // Wall time from the earliest span start (backdated queue-wait spans
  // start before the BeginQuery epoch) to the latest span end, in millis.
  double TotalMillis() const;

  // One-line JSON object: query id, total, per-phase totals, and the span
  // list [{"phase","depth","start_us","dur_us"}].
  std::string ToJson() const;

  // The absolute steady_clock reading AddSpanAt takes as a span's end.
  int64_t NowNanos() const;

 private:
  int64_t query_id_ = 0;
  int64_t epoch_nanos_ = 0;
  int32_t open_depth_ = 0;
  std::vector<TraceSpan> spans_;
  std::array<int64_t, kNumPhases> phase_nanos_{};
  std::array<uint64_t, kNumPhases> phase_counts_{};
  int64_t last_end_nanos_ = 0;
  int64_t min_start_nanos_ = 0;  // backdated spans can start before the epoch
  uint64_t dropped_spans_ = 0;
};

// RAII wrapper for the common begin/end pattern. Null recorder → no-op;
// the disabled path is one pointer test.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, Phase phase)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->BeginSpan(phase) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->EndSpan(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  int32_t index_;
};

}  // namespace rtr::obs

#endif  // RTR_OBS_TRACE_H_
