#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/logging.h"

namespace rtr::obs {
namespace {

// Shortest-ish round-trippable double formatting.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Escapes a label value for the text exposition: backslash escapes for
// quote, backslash and newline.
std::string EscapeValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// `{k1="v1",k2="v2"}`, empty string for no labels.
std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first + "=\"" + EscapeValue(labels[i].second) + "\"";
  }
  out.push_back('}');
  return out;
}

// Same labels with one extra pair appended (for histogram `le` bounds).
std::string RenderLabelsWith(const Labels& labels, const std::string& key,
                             const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return RenderLabels(extended);
}

}  // namespace

MetricsRegistry::Registration& MetricsRegistry::Registration::operator=(
    Registration&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
  }
  return *this;
}

void MetricsRegistry::Registration::Release() {
  if (registry_ != nullptr) {
    registry_->Remove(id_);
    registry_ = nullptr;
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: see the class comment — worker threads may still
  // write metrics while static destructors run.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Registration MetricsRegistry::Add(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.id = next_id_++;
  const uint64_t id = entry.id;
  entries_.push_back(std::move(entry));
  return Registration(this, id);
}

void MetricsRegistry::Remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [id](const Entry& e) { return e.id == id; });
}

MetricsRegistry::Registration MetricsRegistry::RegisterCounter(
    const std::string& name, Labels labels, const Counter* metric) {
  CHECK(metric != nullptr);
  return RegisterCallbackCounter(name, std::move(labels),
                                 [metric] { return metric->value(); });
}

MetricsRegistry::Registration MetricsRegistry::RegisterHistogram(
    const std::string& name, Labels labels, const LatencyHistogram* metric) {
  CHECK(metric != nullptr);
  return Add({.name = name, .labels = std::move(labels),
              .kind = Kind::kHistogram, .histogram = metric});
}

MetricsRegistry::Registration MetricsRegistry::RegisterCallbackGauge(
    const std::string& name, Labels labels, std::function<double()> fn) {
  CHECK(fn != nullptr);
  return Add({.name = name, .labels = std::move(labels), .kind = Kind::kGauge,
              .gauge_fn = std::move(fn)});
}

MetricsRegistry::Registration MetricsRegistry::RegisterCallbackCounter(
    const std::string& name, Labels labels, std::function<uint64_t()> fn) {
  CHECK(fn != nullptr);
  return Add({.name = name, .labels = std::move(labels),
              .kind = Kind::kCounter, .counter_fn = std::move(fn)});
}

size_t MetricsRegistry::NumSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Collect() const {
  // Sampled and merged under the mutex: borrowed metrics cannot be
  // unregistered mid-render, and duplicate series collapse into one.
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::pair<std::string, Labels>, Sample> merged;
  for (const Entry& e : entries_) {
    Sample& sample = merged[{e.name, e.labels}];
    if (sample.name.empty()) {
      sample.name = e.name;
      sample.labels = e.labels;
      sample.kind = e.kind;
    }
    switch (e.kind) {
      case Kind::kCounter:
        sample.counter_value += e.counter_fn();
        break;
      case Kind::kGauge:
        sample.gauge_value += e.gauge_fn();
        break;
      case Kind::kHistogram:
        sample.histogram_value.Merge(e.histogram->TakeSnapshot());
        break;
    }
  }
  std::vector<Sample> samples;
  samples.reserve(merged.size());
  for (auto& [key, sample] : merged) samples.push_back(std::move(sample));
  return samples;  // std::map iteration order: sorted by (name, labels)
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  std::string last_name;
  for (const Sample& s : Collect()) {
    if (s.name != last_name) {
      const char* type = s.kind == Kind::kCounter   ? "counter"
                         : s.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
      out += "# TYPE " + s.name + " " + type + "\n";
      last_name = s.name;
    }
    switch (s.kind) {
      case Kind::kCounter:
        out += s.name + RenderLabels(s.labels) + " " +
               std::to_string(s.counter_value) + "\n";
        break;
      case Kind::kGauge:
        out += s.name + RenderLabels(s.labels) + " " +
               FormatDouble(s.gauge_value) + "\n";
        break;
      case Kind::kHistogram: {
        // Sparse cumulative buckets: a line per bucket where the count
        // grows, plus the mandatory +Inf line.
        const LatencyHistogram::Snapshot& h = s.histogram_value;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
          if (h.buckets[i] == 0) continue;
          cumulative += h.buckets[i];
          out += s.name + "_bucket" +
                 RenderLabelsWith(
                     s.labels, "le",
                     FormatDouble(LatencyHistogram::BucketLowerEdge(i + 1))) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += s.name + "_bucket" + RenderLabelsWith(s.labels, "le", "+Inf") +
               " " + std::to_string(h.count) + "\n";
        out += s.name + "_sum" + RenderLabels(s.labels) + " " +
               FormatDouble(h.sum_millis) + "\n";
        out += s.name + "_count" + RenderLabels(s.labels) + " " +
               std::to_string(h.count) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace rtr::obs
