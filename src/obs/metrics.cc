#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/logging.h"

namespace rtr::obs {
namespace {

// Shortest-ish round-trippable double formatting shared by both renderers.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Escapes a label value for the text exposition / JSON string contexts
// (both use backslash escapes for quote and backslash).
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

Counter* MetricsRegistry::GetCounter(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kCounter && e.name == name && e.labels == labels) {
      return const_cast<Counter*>(e.counter);
    }
  }
  owned_counters_.emplace_back();
  Entry entry;
  entry.id = next_id_++;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kCounter;
  entry.counter = &owned_counters_.back();
  entries_.push_back(std::move(entry));
  return &owned_counters_.back();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kGauge && e.name == name && e.labels == labels) {
      return const_cast<Gauge*>(e.gauge);
    }
  }
  owned_gauges_.emplace_back();
  Entry entry;
  entry.id = next_id_++;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kGauge;
  entry.gauge = &owned_gauges_.back();
  entries_.push_back(std::move(entry));
  return &owned_gauges_.back();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kHistogram && e.name == name && e.labels == labels) {
      return const_cast<LatencyHistogram*>(e.histogram);
    }
  }
  owned_histograms_.emplace_back();
  Entry entry;
  entry.id = next_id_++;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kHistogram;
  entry.histogram = &owned_histograms_.back();
  entries_.push_back(std::move(entry));
  return &owned_histograms_.back();
}

MetricsRegistry::Registration MetricsRegistry::RegisterCounter(
    const std::string& name, Labels labels, const Counter* metric) {
  CHECK(metric != nullptr);
  Entry entry;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kCounter;
  entry.counter = metric;
  return Add(std::move(entry));
}

MetricsRegistry::Registration MetricsRegistry::RegisterGauge(
    const std::string& name, Labels labels, const Gauge* metric) {
  CHECK(metric != nullptr);
  Entry entry;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kGauge;
  entry.gauge = metric;
  return Add(std::move(entry));
}

MetricsRegistry::Registration MetricsRegistry::RegisterHistogram(
    const std::string& name, Labels labels, const LatencyHistogram* metric) {
  CHECK(metric != nullptr);
  Entry entry;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kHistogram;
  entry.histogram = metric;
  return Add(std::move(entry));
}

MetricsRegistry::Registration MetricsRegistry::RegisterCallbackGauge(
    const std::string& name, Labels labels, std::function<double()> fn) {
  CHECK(fn != nullptr);
  Entry entry;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kCallbackGauge;
  entry.gauge_fn = std::move(fn);
  return Add(std::move(entry));
}

MetricsRegistry::Registration MetricsRegistry::RegisterCallbackCounter(
    const std::string& name, Labels labels, std::function<uint64_t()> fn) {
  CHECK(fn != nullptr);
  Entry entry;
  entry.name = name;
  entry.labels = std::move(labels);
  entry.kind = Kind::kCallbackCounter;
  entry.counter_fn = std::move(fn);
  return Add(std::move(entry));
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
    const bool fresh = sample.name.empty();
    if (fresh) {
      sample.name = e.name;
      sample.labels = e.labels;
      // Callback series render as their plain kind.
      sample.kind = e.kind == Kind::kCallbackGauge    ? Kind::kGauge
                    : e.kind == Kind::kCallbackCounter ? Kind::kCounter
                                                       : e.kind;
    }
    switch (e.kind) {
      case Kind::kCounter:
        sample.counter_value += e.counter->value();
        break;
      case Kind::kCallbackCounter:
        sample.counter_value += e.counter_fn();
        break;
      case Kind::kGauge:
        sample.gauge_value += e.gauge->value();
        break;
      case Kind::kCallbackGauge:
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
      case Kind::kCallbackCounter:
        out += s.name + RenderLabels(s.labels) + " " +
               std::to_string(s.counter_value) + "\n";
        break;
      case Kind::kGauge:
      case Kind::kCallbackGauge:
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

std::string MetricsRegistry::RenderJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : Collect()) {
    if (!first) out.push_back(',');
    first = false;
    // Appended piece by piece: a `"literal" + temporary` chain trips
    // GCC 12's -Wrestrict in Release builds.
    out += "{\"name\":\"";
    out += EscapeValue(s.name);
    out += "\",\"labels\":{";
    for (size_t i = 0; i < s.labels.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += '"';
      out += EscapeValue(s.labels[i].first);
      out += "\":\"";
      out += EscapeValue(s.labels[i].second);
      out += '"';
    }
    out += "},";
    switch (s.kind) {
      case Kind::kCounter:
      case Kind::kCallbackCounter:
        out += "\"kind\":\"counter\",\"value\":" +
               std::to_string(s.counter_value);
        break;
      case Kind::kGauge:
      case Kind::kCallbackGauge:
        out += "\"kind\":\"gauge\",\"value\":" + FormatDouble(s.gauge_value);
        break;
      case Kind::kHistogram: {
        const LatencyHistogram::Snapshot& h = s.histogram_value;
        out += "\"kind\":\"histogram\",\"count\":" + std::to_string(h.count) +
               ",\"sum_ms\":" + FormatDouble(h.sum_millis) +
               ",\"max_ms\":" + FormatDouble(h.max_millis) +
               ",\"p50_ms\":" + FormatDouble(h.P50()) +
               ",\"p95_ms\":" + FormatDouble(h.P95()) +
               ",\"p99_ms\":" + FormatDouble(h.P99()) + ",\"buckets\":[";
        uint64_t cumulative = 0;
        bool first_bucket = true;
        for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
          if (h.buckets[i] == 0) continue;
          cumulative += h.buckets[i];
          if (!first_bucket) out.push_back(',');
          first_bucket = false;
          out += '[';
          out += FormatDouble(LatencyHistogram::BucketLowerEdge(i + 1));
          out += ',';
          out += std::to_string(cumulative);
          out += ']';
        }
        out += "]";
        break;
      }
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace rtr::obs
