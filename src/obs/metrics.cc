#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/clock.h"

namespace clipbb::obs {

namespace {

/// Splits `name{labels}` into its base name and brace block ("" when
/// unlabelled) so suffixes and extra labels land in the right place.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);  // includes the braces
  }
}

/// `name{a="b"}` + `q="0.5"` -> `name{a="b",q="0.5"}`.
std::string WithLabel(const std::string& name, const std::string& label) {
  std::string base, labels;
  SplitName(name, &base, &labels);
  if (labels.empty()) return base + "{" + label + "}";
  labels.insert(labels.size() - 1, "," + label);
  return base + labels;
}

/// `name{a="b"}` + `_count` -> `name_count{a="b"}`.
std::string WithSuffix(const std::string& name, const char* suffix) {
  std::string base, labels;
  SplitName(name, &base, &labels);
  return base + suffix + labels;
}

void AppendSample(std::string* out, const std::string& name,
                  uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", value);
  *out += name;
  *out += buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += '"';
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::SetCounter(const std::string& name, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::SetHistogram(const std::string& name,
                                   const Histogram& h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name] = h;
}

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const Histogram& h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name] += h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.assign(counters_.begin(), counters_.end());
  snap.gauges.assign(gauges_.begin(), gauges_.end());
  snap.histograms.assign(histograms_.begin(), histograms_.end());
  return snap;
}

std::string MetricsRegistry::RenderText() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out;
  // One `# TYPE` line per metric family, followed by all of its series.
  // Series are grouped by base name: sorting by full name does not keep a
  // family together (`a{x="1"}` sorts after `a_b`).
  auto render = [&out](const auto& series, const char* type,
                       const char* family_suffix, auto&& samples) {
    std::map<std::string, std::vector<size_t>> families;
    for (size_t i = 0; i < series.size(); ++i) {
      std::string base, labels;
      SplitName(series[i].first, &base, &labels);
      families[base].push_back(i);
    }
    for (const auto& [base, members] : families) {
      out += "# TYPE " + base + family_suffix + " " + type + "\n";
      for (size_t i : members) samples(series[i].first, series[i].second);
    }
  };
  auto plain = [&out](const std::string& name, uint64_t v) {
    AppendSample(&out, name, v);
  };
  render(snap.counters, "counter", "", plain);
  render(snap.gauges, "gauge", "", plain);
  render(snap.histograms, "summary", "",
         [&out](const std::string& name, const Histogram& h) {
           AppendSample(&out, WithLabel(name, "quantile=\"0.5\""),
                        h.Percentile(0.50));
           AppendSample(&out, WithLabel(name, "quantile=\"0.95\""),
                        h.Percentile(0.95));
           AppendSample(&out, WithLabel(name, "quantile=\"0.99\""),
                        h.Percentile(0.99));
           AppendSample(&out, WithSuffix(name, "_count"), h.count());
           AppendSample(&out, WithSuffix(name, "_sum"), h.sum());
         });
  // A summary family holds only quantiles, _count and _sum; each maximum
  // is a gauge family of its own.
  render(snap.histograms, "gauge", "_max",
         [&out](const std::string& name, const Histogram& h) {
           AppendSample(&out, WithSuffix(name, "_max"), h.max());
         });
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out = "{\n  \"counters\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof buf, ": %" PRIu64, v);
    out += buf;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof buf, ": %" PRIu64, v);
    out += buf;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof buf,
                  ": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                  ", \"max\": %" PRIu64,
                  h.count(), h.sum(), h.max());
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"mean\": %.1f", h.Mean());
    out += buf;
    std::snprintf(buf, sizeof buf,
                  ", \"p50\": %" PRIu64 ", \"p95\": %" PRIu64
                  ", \"p99\": %" PRIu64 "}",
                  h.Percentile(0.50), h.Percentile(0.95),
                  h.Percentile(0.99));
    out += buf;
  }
  out += "\n  }\n}\n";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

ScopedTimerNs::~ScopedTimerNs() {
  if (h_ != nullptr) h_->Record(NowNs() - t0_);
}

}  // namespace clipbb::obs
