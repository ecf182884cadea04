#include "util/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace actjoin::util {

void Histogram::Record(double micros) {
  // Same sanitation as LatencyHistogram::Record, so the two geometries
  // stay sample-for-sample comparable.
  if (std::isnan(micros) || micros < 0) {
    micros = 0;
  } else if (std::isinf(micros)) {
    micros = LatencyHistogram::BucketUpperEdgeMicros(
        LatencyHistogram::kNumBuckets - 1);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(micros * 1e3),
                       std::memory_order_relaxed);
  // CAS-max over the double's bit pattern: non-negative IEEE doubles order
  // the same as their bits, so a plain integer compare suffices.
  uint64_t bits;
  std::memcpy(&bits, &micros, sizeof(bits));
  uint64_t seen = max_micros_bits_.load(std::memory_order_relaxed);
  while (bits > seen && !max_micros_bits_.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed)) {
  }
  buckets_[LatencyHistogram::BucketIndexOf(micros)].fetch_add(
      1, std::memory_order_relaxed);
}

LatencyHistogram Histogram::Snapshot() const {
  std::array<uint64_t, LatencyHistogram::kNumBuckets> buckets;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  uint64_t max_bits = max_micros_bits_.load(std::memory_order_relaxed);
  double max_micros;
  std::memcpy(&max_micros, &max_bits, sizeof(max_micros));
  return LatencyHistogram::FromParts(
      count_.load(std::memory_order_relaxed),
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1e3,
      max_micros, buckets);
}

void EventLog::Append(std::string kind, std::string subject,
                      std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricEvent e;
  e.seq = ++last_seq_;
  e.uptime_s = uptime_.ElapsedSeconds();
  e.kind = std::move(kind);
  e.subject = std::move(subject);
  e.detail = std::move(detail);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<MetricEvent> EventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t EventLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(const std::string& name,
                                                    const std::string& help,
                                                    MetricKind kind) {
  for (auto& family : families_) {
    if (family->name == name) {
      ACT_CHECK_MSG(family->kind == kind,
                    "metric re-registered with a different kind");
      if (family->help.empty()) family->help = help;
      return *family;
    }
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->kind = kind;
  families_.push_back(std::move(family));
  return *families_.back();
}

MetricsRegistry::Series* MetricsRegistry::FindSeries(
    Family& family, const std::string& labels) {
  for (Series& s : family.series) {
    if (s.labels == labels) return &s;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kCounter);
  if (Series* s = FindSeries(family, labels)) {
    ACT_CHECK_MSG(s->counter != nullptr,
                  "metric series re-registered with a different style");
    return s->counter.get();
  }
  Series s;
  s.labels = labels;
  s.counter = std::make_unique<Counter>();
  Counter* out = s.counter.get();
  family.series.push_back(std::move(s));
  return out;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kGauge);
  if (Series* s = FindSeries(family, labels)) {
    ACT_CHECK_MSG(s->gauge != nullptr,
                  "metric series re-registered with a different style");
    return s->gauge.get();
  }
  Series s;
  s.labels = labels;
  s.gauge = std::make_unique<Gauge>();
  Gauge* out = s.gauge.get();
  family.series.push_back(std::move(s));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kHistogram);
  if (Series* s = FindSeries(family, labels)) {
    ACT_CHECK_MSG(s->histogram != nullptr,
                  "metric series re-registered with a different style");
    return s->histogram.get();
  }
  Series s;
  s.labels = labels;
  s.histogram = std::make_unique<Histogram>();
  Histogram* out = s.histogram.get();
  family.series.push_back(std::move(s));
  return out;
}

void MetricsRegistry::RegisterCounterFn(const std::string& name,
                                        const std::string& help,
                                        const std::string& labels,
                                        std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kCounter);
  Series s;
  s.labels = labels;
  s.counter_fn = std::move(fn);
  family.series.push_back(std::move(s));
}

void MetricsRegistry::RegisterGaugeFn(const std::string& name,
                                      const std::string& help,
                                      const std::string& labels,
                                      std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kGauge);
  Series s;
  s.labels = labels;
  s.gauge_fn = std::move(fn);
  family.series.push_back(std::move(s));
}

void MetricsRegistry::RegisterHistogramFn(const std::string& name,
                                          const std::string& help,
                                          const std::string& labels,
                                          std::function<LatencyHistogram()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kHistogram);
  Series s;
  s.labels = labels;
  s.histogram_fn = std::move(fn);
  family.series.push_back(std::move(s));
}

void MetricsRegistry::RegisterCounterFamilyFn(const std::string& name,
                                              const std::string& help,
                                              std::function<FamilySeries()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kCounter);
  family.family_fn = std::move(fn);
}

void MetricsRegistry::RegisterGaugeFamilyFn(const std::string& name,
                                            const std::string& help,
                                            std::function<FamilySeries()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, MetricKind::kGauge);
  family.family_fn = std::move(fn);
}

std::vector<CollectedMetric> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CollectedMetric> out;
  out.reserve(families_.size());
  for (const auto& family : families_) {
    CollectedMetric m;
    m.name = family->name;
    m.help = family->help;
    m.kind = family->kind;
    for (const Series& s : family->series) {
      MetricSeries ms;
      ms.labels = s.labels;
      switch (family->kind) {
        case MetricKind::kCounter:
          ms.value = s.counter != nullptr
                         ? static_cast<double>(s.counter->value())
                         : static_cast<double>(s.counter_fn());
          break;
        case MetricKind::kGauge:
          ms.value = s.gauge != nullptr ? s.gauge->value() : s.gauge_fn();
          break;
        case MetricKind::kHistogram:
          ms.hist =
              s.histogram != nullptr ? s.histogram->Snapshot() : s.histogram_fn();
          break;
      }
      m.series.push_back(std::move(ms));
    }
    if (family->family_fn) {
      for (auto& [labels, value] : family->family_fn()) {
        MetricSeries ms;
        ms.labels = std::move(labels);
        ms.value = value;
        m.series.push_back(std::move(ms));
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<MetricSample> FlattenSamples(
    const std::vector<CollectedMetric>& metrics) {
  std::vector<MetricSample> out;
  for (const CollectedMetric& m : metrics) {
    const uint8_t kind = static_cast<uint8_t>(m.kind);
    for (const MetricSeries& s : m.series) {
      if (m.kind == MetricKind::kHistogram) {
        const LatencyHistogram& h = s.hist;
        out.push_back({m.name + "_count", s.labels, kind,
                       static_cast<double>(h.count())});
        out.push_back({m.name + "_sum", s.labels, kind, h.sum_micros() / 1e6});
        out.push_back({m.name + "_p50", s.labels, kind, h.P50Micros() / 1e6});
        out.push_back({m.name + "_p99", s.labels, kind, h.P99Micros() / 1e6});
        out.push_back(
            {m.name + "_p999", s.labels, kind, h.P999Micros() / 1e6});
      } else {
        out.push_back({m.name, s.labels, kind, s.value});
      }
    }
  }
  return out;
}

namespace {

// Shortest round-trippable-enough representation; exposition format takes
// any Go-parsable float, so %.10g covers counters exactly to 2^33 and
// latencies far below bucket resolution.
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Label *values* must escape backslash, double-quote and newline; our
// label strings are pre-rendered `key="value"` lists built from dataset
// names ([a-z0-9_-]) and peer addresses, so this only guards against
// future label sources.
std::string EscapeLabels(const std::string& labels) {
  std::string out;
  out.reserve(labels.size());
  for (char c : labels) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendSample(std::string* out, const std::string& name,
                  const std::string& labels, double value) {
  *out += "actjoin_";
  *out += name;
  if (!labels.empty()) {
    *out += '{';
    *out += EscapeLabels(labels);
    *out += '}';
  }
  *out += ' ';
  *out += FormatValue(value);
  *out += '\n';
}

// One histogram series: cumulative per-octave le buckets (seconds — the
// exposition convention), then _sum and _count. 416 raw buckets would be
// 416 time series per histogram; one per octave keeps the quantile error
// within 2x while staying scrape-friendly.
void AppendHistogram(std::string* out, const std::string& name,
                     const std::string& labels, const LatencyHistogram& h) {
  const std::string escaped = EscapeLabels(labels);
  uint64_t cumulative = 0;
  for (int octave = 0; octave < LatencyHistogram::kOctaves; ++octave) {
    for (int i = 0; i < LatencyHistogram::kBucketsPerOctave; ++i) {
      cumulative += h.bucket_count(
          octave * LatencyHistogram::kBucketsPerOctave + i);
    }
    const double le_seconds = std::exp2(octave + 1) / 1e6;
    *out += "actjoin_";
    *out += name;
    *out += "_bucket{";
    if (!escaped.empty()) {
      *out += escaped;
      *out += ',';
    }
    *out += "le=\"";
    *out += FormatValue(le_seconds);
    *out += "\"} ";
    *out += FormatValue(static_cast<double>(cumulative));
    *out += '\n';
  }
  *out += "actjoin_";
  *out += name;
  *out += "_bucket{";
  if (!escaped.empty()) {
    *out += escaped;
    *out += ',';
  }
  *out += "le=\"+Inf\"} ";
  *out += FormatValue(static_cast<double>(h.count()));
  *out += '\n';
  AppendSample(out, name + "_sum", labels, h.sum_micros() / 1e6);
  AppendSample(out, name + "_count", labels,
               static_cast<double>(h.count()));
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::vector<CollectedMetric> metrics = Collect();
  std::string out;
  for (const CollectedMetric& m : metrics) {
    if (!m.help.empty()) {
      out += "# HELP actjoin_";
      out += m.name;
      out += ' ';
      out += m.help;
      out += '\n';
    }
    out += "# TYPE actjoin_";
    out += m.name;
    out += ' ';
    out += m.kind == MetricKind::kCounter
               ? "counter"
               : (m.kind == MetricKind::kGauge ? "gauge" : "histogram");
    out += '\n';
    for (const MetricSeries& s : m.series) {
      if (m.kind == MetricKind::kHistogram) {
        AppendHistogram(&out, m.name, s.labels, s.hist);
      } else {
        AppendSample(&out, m.name, s.labels, s.value);
      }
    }
  }
  return out;
}

}  // namespace actjoin::util
