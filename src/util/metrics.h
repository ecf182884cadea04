// Unified metrics registry: named counters / gauges / histograms with
// lock-free hot-path recording, plus a bounded structured event log.
//
// Two registration styles, one export surface:
//
//   * Owned instruments — GetCounter/GetGauge/GetHistogram return a stable
//     pointer the hot path records into with one relaxed atomic op (the
//     histogram is the LatencyHistogram bucket geometry with atomic
//     buckets). Create-or-get by (name, labels), so two subsystems naming
//     the same series share it.
//   * Callback instruments — Register*Fn reads a value the owner already
//     maintains (an existing atomic counter, a stats snapshot) at
//     *collection* time, so instrumenting existing code costs the hot
//     path nothing. Family callbacks return a whole label set per
//     collection (e.g. one series per catalog dataset), which is how
//     per-dataset splits appear and disappear without re-registration.
//
// Collect() snapshots every family into plain structs; FlattenSamples()
// turns a collection into flat (name, labels, kind, value) samples — the
// form every structured exit reads (the binary GET_METRICS report and
// service::StatsFromSamples); RenderPrometheus() emits the text exposition
// format ("# HELP"/"# TYPE" + samples, histograms as cumulative per-octave
// le buckets in seconds) under the actjoin_ prefix.
//
// Thread safety: registration and collection serialize on one mutex;
// recording into owned instruments is lock-free. Collection callbacks run
// under the registry mutex and must not call back into the registry.

#ifndef ACTJOIN_UTIL_METRICS_H_
#define ACTJOIN_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/latency_histogram.h"
#include "util/timer.h"

namespace actjoin::util {

/// Monotonic counter. Inc is one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins double. Stored as IEEE bits in one atomic word.
class Gauge {
 public:
  void Set(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of 0.0
};

/// LatencyHistogram's bucket geometry with atomic buckets: Record from any
/// thread without a lock (each sample is a handful of relaxed RMWs; the
/// cross-field snapshot is only approximately consistent, which is fine
/// for an ops endpoint). Samples are in microseconds, like Record there.
class Histogram {
 public:
  void Record(double micros);
  /// Merged plain-histogram view (quantiles, mean, buckets).
  LatencyHistogram Snapshot() const;

 private:
  std::atomic<uint64_t> count_{0};
  /// Sum kept in nanoseconds as an integer so it can be a relaxed add.
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> max_micros_bits_{0};  // CAS-max of double bits
  std::array<std::atomic<uint64_t>, LatencyHistogram::kNumBuckets> buckets_{};
};

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One label set's worth of a collected metric.
struct MetricSeries {
  /// Rendered inner label list, e.g. `dataset="zones"`; "" for none.
  std::string labels;
  double value = 0;        // counter / gauge
  LatencyHistogram hist;   // histogram only
};

struct CollectedMetric {
  std::string name;  // without the actjoin_ exposition prefix
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricSeries> series;
};

/// One flattened sample. Counters and gauges give one each; histograms
/// give five sharing the family's kind byte — `<name>_count`,
/// `<name>_sum`, `<name>_p50`, `<name>_p99`, `<name>_p999` — with the
/// time-valued ones in seconds, matching the text exposition.
struct MetricSample {
  std::string name;    // without the actjoin_ exposition prefix
  std::string labels;  // rendered inner label list ("" for none)
  uint8_t kind = 0;    // MetricKind of the source family
  double value = 0;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

/// Flattens a Collect() result into samples, in collection order.
std::vector<MetricSample> FlattenSamples(
    const std::vector<CollectedMetric>& metrics);

/// One structured event (epoch swap, checkpoint, GC, recovery, ...).
struct MetricEvent {
  uint64_t seq = 0;      // 1-based, never reused; gaps reveal ring eviction
  double uptime_s = 0;   // seconds since the event log was created
  std::string kind;      // machine-matchable tag ("swap", "gc", ...)
  std::string subject;   // what it happened to (dataset name, file, ...)
  std::string detail;    // free-form human text

  friend bool operator==(const MetricEvent&, const MetricEvent&) = default;
};

/// Bounded ring of MetricEvents. Appends are rare (epoch swaps,
/// checkpoints), so one mutex is plenty.
class EventLog {
 public:
  explicit EventLog(size_t capacity = 256)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  void Append(std::string kind, std::string subject, std::string detail);

  /// Events still in the ring, oldest first.
  std::vector<MetricEvent> Snapshot() const;

  /// Total ever appended (>= Snapshot().size(); the difference was evicted).
  uint64_t total_appended() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<MetricEvent> ring_;  // ring_[head_] is the oldest once full
  size_t head_ = 0;
  uint64_t last_seq_ = 0;
  WallTimer uptime_;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(size_t event_capacity = 256)
      : events_(event_capacity) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get an owned instrument. The returned pointer is stable for
  /// the registry's lifetime. Re-getting an existing (name, labels) pair
  /// returns the same instrument; the kinds must match (checked).
  Counter* GetCounter(const std::string& name, const std::string& help = "",
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "",
                  const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "",
                          const std::string& labels = "");

  /// Callback instruments: the function is invoked at collection time
  /// (under the registry mutex — it must not call back into the registry).
  void RegisterCounterFn(const std::string& name, const std::string& help,
                         const std::string& labels,
                         std::function<uint64_t()> fn);
  void RegisterGaugeFn(const std::string& name, const std::string& help,
                       const std::string& labels, std::function<double()> fn);
  void RegisterHistogramFn(const std::string& name, const std::string& help,
                           const std::string& labels,
                           std::function<LatencyHistogram()> fn);

  /// Whole-family callback: returns (labels, value) pairs at collection
  /// time, so series can come and go with runtime state (one per catalog
  /// dataset, one per admission peer, ...).
  using FamilySeries = std::vector<std::pair<std::string, double>>;
  void RegisterCounterFamilyFn(const std::string& name,
                               const std::string& help,
                               std::function<FamilySeries()> fn);
  void RegisterGaugeFamilyFn(const std::string& name, const std::string& help,
                             std::function<FamilySeries()> fn);

  /// One consistent-enough snapshot of every family, in registration
  /// order (flatten with FlattenSamples for the structured exits).
  std::vector<CollectedMetric> Collect() const;

  /// Prometheus text exposition format (actjoin_ prefix; histogram time
  /// series in seconds with per-octave cumulative le buckets).
  std::string RenderPrometheus() const;

  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

 private:
  struct Series {
    std::string labels;
    // Exactly one of the owned instruments or callbacks is set, matching
    // the family kind.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<LatencyHistogram()> histogram_fn;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<Series> series;
    /// When set, the family's series come from this callback instead.
    std::function<FamilySeries()> family_fn;
  };

  /// Finds or creates the family (caller holds mu_). Kind must match.
  Family& FamilyFor(const std::string& name, const std::string& help,
                    MetricKind kind);
  /// Finds a series by labels in a family (caller holds mu_); null if new.
  static Series* FindSeries(Family& family, const std::string& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;  // registration order
  EventLog events_;
};

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_METRICS_H_
