// Per-service observability: queue depth, QPS, latency quantiles.
//
// Workers record into worker-local slots (one mutex per worker, so
// recording never contends across workers); the recorder exports them into
// the service's util::MetricsRegistry. Latencies use util::LatencyHistogram,
// so p50 / p99 are bucket-accurate (~4.4%) at O(1) record cost.
//
// The registry is the one source of every exported number: ServiceStats is
// not recorded anywhere, it is mapped from registry samples by
// StatsFromSamples — in process (JoinService::Stats, /statusz) and on the
// client side of a binary GET_METRICS (JoinClient::GetStats) alike.

#ifndef ACTJOIN_SERVICE_SERVICE_STATS_H_
#define ACTJOIN_SERVICE_SERVICE_STATS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/latency_histogram.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace actjoin::service {

/// Per-peer admission figures (net layer): the token bucket is sharded by
/// peer address, so one greedy client's rejections are attributable to
/// that client — and visible in the peer_* metric families — instead of
/// dissolving into a global counter while it starves everyone else.
struct PeerAdmissionStats {
  std::string peer;
  uint64_t admitted = 0;
  uint64_t rate_limited = 0;

  friend bool operator==(const PeerAdmissionStats&,
                         const PeerAdmissionStats&) = default;
};

/// Per-dataset serving figures, keyed by dataset name. Ids and tombstones
/// are catalog identity: LIST_DATASETS / ServiceCatalog::List carry them.
struct DatasetSplit {
  uint64_t epoch = 0;
  uint64_t points_served = 0;
  uint64_t completed_requests = 0;
  std::string name;

  friend bool operator==(const DatasetSplit&, const DatasetSplit&) = default;
};

/// A JoinService's figures as read from its metrics registry: the service
/// series, plus — once a net::JoinServer has registered into the same
/// registry — the front-end's admission, door-reject and push series.
struct ServiceStats {
  uint64_t completed_requests = 0;
  /// Requests refused before any work ran, all reasons summed: the three
  /// requests_rejected_total splits plus the three admission splits.
  /// Refused mutations are not in it.
  uint64_t rejected_requests = 0;
  /// TrySubmit with the queue at capacity.
  uint64_t rejected_queue_full = 0;
  /// Refused because the service or the front-end is shutting down.
  uint64_t rejected_shutdown = 0;
  /// Joins, crossmatches and subscriptions naming a dataset that is not
  /// servable (never assigned, offline, or dropped), refused at the
  /// service door or the front-end door.
  uint64_t rejected_unknown_dataset = 0;
  /// Net-layer admission rejects, one counter per AdmissionPolicy knob
  /// (zero without a JoinServer).
  uint64_t rejected_rate_limit = 0;
  uint64_t rejected_inflight_bytes = 0;
  uint64_t rejected_queue_watermark = 0;
  /// Live mutations (ADD_POLYGONS / REMOVE_POLYGONS / DROP_DATASET)
  /// published as new epochs, and mutations refused with a typed error
  /// (unknown dataset, dropped dataset, invalid payload) by the service or
  /// at the front-end door. Not part of rejected_requests: a refused
  /// mutation is not a refused join.
  uint64_t mutations_applied = 0;
  uint64_t rejected_mutations = 0;
  uint64_t points_served = 0;
  double uptime_s = 0;
  double qps = 0;                   // completed_requests / uptime
  double points_per_s = 0;
  double queue_wait_p50_ms = 0;
  double queue_wait_p99_ms = 0;
  double queue_wait_p999_ms = 0;
  double service_p50_ms = 0;        // join execution only
  double service_p99_ms = 0;
  double service_p999_ms = 0;
  uint64_t queue_depth = 0;
  uint64_t epoch = 0;      // snapshot epoch of dataset 0 (compat metric)
  uint64_t num_datasets = 0;
  /// Continuous-query figures (zero without a JoinServer): standing
  /// subscriptions, requests admitted but not yet answered, and the
  /// push-channel delivery counters (events enqueued to connection
  /// outboxes / events discarded by the bounded-outbox overflow policy).
  uint64_t active_subscriptions = 0;
  uint64_t outstanding_requests = 0;
  uint64_t events_pushed = 0;
  uint64_t events_dropped = 0;
  /// Per-peer admission splits, sorted by peer key (empty without a
  /// JoinServer).
  std::vector<PeerAdmissionStats> peers;
  /// Per-dataset epoch + traffic splits, in catalog id order. Fixes the
  /// dataset-0-only `epoch` field above: every dataset's epoch is here.
  std::vector<DatasetSplit> dataset_splits;
};

/// The one mapping from registry samples to ServiceStats. Series with the
/// same name and labels are summed (two front-ends sharing one service
/// each register theirs); samples it does not know are ignored.
ServiceStats StatsFromSamples(const std::vector<util::MetricSample>& samples);

class ServiceStatsRecorder {
 public:
  explicit ServiceStatsRecorder(int workers)
      : slots_(static_cast<size_t>(workers)) {
    for (auto& slot : slots_) slot = std::make_unique<WorkerSlot>();
  }

  void RecordServed(int worker, double queue_wait_us, double service_us,
                    uint64_t points) {
    WorkerSlot& slot = *slots_[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.queue_wait.Record(queue_wait_us);
    slot.service.Record(service_us);
    slot.points += points;
    ++slot.completed;
  }

  // The reject and mutation counters are the registry's own series (null
  // while metrics are disabled), so the net front-end counts its door
  // rejects into the very same ones.
  void RecordRejectedQueueFull() { Inc(rejected_queue_full_); }
  void RecordRejectedShutdown() { Inc(rejected_shutdown_); }
  void RecordRejectedUnknownDataset() { Inc(rejected_unknown_dataset_); }
  void RecordMutationApplied() { Inc(mutations_applied_); }
  void RecordRejectedMutation() { Inc(rejected_mutations_); }

  /// Binds the reject and mutation counters to `registry`'s series and
  /// registers the worker-slot figures as collection-time callbacks —
  /// recording stays on the worker-slot path, untouched. Call once, before
  /// any Record*; the recorder must outlive the registry's collections.
  void RegisterMetrics(util::MetricsRegistry* registry) {
    rejected_queue_full_ = registry->GetCounter(
        "requests_rejected_total",
        "Requests refused before any work ran, by reason",
        "reason=\"queue_full\"");
    rejected_shutdown_ = registry->GetCounter("requests_rejected_total", "",
                                              "reason=\"shutdown\"");
    rejected_unknown_dataset_ = registry->GetCounter(
        "requests_rejected_total", "", "reason=\"unknown_dataset\"");
    mutations_applied_ = registry->GetCounter(
        "mutations_applied_total", "Live mutations published as new epochs");
    rejected_mutations_ = registry->GetCounter(
        "mutations_rejected_total", "Mutations refused with a typed error");
    registry->RegisterCounterFn(
        "requests_completed_total", "Join requests completed", "", [this] {
          uint64_t total = 0;
          for (const auto& slot : slots_) {
            std::lock_guard<std::mutex> lock(slot->mu);
            total += slot->completed;
          }
          return total;
        });
    registry->RegisterCounterFn(
        "points_served_total", "Probe points served across all joins", "",
        [this] {
          uint64_t total = 0;
          for (const auto& slot : slots_) {
            std::lock_guard<std::mutex> lock(slot->mu);
            total += slot->points;
          }
          return total;
        });
    registry->RegisterGaugeFn("uptime_seconds", "Service uptime", "",
                              [this] { return uptime_.ElapsedSeconds(); });
    registry->RegisterHistogramFn(
        "queue_wait_seconds", "Bounded-queue wait before a worker picks up",
        "", [this] { return MergedHistogram(/*service=*/false); });
    registry->RegisterHistogramFn(
        "service_seconds", "Join execution time (decompose+probe+merge)", "",
        [this] { return MergedHistogram(/*service=*/true); });
  }

 private:
  /// Merged copy of one latency histogram across all worker slots. Each
  /// slot is copied under its lock (a trivially-copyable array copy) and
  /// merged outside it, so the O(kNumBuckets) Merge never runs while a
  /// worker is blocked on RecordServed.
  util::LatencyHistogram MergedHistogram(bool service) const {
    util::LatencyHistogram merged, scratch;
    for (const auto& slot : slots_) {
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        scratch = service ? slot->service : slot->queue_wait;
      }
      merged.Merge(scratch);
    }
    return merged;
  }

  struct WorkerSlot {
    mutable std::mutex mu;
    util::LatencyHistogram queue_wait;
    util::LatencyHistogram service;
    uint64_t points = 0;
    uint64_t completed = 0;
  };

  static void Inc(util::Counter* counter) {
    if (counter != nullptr) counter->Inc();
  }

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  util::Counter* rejected_queue_full_ = nullptr;
  util::Counter* rejected_shutdown_ = nullptr;
  util::Counter* rejected_unknown_dataset_ = nullptr;
  util::Counter* mutations_applied_ = nullptr;
  util::Counter* rejected_mutations_ = nullptr;
  util::WallTimer uptime_;
};

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_SERVICE_STATS_H_
