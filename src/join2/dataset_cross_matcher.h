// Dataset-level crossmatch: the dual-trie spatial join (cross_match.h)
// run against two live datasets of a JoinService catalog.
//
// A crossmatch is the first multi-dataset operation the service runs, so
// its snapshot discipline is spelled out: at execution time it Acquires
// *both* datasets' registries — two epoch-pinned snapshots held for the
// duration of one join. Concurrent swaps, deltas, and drops publish new
// snapshots without disturbing the pinned pair; the result is exactly the
// join of the two epochs reported in the outcome. Validation runs twice —
// once at submit (cheap early reject) and again on the worker (the
// authoritative verdict, so a drop that lands while the request is queued
// produces a typed kDatasetDropped instead of joining a tombstoned
// dataset's final snapshot).
//
// Probe-surface cache: an index's IntervalView (the flattened, coarsened
// covering the descent walks) is a pure function of one snapshot, so the
// matcher builds it once per (dataset, epoch) and reuses it until that
// dataset publishes again. Rules:
//   * a cached view is used only by a request that pinned the very epoch
//     it was built from — that request's snapshot keeps the view's
//     geometry pointers alive; epochs are per-dataset monotone and ids are
//     never reused, so (id, epoch) names exactly one snapshot;
//   * the cache holds the view and its epoch, never the snapshot: a
//     retired epoch's index is freed as soon as its last request ends;
//   * an entry only moves forward — a request that pinned an older epoch
//     than the cached one builds a private view and leaves the entry be;
//   * a self-join pins once and looks up once;
//   * the view is built lazily by the first crossmatch of an epoch, so
//     publishing, deltas and point joins do no extra work.
// Memory: at most one cached view per dataset id ever crossmatched, plus
// the transient private views of stale-epoch requests.
//
// Execution rides the service's machinery end to end: requests run on
// JoinService workers via TryRunAsync (service backpressure applies),
// the descent and refinement run threads_per_join wide on the service's
// join pool (inline at the default width of 1), both datasets are charged
// through the per-dataset traffic counters, completions feed the
// slow-query log, and per-join figures land in the service's
// MetricsRegistry.

#ifndef ACTJOIN_JOIN2_DATASET_CROSS_MATCHER_H_
#define ACTJOIN_JOIN2_DATASET_CROSS_MATCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "join2/cross_match.h"
#include "join2/cross_match_stage.h"
#include "service/join_service.h"
#include "util/metrics.h"

namespace actjoin::join2 {

struct CrossMatchRequest {
  uint16_t dataset_a = 0;
  uint16_t dataset_b = 0;
  CrossMatchMode mode = CrossMatchMode::kIntersects;
  /// Echoed into the slow-query log (the wire request id).
  uint64_t request_id = 0;
  /// Request a per-stage trace: CrossMatchOutcome::trace comes back
  /// enabled with the pin/descend/refine breakdown (queue filled from the
  /// submit hop; admission/decode/stream are the network front-end's),
  /// counters included under ServiceOptions::stage_perf_counters.
  bool trace = false;
};

enum class CrossMatchStatus : uint8_t {
  kOk = 0,
  /// A side is unassigned or offline (no snapshot published yet).
  kUnknownDataset,
  /// A side is tombstoned by DROP_DATASET.
  kDatasetDropped,
};

const char* ToString(CrossMatchStatus status);

struct CrossMatchOutcome {
  CrossMatchStatus status = CrossMatchStatus::kOk;
  /// On rejection: the dataset id that failed validation (a-side checked
  /// first). Unspecified when status == kOk.
  uint16_t offending_dataset = 0;
  /// Sorted unique (gid_a, gid_b) pairs; see CrossMatch for the contract.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  CrossMatchStats stats;
  /// Epochs of the two pinned snapshots the join ran against.
  uint64_t epoch_a = 0;
  uint64_t epoch_b = 0;
  double queue_wait_us = 0;
  double service_us = 0;
  /// Stage breakdown; enabled iff the request set trace. The matcher
  /// fills queue/pin/descend/refine (refine absorbs the service-wall
  /// leftover so the worker-side stages tile service_us); the network
  /// front-end fills admission/decode/stream around them.
  util::StageTrace trace;
};

class DatasetCrossMatcher {
 public:
  /// Registers crossmatch instruments into the service's metrics registry
  /// (when metrics are enabled). The service must outlive the matcher.
  explicit DatasetCrossMatcher(service::JoinService* service);

  /// Synchronous crossmatch on the calling thread (tests, tools). The
  /// same validation + pinning discipline as the async path, without the
  /// queue hop: queue_wait_us stays 0.
  CrossMatchOutcome Run(const CrossMatchRequest& req);

  /// Event-driven submit for the network front-end: on kAccepted, `done`
  /// runs exactly once on the JoinService worker that executed the
  /// crossmatch. On rejection (queue full / shutdown / unknown a-side)
  /// `done` is dropped unrun. `done` must not re-enter the service.
  service::SubmitStatus TryCrossMatchAsync(
      const CrossMatchRequest& req,
      std::function<void(CrossMatchOutcome)> done);

 private:
  CrossMatchOutcome Execute(const CrossMatchRequest& req,
                            double queue_wait_us);
  /// The probe surface of dataset `id`'s snapshot `index`, pinned by the
  /// caller at `epoch`: the cached view on a hit, else a fresh build that
  /// becomes the cached one unless a newer epoch is already cached.
  std::shared_ptr<const IntervalView> ViewOf(
      uint16_t id, const service::ShardedIndex& index, uint64_t epoch);
  void RegisterMetrics();

  service::JoinService* service_;

  /// One dataset's cached probe surface. `build_mu` serializes builds so
  /// concurrent first crossmatches of an epoch build it once; `epoch` and
  /// `view` are guarded by views_mu_.
  struct CachedView {
    std::mutex build_mu;
    uint64_t epoch = 0;  // 0: empty (published epochs start at 1)
    std::shared_ptr<const IntervalView> view;
  };
  std::mutex views_mu_;
  /// Keyed by dataset id; nodes are stable, so a CachedView outlives the
  /// lock that found it.
  std::unordered_map<uint16_t, CachedView> views_;

  // Owned-instrument pointers are stable for the registry's lifetime;
  // null when metrics are disabled.
  util::Counter* requests_total_ = nullptr;
  util::Counter* rejected_total_ = nullptr;
  util::Counter* candidate_pairs_total_ = nullptr;
  util::Counter* refined_pairs_total_ = nullptr;
  util::Counter* result_pairs_total_ = nullptr;
  util::Counter* pruned_span_pairs_total_ = nullptr;
  util::Gauge* last_depth_ = nullptr;
  util::Histogram* service_time_us_ = nullptr;
  util::Counter* view_builds_total_ = nullptr;
};

}  // namespace actjoin::join2

#endif  // ACTJOIN_JOIN2_DATASET_CROSS_MATCHER_H_
