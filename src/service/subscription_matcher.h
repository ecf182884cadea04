// SubscriptionMatcher: standing geofence queries over the catalog.
//
// A subscription names a dataset, a polygon selection (explicit ids, a
// leaf-cell-id region, or the whole dataset), and a direction filter; the
// matcher then turns every point batch the service executes — and every
// epoch swap a mutation publishes — into incremental ENTER / LEAVE
// transition events for the tracks (batch point indexes, i.e. device ids)
// it has seen.
//
// The matcher reuses the serving index and its one join kernel instead
// of building anything of its own. A point batch makes one probe for all
// subscriptions on its dataset: the tracks some subscription must
// re-evaluate (unknown to it, or reported at a new cell or point) go
// through one exact-mode ShardedIndex::JoinPairs at width 1 — the blocked
// probe→refine kernel every join runs — and each subscription then
// filters a track's polygon ids by its watched set, diffs them against
// the track's previous membership, and emits the difference.
//
// Determinism contract (what the wire layer promises subscribers):
// per subscription, events are totally ordered — seq starts at 1 and
// increments by exactly 1 per *emitted* event (direction filtering
// happens before numbering, so a gap in seq always means delivery
// dropped, never "the matcher skipped one"). Within one transition
// (one point batch, or one epoch swap) events order by ascending track
// id, LEAVEs before ENTERs per track, each group in ascending polygon
// id. Every batch is tagged with the snapshot epoch it was computed
// against. The subscriptions on one dataset are serialized by one
// per-dataset mutex held for a whole transition, so seq monotonicity holds
// under concurrent batches; with a single feeding thread the full event
// sequence is reproducible byte-for-byte (asserted against an oracle that
// recomputes every membership from nothing, in the tests).
//
// Epoch swaps: the first batch (or OnEpochSwap call) that observes a new
// epoch re-resolves the cell-range subscriptions' watched sets, re-joins
// the known tracks' positions once against the new snapshot, and shares
// those pairs across every subscription behind that epoch — so
// REMOVE_POLYGONS produces LEAVEs and ADD_POLYGONS produces ENTERs
// without any point traffic. The resync is its own step, before the
// batch's positions are applied.

#ifndef ACTJOIN_SERVICE_SUBSCRIPTION_MATCHER_H_
#define ACTJOIN_SERVICE_SUBSCRIPTION_MATCHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "service/service_catalog.h"
#include "service/sharded_index.h"
#include "util/metrics.h"

namespace actjoin::service {

/// Direction filter: which transitions a subscription wants delivered.
/// Filtering is emission-only — the matcher's membership state always
/// tracks both directions, so flipping the filter never desynchronizes.
enum class SubscriptionMode : uint8_t {
  kBoth = 0,
  kEnterOnly = 1,
  kLeaveOnly = 2,
};

enum class GeoEventKind : uint8_t { kEnter = 0, kLeave = 1 };

/// One transition: track `track_id` crossed the boundary of watched
/// polygon `polygon_id` (global id in the subscription's dataset).
struct GeoEvent {
  GeoEventKind kind = GeoEventKind::kEnter;
  uint32_t track_id = 0;
  uint32_t polygon_id = 0;

  friend bool operator==(const GeoEvent&, const GeoEvent&) = default;
};

/// One delivery to a subscription's sink: a dense run of events with
/// sequence numbers [first_seq, first_seq + events.size()), all computed
/// against `epoch`.
struct EventBatch {
  uint64_t subscription_id = 0;
  uint64_t first_seq = 1;
  uint64_t epoch = 0;
  std::vector<GeoEvent> events;

  friend bool operator==(const EventBatch&, const EventBatch&) = default;
};

/// What a subscription watches inside its dataset.
struct SubscriptionSpec {
  enum class Selector : uint8_t {
    kAll = 0,         // every polygon, including ones added later
    kPolygonIds = 1,  // the explicit id list (must exist at subscribe time)
    kCellRange = 2,   // polygons whose covering touches [cell_lo, cell_hi]
  };
  Selector selector = Selector::kAll;
  std::vector<uint32_t> polygon_ids;  // kPolygonIds
  uint64_t cell_lo = 0;               // kCellRange, inclusive leaf ids
  uint64_t cell_hi = 0;
  SubscriptionMode mode = SubscriptionMode::kBoth;
};

/// Add()'s receipt: the registry id plus the watched-set figures resolved
/// against the subscribe-time snapshot (also the SUBSCRIPTION_RESULT wire
/// payload). `coverage_intervals` counts the covering cells that
/// reference a watched polygon — a size figure for the watched region,
/// not matcher state.
struct SubscriptionInfo {
  uint64_t id = 0;
  uint64_t epoch = 0;
  uint32_t watched_polygons = 0;
  uint32_t coverage_intervals = 0;

  friend bool operator==(const SubscriptionInfo&,
                         const SubscriptionInfo&) = default;
};

class SubscriptionMatcher {
 public:
  /// Delivery callback. Runs on whatever thread drove the transition (a
  /// service worker for point batches, the mutating thread for epoch
  /// swaps) with the dataset's subscription lock held — sinks must be
  /// cheap and must never re-enter the matcher. The net layer's sink hands
  /// the batch to an event-loop inbox and returns.
  using EventSink = std::function<void(EventBatch&&)>;

  /// The catalog must outlive the matcher.
  explicit SubscriptionMatcher(const ServiceCatalog* catalog)
      : catalog_(catalog) {}

  SubscriptionMatcher(const SubscriptionMatcher&) = delete;
  SubscriptionMatcher& operator=(const SubscriptionMatcher&) = delete;

  /// Registers a standing query against a servable dataset. nullopt when
  /// the dataset has no published snapshot, or an explicit polygon id is
  /// out of range at subscribe time. Events begin with the next point
  /// batch — Add itself emits nothing (a track's initial memberships
  /// arrive as ENTERs on its first sighting). Add never waits for a
  /// transition: the new subscription is queued, and the dataset's next
  /// transition takes it in under the dataset's lock.
  std::optional<SubscriptionInfo> Add(uint16_t dataset_id,
                                      SubscriptionSpec spec, EventSink sink);

  /// Unregisters; false for an id that was never assigned or was already
  /// removed. A subscription that a transition has taken in is dropped
  /// under its dataset's lock, so no delivery starts after Remove returns
  /// — which means Remove can wait for one in-flight transition on that
  /// dataset (resync, shared probe and delivery). When the dataset's last
  /// subscription goes, the per-track state it shared is freed.
  bool Remove(uint64_t subscription_id);

  /// Cheap serving-path gate: false ⇒ OnPointBatch would be a no-op for
  /// this dataset (one relaxed load when the matcher is globally idle).
  bool HasSubscriptions(uint16_t dataset_id) const;

  /// Feeds one executed point batch (parallel cell_ids / points arrays,
  /// track id = array index). Pins the dataset's current snapshot once,
  /// resyncs every subscription behind it, then applies the batch with
  /// one shared probe — all under the dataset's lock.
  void OnPointBatch(uint16_t dataset_id, std::span<const uint64_t> cell_ids,
                    std::span<const geom::Point> points);

  /// Re-evaluates every subscription on the dataset against its newest
  /// snapshot (cell-range re-resolve + one shared re-join of the known
  /// tracks). Call after any publish: delta mutations, full swaps, drops.
  void OnEpochSwap(uint16_t dataset_id);

  size_t active_subscriptions() const {
    return active_.load(std::memory_order_relaxed);
  }
  uint64_t events_emitted() const {
    return events_emitted_.load(std::memory_order_relaxed);
  }
  /// Track positions sent through the shared probe (batches and swap
  /// resyncs): independent of how many subscriptions share them.
  uint64_t points_probed() const {
    return points_probed_.load(std::memory_order_relaxed);
  }
  /// Track positions the matcher holds, over every dataset: the latest
  /// report of each track a dataset's subscriptions know. 0 once every
  /// subscription is gone.
  size_t tracks_held() const {
    return tracks_held_.load(std::memory_order_relaxed);
  }

  /// Gauges/counters for GET_METRICS; the matcher must outlive collection.
  void RegisterMetrics(util::MetricsRegistry* registry) const;

 private:
  struct Sub {
    uint64_t id = 0;
    SubscriptionSpec spec;
    EventSink sink;
    uint64_t epoch = 0;  // snapshot the memberships were computed against
    bool watch_all = false;
    std::vector<uint32_t> watched;  // sorted; unused when watch_all
    /// Watched polygons containing each known track (sorted global ids),
    /// index == track id. Every batch makes all of its tracks known, so
    /// the known tracks are exactly [0, inside.size()).
    std::vector<std::vector<uint32_t>> inside;
    std::vector<GeoEvent> pending;  // this transition's events, unnumbered
    uint64_t next_seq = 1;
  };

  /// A reported position. The group keeps each track's latest one: every
  /// subscription that knows the track computed its membership there.
  struct Position {
    uint64_t cell = 0;
    geom::Point point{0, 0};
  };

  /// Buffers of the shared probe, reused across transitions.
  struct ProbeBuffers {
    std::vector<uint32_t> tracks;
    std::vector<uint64_t> cells;
    std::vector<geom::Point> points;
    std::vector<uint8_t> moved;  // per probed track: new cell or point
    std::vector<std::pair<uint64_t, uint32_t>> pairs;
    std::vector<size_t> pair_begin;  // probed track k: [begin[k], begin[k+1])
    std::vector<uint32_t> now, gone, came;
  };

  /// Every subscription on one dataset plus the state they share. `mu` is
  /// held for a whole transition (resync, batch, delivery), so a batch is
  /// one atomic step for all of the dataset's subscriptions.
  struct Group {
    std::mutex mu;  // guards everything below except `incoming`
    std::vector<std::unique_ptr<Sub>> subs;  // id order
    std::vector<Position> positions;         // index == track id
    ProbeBuffers buf;
    /// Added subscriptions the next transition takes into `subs`. Guarded
    /// by the matcher's registry_mu_, so Add never waits on `mu`.
    std::vector<std::unique_ptr<Sub>> incoming;
  };

  /// Resolves a subscription's watched set against `index`; a kCellRange
  /// selection walks the clipped coverings.
  static void ResolveWatched(const ShardedIndex& index, Sub* sub);

  /// Moves the group's queued subscriptions into `subs`, keeping id order.
  /// Caller holds g->mu.
  void TakeIncoming(Group* g);

  /// Joins the group's buffered cells/points once (exact mode, width 1)
  /// into pairs grouped by probed track.
  void Probe(const ShardedIndex& index, Group* g);

  /// Appends one track's transition to sub->pending: the watched ids among
  /// probed track k's pairs, diffed against the track's previous set.
  static void Diff(Group* g, Sub* sub, size_t k, uint32_t track_id);

  /// Brings every subscription behind `epoch` up to it: re-resolves
  /// cell-range watched sets and re-joins the known tracks once. Caller
  /// holds g->mu.
  void Resync(Group* g, const ShardedIndex& index, uint64_t epoch);

  /// Applies one point batch to every subscription. Caller holds g->mu.
  void ApplyBatch(Group* g, const ShardedIndex& index,
                  std::span<const uint64_t> cell_ids,
                  std::span<const geom::Point> points);

  /// Numbers and delivers each subscription's pending events as one
  /// EventBatch tagged `epoch`, in id order. Caller holds g->mu.
  void Deliver(Group* g, uint64_t epoch);

  const ServiceCatalog* catalog_;
  mutable std::mutex registry_mu_;  // the two maps below, Group::incoming
  std::map<uint16_t, std::shared_ptr<Group>> groups_;  // by dataset id
  std::map<uint64_t, uint16_t> dataset_of_;            // by subscription id
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> events_emitted_{0};
  std::atomic<uint64_t> points_probed_{0};
  std::atomic<size_t> tracks_held_{0};
};

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_SUBSCRIPTION_MATCHER_H_
