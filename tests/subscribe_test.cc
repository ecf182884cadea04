// Tests for the continuous-query layer (wire v6): the SUBSCRIBE /
// SUBSCRIPTION_RESULT / EVENT / EVENT_GAP codecs must round-trip and
// reject malformed bytes, the SubscriptionMatcher must be equivalent to a
// recompute-from-scratch membership oracle (across point motion AND
// epoch swaps from live mutations) with dense per-subscription sequence
// numbers and the documented intra-batch ordering, and the served push
// channel must deliver the same events over loopback — with a bounded
// outbox that answers overflow with a coalesced EVENT_GAP instead of
// blocking the event loop. Suites are named Subscribe* so the TSan CI
// job's filter runs them under ThreadSanitizer.
//
// Threading discipline: gtest assertions run only on the main thread;
// event handlers (which run on client reader / service worker threads)
// record into mutex-protected structs asserted after quiescing.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "act/join.h"
#include "act/pipeline.h"
#include "act/super_covering.h"
#include "geo/grid.h"
#include "geometry/pip.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/join_service.h"
#include "service/service_catalog.h"
#include "service/sharded_index.h"
#include "service/subscription_matcher.h"
#include "util/metrics.h"
#include "workloads/datasets.h"

namespace actjoin::net {
namespace {

using act::JoinMode;
using geo::Grid;
using service::EventBatch;
using service::GeoEvent;
using service::GeoEventKind;
using service::JoinService;
using service::QueryBatch;
using service::ServiceOptions;
using service::ShardedIndex;
using service::ShardingOptions;
using service::SubscriptionInfo;
using service::SubscriptionMatcher;
using service::SubscriptionMode;
using service::SubscriptionSpec;

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, {}));
}

QueryBatch MakeBatch(const wl::PointSet& pts, JoinMode mode) {
  return {pts.cell_ids(), pts.points(), mode};
}

// --- Wire codec ------------------------------------------------------------

TEST(SubscribeWire, SpecRoundTripAllSelectorsAndModes) {
  std::vector<SubscriptionSpec> specs;
  for (SubscriptionMode mode : {SubscriptionMode::kBoth,
                                SubscriptionMode::kEnterOnly,
                                SubscriptionMode::kLeaveOnly}) {
    SubscriptionSpec all;
    all.mode = mode;
    specs.push_back(all);

    SubscriptionSpec ids;
    ids.selector = SubscriptionSpec::Selector::kPolygonIds;
    ids.polygon_ids = {3, 1, 4, 1, 5};
    ids.mode = mode;
    specs.push_back(ids);

    SubscriptionSpec range;
    range.selector = SubscriptionSpec::Selector::kCellRange;
    range.cell_lo = 100;
    range.cell_hi = 9000;
    range.mode = mode;
    specs.push_back(range);
  }
  for (const SubscriptionSpec& spec : specs) {
    util::ByteWriter w;
    AppendSubscribe(spec, &w);
    SubscriptionSpec got;
    ASSERT_TRUE(DecodeSubscribe(w.bytes(), &got));
    EXPECT_EQ(got.selector, spec.selector);
    EXPECT_EQ(got.mode, spec.mode);
    EXPECT_EQ(got.polygon_ids, spec.polygon_ids);
    EXPECT_EQ(got.cell_lo, spec.cell_lo);
    EXPECT_EQ(got.cell_hi, spec.cell_hi);
  }
}

TEST(SubscribeWire, SpecRejectsMalformedPayloads) {
  SubscriptionSpec spec;
  spec.selector = SubscriptionSpec::Selector::kPolygonIds;
  spec.polygon_ids = {7, 8, 9};
  util::ByteWriter w;
  AppendSubscribe(spec, &w);
  std::vector<uint8_t> good = w.bytes();

  SubscriptionSpec out;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeSubscribe(bad, &out)) << "cut=" << cut;
  }
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DecodeSubscribe(padded, &out));

  std::vector<uint8_t> bad_selector = good;
  bad_selector[0] = 3;
  EXPECT_FALSE(DecodeSubscribe(bad_selector, &out));
  std::vector<uint8_t> bad_mode = good;
  bad_mode[1] = 3;
  EXPECT_FALSE(DecodeSubscribe(bad_mode, &out));
  std::vector<uint8_t> bad_reserved = good;
  bad_reserved[2] = 1;
  EXPECT_FALSE(DecodeSubscribe(bad_reserved, &out));
  // A forged count larger than the bytes actually present.
  std::vector<uint8_t> forged = good;
  forged[4] = 0xFF;
  EXPECT_FALSE(DecodeSubscribe(forged, &out));
  // An empty id list is meaningless and refused.
  SubscriptionSpec empty_ids;
  empty_ids.selector = SubscriptionSpec::Selector::kPolygonIds;
  util::ByteWriter we;
  AppendSubscribe(empty_ids, &we);
  EXPECT_FALSE(DecodeSubscribe(we.bytes(), &out));
  // An inverted cell range is refused.
  SubscriptionSpec inverted;
  inverted.selector = SubscriptionSpec::Selector::kCellRange;
  inverted.cell_lo = 9;
  inverted.cell_hi = 3;
  util::ByteWriter wi;
  AppendSubscribe(inverted, &wi);
  EXPECT_FALSE(DecodeSubscribe(wi.bytes(), &out));
}

TEST(SubscribeWire, InfoEventAndGapRoundTrip) {
  SubscriptionInfo info{.id = 42, .epoch = 7, .watched_polygons = 310,
                        .coverage_intervals = 19};
  util::ByteWriter wi;
  AppendSubscriptionInfo(info, &wi);
  SubscriptionInfo info_got;
  ASSERT_TRUE(DecodeSubscriptionInfo(wi.bytes(), &info_got));
  EXPECT_EQ(info_got, info);

  EventBatch batch;
  batch.subscription_id = 42;
  batch.first_seq = 1001;
  batch.epoch = 7;
  batch.events = {{GeoEventKind::kLeave, 3, 17},
                  {GeoEventKind::kEnter, 3, 29},
                  {GeoEventKind::kEnter, 8, 4}};
  util::ByteWriter wb;
  AppendEventBatch(batch, &wb);
  EventBatch batch_got;
  ASSERT_TRUE(DecodeEventBatch(wb.bytes(), &batch_got));
  EXPECT_EQ(batch_got, batch);

  EventGap gap{.subscription_id = 42, .first_skipped_seq = 1004,
               .last_skipped_seq = 1050};
  util::ByteWriter wg;
  AppendEventGap(gap, &wg);
  EventGap gap_got;
  ASSERT_TRUE(DecodeEventGap(wg.bytes(), &gap_got));
  EXPECT_EQ(gap_got, gap);

  // The server-initiated frame builders stamp v6, the push type, and
  // request id 0 (no request is being answered).
  std::vector<uint8_t> frame = EncodeEventFrame(batch);
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kFrame);
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, MessageType::kEvent);
  EXPECT_EQ(header.request_id, 0u);
}

TEST(SubscribeWire, EventAndGapRejectMalformedPayloads) {
  EventBatch batch;
  batch.subscription_id = 1;
  batch.first_seq = 1;
  batch.events = {{GeoEventKind::kEnter, 5, 6},
                  {GeoEventKind::kLeave, 5, 6}};
  util::ByteWriter wb;
  AppendEventBatch(batch, &wb);
  std::vector<uint8_t> good = wb.bytes();

  EventBatch out;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeEventBatch(bad, &out)) << "cut=" << cut;
  }
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DecodeEventBatch(padded, &out));
  // Reserved u32 after the count must be zero.
  std::vector<uint8_t> bad_reserved = good;
  bad_reserved[28] = 1;
  EXPECT_FALSE(DecodeEventBatch(bad_reserved, &out));
  // An event's kind byte only admits 0 / 1, and its pad bytes only 0.
  std::vector<uint8_t> bad_kind = good;
  bad_kind[32] = 2;
  EXPECT_FALSE(DecodeEventBatch(bad_kind, &out));
  std::vector<uint8_t> bad_pad = good;
  bad_pad[33] = 1;
  EXPECT_FALSE(DecodeEventBatch(bad_pad, &out));
  // A forged count cannot reserve more events than arrived.
  std::vector<uint8_t> forged = good;
  forged[24] = 0xFF;
  EXPECT_FALSE(DecodeEventBatch(forged, &out));

  EventGap gap{.subscription_id = 9, .first_skipped_seq = 2,
               .last_skipped_seq = 5};
  util::ByteWriter wg;
  AppendEventGap(gap, &wg);
  std::vector<uint8_t> ggood = wg.bytes();
  EventGap gout;
  for (size_t cut = 0; cut < ggood.size(); ++cut) {
    std::vector<uint8_t> bad(ggood.begin(),
                             ggood.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeEventGap(bad, &gout)) << "cut=" << cut;
  }

  uint64_t sub = 0;
  std::vector<uint8_t> seven(7, 0);
  EXPECT_FALSE(DecodeUnsubscribe(seven, &sub));
  std::vector<uint8_t> nine(9, 0);
  EXPECT_FALSE(DecodeUnsubscribe(nine, &sub));
}

// --- Matcher vs recompute-from-scratch oracle ------------------------------

/// The oracle: brute-force point-in-polygon membership over the live
/// polygon map (global id -> polygon), recomputed from scratch at every
/// step — the ground truth the incremental ENTER/LEAVE stream must fold
/// to.
std::set<uint32_t> OracleMembership(
    const std::map<uint32_t, geom::Polygon>& live, const geom::Point& p) {
  std::set<uint32_t> inside;
  for (const auto& [id, poly] : live) {
    if (geom::ContainsPoint(poly, p)) inside.insert(id);
  }
  return inside;
}

/// Collects every delivered batch; folding and assertions happen on the
/// main thread after the driving call returns (OnPointBatch runs before
/// Submit's future resolves, OnEpochSwap inside the mutation call).
struct EventLog {
  std::mutex mu;
  std::vector<EventBatch> batches;

  SubscriptionMatcher::EventSink Sink() {
    return [this](EventBatch&& batch) {
      std::lock_guard<std::mutex> lock(mu);
      batches.push_back(std::move(batch));
    };
  }
  std::vector<EventBatch> Take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(batches, {});
  }
};

/// Folds one transition's batches into per-track membership, asserting
/// the determinism contract along the way: dense seqs continuing at
/// *next_seq, and within each batch ascending track ids with LEAVEs
/// before ENTERs per track, each group in ascending polygon id.
void FoldAndCheck(const std::vector<EventBatch>& batches, uint64_t* next_seq,
                  std::map<uint32_t, std::set<uint32_t>>* membership) {
  for (const EventBatch& batch : batches) {
    EXPECT_EQ(batch.first_seq, *next_seq);
    *next_seq += batch.events.size();
    for (size_t i = 1; i < batch.events.size(); ++i) {
      const GeoEvent& prev = batch.events[i - 1];
      const GeoEvent& cur = batch.events[i];
      ASSERT_LE(prev.track_id, cur.track_id);
      if (prev.track_id == cur.track_id) {
        if (prev.kind == cur.kind) {
          EXPECT_LT(prev.polygon_id, cur.polygon_id);
        } else {
          // LEAVEs come first within a track.
          EXPECT_EQ(prev.kind, GeoEventKind::kLeave);
          EXPECT_EQ(cur.kind, GeoEventKind::kEnter);
        }
      }
    }
    for (const GeoEvent& e : batch.events) {
      std::set<uint32_t>& inside = (*membership)[e.track_id];
      if (e.kind == GeoEventKind::kEnter) {
        EXPECT_TRUE(inside.insert(e.polygon_id).second)
            << "duplicate ENTER track=" << e.track_id
            << " polygon=" << e.polygon_id;
      } else {
        EXPECT_EQ(inside.erase(e.polygon_id), 1u)
            << "LEAVE without ENTER track=" << e.track_id
            << " polygon=" << e.polygon_id;
      }
    }
  }
}

TEST(SubscribeMatcher, FoldedEventsMatchOracleAcrossMotionAndMutations) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(BuildShared(ds.polygons, grid),
                      sopts);
  SubscriptionMatcher matcher(&service.catalog());
  service.set_subscription_matcher(&matcher);

  EventLog log;
  auto info = matcher.Add(0, SubscriptionSpec{}, log.Sink());
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->id, 0u);
  EXPECT_EQ(info->watched_polygons, ds.polygons.size());
  EXPECT_GT(info->coverage_intervals, 0u);
  EXPECT_EQ(matcher.active_subscriptions(), 1u);

  std::map<uint32_t, geom::Polygon> live;
  for (size_t i = 0; i < ds.polygons.size(); ++i) {
    live.emplace(static_cast<uint32_t>(i), ds.polygons[i]);
  }

  const uint64_t kTracks = 96;
  wl::PointSet pos_a = wl::TaxiPoints(ds.mbr, kTracks, grid, 61);
  wl::PointSet pos_b = wl::TaxiPoints(ds.mbr, kTracks, grid, 62);

  uint64_t next_seq = 1;
  std::map<uint32_t, std::set<uint32_t>> membership;
  auto check_against_oracle = [&](const wl::PointSet& pos) {
    for (uint64_t t = 0; t < kTracks; ++t) {
      std::set<uint32_t> want = OracleMembership(live, pos.points()[t]);
      auto it = membership.find(static_cast<uint32_t>(t));
      std::set<uint32_t> got =
          it == membership.end() ? std::set<uint32_t>{} : it->second;
      EXPECT_EQ(got, want) << "track " << t;
    }
  };

  // Step 1: first sighting of every track — the initial memberships
  // arrive as ENTERs.
  service.Submit(MakeBatch(pos_a, JoinMode::kExact)).get();
  FoldAndCheck(log.Take(), &next_seq, &membership);
  check_against_oracle(pos_a);

  // Step 2: every track moves — the diff against the previous positions.
  service.Submit(MakeBatch(pos_b, JoinMode::kExact)).get();
  FoldAndCheck(log.Take(), &next_seq, &membership);
  check_against_oracle(pos_b);

  // Step 3: REMOVE_POLYGONS publishes a new epoch — LEAVEs with no point
  // traffic at all (the epoch swap re-evaluates every known track).
  std::vector<uint32_t> removed = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(service.RemovePolygons(0, removed).status,
            service::MutationStatus::kApplied);
  for (uint32_t id : removed) live.erase(id);
  FoldAndCheck(log.Take(), &next_seq, &membership);
  check_against_oracle(pos_b);

  // Step 4: ADD_POLYGONS re-adds them under fresh ids — ENTERs appear for
  // tracks inside (a watch-all subscription picks up later additions).
  std::vector<geom::Polygon> readd;
  for (uint32_t id : removed) readd.push_back(ds.polygons[id]);
  service::MutationResult add = service.AddPolygons(0, readd);
  ASSERT_EQ(add.status, service::MutationStatus::kApplied);
  for (size_t i = 0; i < readd.size(); ++i) {
    live.emplace(add.first_id + static_cast<uint32_t>(i), readd[i]);
  }
  FoldAndCheck(log.Take(), &next_seq, &membership);
  check_against_oracle(pos_b);

  // Step 5: move everything back — still consistent after the swaps.
  service.Submit(MakeBatch(pos_a, JoinMode::kExact)).get();
  FoldAndCheck(log.Take(), &next_seq, &membership);
  check_against_oracle(pos_a);

  EXPECT_EQ(matcher.events_emitted(), next_seq - 1);
  EXPECT_TRUE(matcher.Remove(info->id));
  EXPECT_FALSE(matcher.Remove(info->id));
  EXPECT_EQ(matcher.active_subscriptions(), 0u);
}

TEST(SubscribeMatcher, ModeFilterIsEmissionOnlyAndSeqsStayDense) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(BuildShared(ds.polygons, grid),
                      sopts);
  SubscriptionMatcher matcher(&service.catalog());
  service.set_subscription_matcher(&matcher);

  EventLog both_log, enter_log, leave_log;
  SubscriptionSpec both, enter, leave;
  enter.mode = SubscriptionMode::kEnterOnly;
  leave.mode = SubscriptionMode::kLeaveOnly;
  auto both_info = matcher.Add(0, both, both_log.Sink());
  auto enter_info = matcher.Add(0, enter, enter_log.Sink());
  auto leave_info = matcher.Add(0, leave, leave_log.Sink());
  ASSERT_TRUE(both_info && enter_info && leave_info);

  const uint64_t kTracks = 64;
  for (uint64_t seed : {71, 72, 73}) {
    wl::PointSet pos = wl::TaxiPoints(ds.mbr, kTracks, grid, seed);
    service.Submit(MakeBatch(pos, JoinMode::kExact)).get();
  }

  auto flatten = [](const std::vector<EventBatch>& batches,
                    uint64_t* final_seq) {
    std::vector<GeoEvent> events;
    uint64_t next = 1;
    for (const EventBatch& b : batches) {
      EXPECT_EQ(b.first_seq, next);  // dense: filter runs before numbering
      next += b.events.size();
      events.insert(events.end(), b.events.begin(), b.events.end());
    }
    *final_seq = next;
    return events;
  };
  uint64_t both_seq = 0, enter_seq = 0, leave_seq = 0;
  std::vector<GeoEvent> all = flatten(both_log.Take(), &both_seq);
  std::vector<GeoEvent> enters = flatten(enter_log.Take(), &enter_seq);
  std::vector<GeoEvent> leaves = flatten(leave_log.Take(), &leave_seq);

  // The filtered streams are exactly the kind-restricted subsequences of
  // the unfiltered one: filtering never reorders, drops, or invents.
  std::vector<GeoEvent> want_enters, want_leaves;
  for (const GeoEvent& e : all) {
    (e.kind == GeoEventKind::kEnter ? want_enters : want_leaves).push_back(e);
  }
  EXPECT_EQ(enters, want_enters);
  EXPECT_EQ(leaves, want_leaves);
  EXPECT_FALSE(all.empty());
  EXPECT_FALSE(leaves.empty()) << "motion should produce some LEAVEs";
  EXPECT_EQ(both_seq - 1, all.size());
  EXPECT_EQ(enter_seq - 1, enters.size());
  EXPECT_EQ(leave_seq - 1, leaves.size());
}

TEST(SubscribeMatcher, EpochTagsNeverRegressUnderConcurrentSwaps) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  ServiceOptions sopts;
  sopts.worker_threads = 4;
  JoinService service(BuildShared(ds.polygons, grid), sopts);
  SubscriptionMatcher matcher(&service.catalog());
  service.set_subscription_matcher(&matcher);

  EventLog log;
  auto info = matcher.Add(0, SubscriptionSpec{}, log.Sink());
  ASSERT_TRUE(info.has_value());

  const uint64_t kTracks = 64;
  wl::PointSet pos_a = wl::TaxiPoints(ds.mbr, kTracks, grid, 95);
  wl::PointSet pos_b = wl::TaxiPoints(ds.mbr, kTracks, grid, 96);

  // Point batches race live mutations: a worker that acquired its
  // snapshot just before a swap (or behind a faster worker at the new
  // epoch) must not roll the subscription back to the older epoch —
  // the regression rebuilt coverage against the stale index and emitted
  // phantom LEAVE/ENTER flaps the next batch reversed. The black-box
  // signature of that rollback is a delivered batch tagged with a lower
  // epoch than one already delivered.
  std::thread mutator([&] {
    for (size_t i = 0; i < 24; ++i) {
      service.AddPolygons(0, {ds.polygons[i % ds.polygons.size()]});
    }
  });
  std::vector<std::future<service::JoinResult>> in_flight;
  for (int i = 0; i < 48; ++i) {
    in_flight.push_back(
        service.Submit(MakeBatch(i % 2 == 0 ? pos_a : pos_b,
                                 JoinMode::kExact)));
  }
  for (auto& f : in_flight) f.get();
  mutator.join();

  uint64_t prev_epoch = 0;
  uint64_t next_seq = 1;
  for (const EventBatch& b : log.Take()) {
    EXPECT_GE(b.epoch, prev_epoch) << "delivered epoch regressed";
    prev_epoch = std::max(prev_epoch, b.epoch);
    EXPECT_EQ(b.first_seq, next_seq) << "seq space tore under the race";
    next_seq += b.events.size();
  }
  EXPECT_EQ(matcher.events_emitted(), next_seq - 1);
}

TEST(SubscribeMatcher, AddRefusesUnknownDatasetAndOutOfRangeIds) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  JoinService service(BuildShared(ds.polygons, grid), {});
  SubscriptionMatcher matcher(&service.catalog());

  EventLog log;
  EXPECT_FALSE(matcher.Add(77, SubscriptionSpec{}, log.Sink()).has_value());

  SubscriptionSpec bad_ids;
  bad_ids.selector = SubscriptionSpec::Selector::kPolygonIds;
  bad_ids.polygon_ids = {0, static_cast<uint32_t>(ds.polygons.size())};
  EXPECT_FALSE(matcher.Add(0, bad_ids, log.Sink()).has_value());

  SubscriptionSpec good_ids;
  good_ids.selector = SubscriptionSpec::Selector::kPolygonIds;
  good_ids.polygon_ids = {0, 1, 2};
  auto info = matcher.Add(0, good_ids, log.Sink());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->watched_polygons, 3u);
}

/// The kCellRange selector's definition over a snapshot's covering:
/// every polygon referenced by a covering cell whose leaf-id range meets
/// [lo, hi].
std::set<uint32_t> CellRangeWatched(const ShardedIndex& index, uint64_t lo,
                                    uint64_t hi) {
  std::set<uint32_t> out;
  if (index.index() == nullptr) return out;
  const act::SuperCovering& sc = index.index()->covering();
  for (size_t i = 0; i < sc.size(); ++i) {
    if (sc.cell(i).range_max().id() < lo || sc.cell(i).range_min().id() > hi) {
      continue;
    }
    for (const act::PolygonRef& r : sc.refs(i)) out.insert(r.polygon_id);
  }
  return out;
}

/// One subscription's delivered stream, folded by FoldAndCheck.
struct Folded {
  EventLog log;
  uint64_t next_seq = 1;
  std::map<uint32_t, std::set<uint32_t>> membership;
};

TEST(SubscribeMatcher, SharedProbeServesEverySelectorAndALateSubscriber) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(BuildShared(ds.polygons, grid), sopts);
  SubscriptionMatcher matcher(&service.catalog());
  service.set_subscription_matcher(&matcher);

  std::map<uint32_t, geom::Polygon> live;
  for (size_t i = 0; i < ds.polygons.size(); ++i) {
    live.emplace(static_cast<uint32_t>(i), ds.polygons[i]);
  }
  const uint64_t kTracks = 128;
  std::vector<wl::PointSet> pos;
  for (uint64_t seed : {81, 82, 83}) {
    pos.push_back(wl::TaxiPoints(ds.mbr, kTracks, grid, seed));
  }
  std::vector<size_t> at(kTracks, 0);  // track t reports pos[at[t]][t]
  auto point_of = [&](uint64_t t) { return pos[at[t]].points()[t]; };
  auto submit = [&] {
    QueryBatch b;
    for (uint64_t t = 0; t < kTracks; ++t) {
      b.cell_ids.push_back(pos[at[t]].cell_ids()[t]);
      b.points.push_back(point_of(t));
    }
    service.Submit(std::move(b)).get();
  };

  // Track t0 never moves below (no t % 3 == 0, t % 10 == 1, t % 4 == 2)
  // and sits inside polygon `inner`. A small cell region around it: the
  // cell-range subscription watches `inner` plus whatever else the
  // coverings put there, never the whole dataset.
  auto stationary = [](uint64_t t) {
    return t % 3 != 0 && t % 10 != 1 && t % 4 != 2;
  };
  uint64_t t0 = 0;
  while (t0 < kTracks &&
         (!stationary(t0) || OracleMembership(live, point_of(t0)).empty())) {
    ++t0;
  }
  ASSERT_LT(t0, kTracks);
  const uint32_t inner = *OracleMembership(live, point_of(t0)).begin();
  const uint64_t mask = (uint64_t{1} << 30) - 1;
  SubscriptionSpec range;
  range.selector = SubscriptionSpec::Selector::kCellRange;
  range.cell_lo = pos[0].cell_ids()[t0] & ~mask;
  range.cell_hi = pos[0].cell_ids()[t0] | mask;
  auto range_watched = [&] {
    return CellRangeWatched(*service.catalog().Find(0)->Acquire(),
                            range.cell_lo, range.cell_hi);
  };
  ASSERT_TRUE(range_watched().count(inner));
  ASSERT_LT(range_watched().size(), live.size());

  SubscriptionSpec ids;
  ids.selector = SubscriptionSpec::Selector::kPolygonIds;
  ids.polygon_ids = {0, 1, 2, 3, 4, 5, inner};
  Folded all_f, ids_f, range_f;
  ASSERT_TRUE(matcher.Add(0, SubscriptionSpec{}, all_f.log.Sink()));
  ASSERT_TRUE(matcher.Add(0, ids, ids_f.log.Sink()));
  auto range_info = matcher.Add(0, range, range_f.log.Sink());
  ASSERT_TRUE(range_info);
  EXPECT_EQ(range_info->watched_polygons, range_watched().size());
  EXPECT_GT(range_info->coverage_intervals, 0u);

  // The ENTER-only subscriber is added later; it models membership as the
  // oracle at each transition it saw, so its ENTERs are the oracle's
  // positive diff — everything, for a track it has never seen.
  EventLog enter_log;
  uint64_t enter_seq = 1;
  bool enter_added = false;
  std::map<uint32_t, std::set<uint32_t>> enter_model;

  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    const std::set<uint32_t> ids_set(ids.polygon_ids.begin(),
                                     ids.polygon_ids.end());
    const std::set<uint32_t> range_set = range_watched();
    struct Case {
      Folded* f;
      const std::set<uint32_t>* watched;  // null: every live polygon
    };
    for (Case c : {Case{&all_f, nullptr}, Case{&ids_f, &ids_set},
                   Case{&range_f, &range_set}}) {
      FoldAndCheck(c.f->log.Take(), &c.f->next_seq, &c.f->membership);
      for (uint64_t t = 0; t < kTracks; ++t) {
        std::set<uint32_t> want;
        for (uint32_t id : OracleMembership(live, point_of(t))) {
          if (c.watched == nullptr || c.watched->count(id)) want.insert(id);
        }
        auto it = c.f->membership.find(static_cast<uint32_t>(t));
        std::set<uint32_t> got =
            it == c.f->membership.end() ? std::set<uint32_t>{} : it->second;
        EXPECT_EQ(got, want) << "track " << t;
      }
    }

    std::vector<GeoEvent> got;
    for (const EventBatch& b : enter_log.Take()) {
      EXPECT_EQ(b.first_seq, enter_seq);
      enter_seq += b.events.size();
      got.insert(got.end(), b.events.begin(), b.events.end());
    }
    std::vector<GeoEvent> want;
    if (enter_added) {
      for (uint64_t t = 0; t < kTracks; ++t) {
        const uint32_t id = static_cast<uint32_t>(t);
        std::set<uint32_t> now = OracleMembership(live, point_of(t));
        std::set<uint32_t>& before = enter_model[id];
        for (uint32_t p : now) {
          if (!before.count(p)) want.push_back({GeoEventKind::kEnter, id, p});
        }
        before = now;
      }
    }
    EXPECT_EQ(got, want);
  };

  submit();  // first sighting of every track
  check("first sighting");
  for (uint64_t t = 0; t < kTracks; t += 3) at[t] = 1;
  submit();
  check("a third of the fleet moves");

  const std::set<uint32_t> removed_set = {1, 3, inner};
  const std::vector<uint32_t> removed(removed_set.begin(), removed_set.end());
  ASSERT_EQ(service.RemovePolygons(0, removed).status,
            service::MutationStatus::kApplied);
  for (uint32_t id : removed) live.erase(id);
  check("remove");

  // Mid-stream, while nine tracks in ten stand still: the newcomer must
  // still see every track's memberships on its first batch.
  SubscriptionSpec enter_only;
  enter_only.mode = SubscriptionMode::kEnterOnly;
  ASSERT_TRUE(matcher.Add(0, enter_only, enter_log.Sink()));
  enter_added = true;
  for (uint64_t t = 1; t < kTracks; t += 10) at[t] = 2;
  submit();
  check("late subscriber, mostly stationary fleet");
  EXPECT_FALSE(enter_model.empty());

  // Re-adding the removed polygons under fresh ids touches the cell
  // region again: the range subscription's watched set grows on the swap.
  std::vector<geom::Polygon> readd;
  for (uint32_t id : removed) readd.push_back(ds.polygons[id]);
  service::MutationResult add = service.AddPolygons(0, readd);
  ASSERT_EQ(add.status, service::MutationStatus::kApplied);
  for (size_t i = 0; i < readd.size(); ++i) {
    live.emplace(add.first_id + static_cast<uint32_t>(i), readd[i]);
  }
  const uint32_t inner_copy =
      add.first_id + static_cast<uint32_t>(std::distance(
                         removed.begin(), std::find(removed.begin(),
                                                    removed.end(), inner)));
  EXPECT_TRUE(range_watched().count(inner_copy));
  check("add touching the cell region");
  EXPECT_TRUE(range_f.membership[static_cast<uint32_t>(t0)].count(inner_copy));

  for (uint64_t t = 2; t < kTracks; t += 4) at[t] = 0;
  submit();
  check("motion after the add");
  const uint64_t emitted = matcher.events_emitted();
  submit();  // the identical batch again: nothing moves, nothing fires
  check("repeated batch");
  EXPECT_EQ(matcher.events_emitted(), emitted);
}

TEST(SubscribeMatcher, SharedProbeCountsEachReevaluatedTrackOnce) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  service::ServiceCatalog catalog;
  ASSERT_TRUE(catalog.Add("zones", BuildShared(ds.polygons, grid)));
  SubscriptionMatcher one(&catalog), four(&catalog);
  util::MetricsRegistry one_metrics, four_metrics;
  one.RegisterMetrics(&one_metrics);
  four.RegisterMetrics(&four_metrics);
  auto probed = [](const util::MetricsRegistry& registry) {
    for (const util::MetricSample& s :
         util::FlattenSamples(registry.Collect())) {
      if (s.name == "subscription_points_probed_total") {
        return static_cast<uint64_t>(s.value);
      }
    }
    ADD_FAILURE() << "subscription_points_probed_total not registered";
    return uint64_t{0};
  };

  EventLog log;
  ASSERT_TRUE(one.Add(0, SubscriptionSpec{}, log.Sink()));
  SubscriptionSpec ids, range, enter;
  ids.selector = SubscriptionSpec::Selector::kPolygonIds;
  ids.polygon_ids = {0, 1, 2};
  range.selector = SubscriptionSpec::Selector::kCellRange;
  range.cell_hi = UINT64_MAX / 2;
  enter.mode = SubscriptionMode::kEnterOnly;
  for (const SubscriptionSpec& spec : {SubscriptionSpec{}, ids, range, enter}) {
    ASSERT_TRUE(four.Add(0, spec, log.Sink()));
  }

  const uint64_t kTracks = 80;
  wl::PointSet pos_a = wl::TaxiPoints(ds.mbr, kTracks, grid, 91);
  wl::PointSet pos_b = wl::TaxiPoints(ds.mbr, kTracks, grid, 92);
  std::vector<uint64_t> cells(pos_a.cell_ids().begin(),
                              pos_a.cell_ids().end());
  std::vector<geom::Point> points(pos_a.points().begin(),
                                  pos_a.points().end());
  // Feeds the first n tracks to both matchers; returns each one's growth
  // of the counter.
  auto feed = [&](size_t n) {
    const uint64_t one_before = probed(one_metrics);
    const uint64_t four_before = probed(four_metrics);
    one.OnPointBatch(0, std::span(cells).first(n), std::span(points).first(n));
    four.OnPointBatch(0, std::span(cells).first(n),
                      std::span(points).first(n));
    return std::pair(probed(one_metrics) - one_before,
                     probed(four_metrics) - four_before);
  };
  using Growth = std::pair<uint64_t, uint64_t>;

  EXPECT_EQ(feed(64), Growth(64, 64));  // every track is new
  EXPECT_EQ(feed(64), Growth(0, 0));    // an identical batch probes nothing
  uint64_t moved = 0;
  for (uint64_t t = 0; t < 64; t += 4) {
    if (pos_b.points()[t] != points[t]) ++moved;
    cells[t] = pos_b.cell_ids()[t];
    points[t] = pos_b.points()[t];
  }
  ASSERT_GT(moved, 0u);
  EXPECT_EQ(feed(64), Growth(moved, moved));  // only the moved tracks
  EXPECT_EQ(feed(kTracks), Growth(kTracks - 64, kTracks - 64));  // new tail
  EXPECT_EQ(feed(kTracks), Growth(0, 0));

  // A fresh subscription knows no track yet, so the next batch re-evaluates
  // all of them — once, however many subscriptions already knew them.
  ASSERT_TRUE(four.Add(0, SubscriptionSpec{}, log.Sink()));
  EXPECT_EQ(feed(kTracks), Growth(0, kTracks));
  EXPECT_EQ(one.points_probed(), probed(one_metrics));
}

/// Folds `batches` into fresh per-track memberships and checks each of the
/// first `n` tracks against the oracle over every polygon of `ds`.
void ExpectFirstSightingMatchesOracle(const std::vector<EventBatch>& batches,
                                      const wl::PolygonDataset& ds,
                                      std::span<const geom::Point> points) {
  std::map<uint32_t, geom::Polygon> live;
  for (size_t i = 0; i < ds.polygons.size(); ++i) {
    live.emplace(static_cast<uint32_t>(i), ds.polygons[i]);
  }
  uint64_t next_seq = 1;
  std::map<uint32_t, std::set<uint32_t>> membership;
  FoldAndCheck(batches, &next_seq, &membership);
  EXPECT_GT(next_seq, 1u);
  for (size_t t = 0; t < points.size(); ++t) {
    auto it = membership.find(static_cast<uint32_t>(t));
    std::set<uint32_t> got =
        it == membership.end() ? std::set<uint32_t>{} : it->second;
    EXPECT_EQ(got, OracleMembership(live, points[t])) << "track " << t;
  }
}

TEST(SubscribeMatcher, AddDoesNotWaitForARunningTransition) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  service::ServiceCatalog catalog;
  ASSERT_TRUE(catalog.Add("zones", BuildShared(ds.polygons, grid)));
  SubscriptionMatcher matcher(&catalog);

  // The first delivery blocks until released, so the feeding thread sits
  // inside a transition, holding the dataset's subscription lock.
  std::promise<void> entered, release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> blocked{false};
  ASSERT_TRUE(matcher.Add(0, SubscriptionSpec{}, [&](EventBatch&&) {
    if (!blocked.exchange(true)) {
      entered.set_value();
      released.wait();
    }
  }));
  wl::PointSet pos = wl::TaxiPoints(ds.mbr, 64, grid, 97);
  std::thread feeder(
      [&] { matcher.OnPointBatch(0, pos.cell_ids(), pos.points()); });
  const bool in_transition =
      entered.get_future().wait_for(std::chrono::seconds(10)) ==
      std::future_status::ready;

  // A subscriber connecting now, and one that connects and leaves before
  // any batch, must not wait for the running transition.
  EventLog log;
  auto late = std::async(std::launch::async, [&] {
    return matcher.Add(0, SubscriptionSpec{}, log.Sink());
  });
  auto fleeting = std::async(std::launch::async, [&] {
    auto info = matcher.Add(0, SubscriptionSpec{}, log.Sink());
    return info.has_value() && matcher.Remove(info->id);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const bool add_returned =
      late.wait_until(deadline) == std::future_status::ready;
  const bool remove_returned =
      fleeting.wait_until(deadline) == std::future_status::ready;
  release.set_value();
  feeder.join();
  ASSERT_TRUE(in_transition) << "the first batch delivered nothing";
  EXPECT_TRUE(add_returned) << "Add waited for the in-flight transition";
  EXPECT_TRUE(remove_returned)
      << "Remove of a queued subscription waited for the transition";
  ASSERT_TRUE(late.get().has_value());
  EXPECT_TRUE(fleeting.get());
  EXPECT_EQ(matcher.active_subscriptions(), 2u);
  EXPECT_TRUE(log.Take().empty());

  // The queued subscription joins at the next transition: a first sighting
  // of every track, even though none of them moved.
  matcher.OnPointBatch(0, pos.cell_ids(), pos.points());
  ExpectFirstSightingMatchesOracle(log.Take(), ds, pos.points());
}

TEST(SubscribeMatcher, LastRemoveFreesSharedTrackState) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  service::ServiceCatalog catalog;
  ASSERT_TRUE(catalog.Add("zones", BuildShared(ds.polygons, grid)));
  SubscriptionMatcher matcher(&catalog);
  util::MetricsRegistry metrics;
  matcher.RegisterMetrics(&metrics);
  auto held_gauge = [&] {
    for (const util::MetricSample& s :
         util::FlattenSamples(metrics.Collect())) {
      if (s.name == "subscription_tracks_held") {
        return static_cast<size_t>(s.value);
      }
    }
    ADD_FAILURE() << "subscription_tracks_held not registered";
    return size_t{0};
  };

  EventLog log;
  SubscriptionSpec ids;
  ids.selector = SubscriptionSpec::Selector::kPolygonIds;
  ids.polygon_ids = {0, 1, 2};
  auto a = matcher.Add(0, SubscriptionSpec{}, log.Sink());
  auto b = matcher.Add(0, ids, log.Sink());
  ASSERT_TRUE(a && b);
  EXPECT_EQ(matcher.tracks_held(), 0u);

  const size_t kTracks = 80;
  wl::PointSet pos = wl::TaxiPoints(ds.mbr, kTracks, grid, 98);
  const std::span<const uint64_t> cells = pos.cell_ids();
  const std::span<const geom::Point> points = pos.points();
  matcher.OnPointBatch(0, cells.first(48), points.first(48));
  EXPECT_EQ(matcher.tracks_held(), 48u);
  matcher.OnPointBatch(0, cells, points);
  EXPECT_EQ(matcher.tracks_held(), kTracks);
  EXPECT_EQ(held_gauge(), kTracks);

  EXPECT_TRUE(matcher.Remove(a->id));
  EXPECT_EQ(matcher.tracks_held(), kTracks);  // b still knows every track
  EXPECT_TRUE(matcher.Remove(b->id));
  EXPECT_EQ(matcher.tracks_held(), 0u);
  EXPECT_EQ(held_gauge(), 0u);
  log.Take();

  // A subscriber arriving after the reset starts from nothing: the same
  // positions are probed again and every track's memberships ENTER.
  ASSERT_TRUE(matcher.Add(0, SubscriptionSpec{}, log.Sink()));
  const uint64_t probed = matcher.points_probed();
  matcher.OnPointBatch(0, cells, points);
  EXPECT_EQ(matcher.points_probed() - probed, kTracks);
  EXPECT_EQ(matcher.tracks_held(), kTracks);
  ExpectFirstSightingMatchesOracle(log.Take(), ds, points);
}

// --- Served push channel over loopback -------------------------------------

struct TestServer {
  wl::PolygonDataset ds;
  std::shared_ptr<const ShardedIndex> index;
  std::unique_ptr<JoinService> service;
  std::unique_ptr<JoinServer> server;

  static TestServer Make(const ServiceOptions& sopts, ServerOptions nopts) {
    Grid grid;
    TestServer out;
    out.ds = wl::Neighborhoods(0.05);
    out.index = BuildShared(out.ds.polygons, grid);
    out.service = std::make_unique<JoinService>(out.index, sopts);
    out.server = std::make_unique<JoinServer>(out.service.get(), nopts);
    std::string error;
    // gtest macros must run on the main thread; Make is only called there.
    EXPECT_TRUE(out.server->Start(&error)) << error;
    return out;
  }
};

/// Client-side event collector: handlers run on the reader thread, the
/// main thread waits for an expected count and then asserts.
struct ClientLog {
  std::mutex mu;
  std::vector<EventBatch> batches;
  std::vector<EventGap> gaps;
  size_t events = 0;

  AsyncJoinClient::EventHandler OnEvents() {
    return [this](const EventBatch& batch) {
      std::lock_guard<std::mutex> lock(mu);
      events += batch.events.size();
      batches.push_back(batch);
    };
  }
  AsyncJoinClient::GapHandler OnGap() {
    return [this](const EventGap& gap) {
      std::lock_guard<std::mutex> lock(mu);
      gaps.push_back(gap);
    };
  }
  bool WaitForEvents(size_t want, int timeout_ms = 10000) {
    for (int waited = 0; waited < timeout_ms; waited += 5) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (events >= want) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::lock_guard<std::mutex> lock(mu);
    return events >= want;
  }
};

TEST(SubscribeServer, EndToEndEnterLeaveOverLoopback) {
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  Grid grid;

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;

  ClientLog log;
  AsyncJoinClient::SubscribeReply sub =
      client.Subscribe(0, SubscriptionSpec{}, log.OnEvents(), log.OnGap());
  ASSERT_TRUE(sub.ok) << sub.message;
  EXPECT_GT(sub.info.id, 0u);
  EXPECT_EQ(sub.info.watched_polygons, ts.ds.polygons.size());

  std::map<uint32_t, geom::Polygon> live;
  for (size_t i = 0; i < ts.ds.polygons.size(); ++i) {
    live.emplace(static_cast<uint32_t>(i), ts.ds.polygons[i]);
  }
  const uint64_t kTracks = 64;
  wl::PointSet pos_a = wl::TaxiPoints(ts.ds.mbr, kTracks, grid, 81);
  wl::PointSet pos_b = wl::TaxiPoints(ts.ds.mbr, kTracks, grid, 82);

  // Expected transition sizes come from the oracle, so the waits are for
  // exact counts, not sleeps-and-hopes.
  size_t inside_a = 0, diff_ab = 0;
  for (uint64_t t = 0; t < kTracks; ++t) {
    std::set<uint32_t> in_a = OracleMembership(live, pos_a.points()[t]);
    std::set<uint32_t> in_b = OracleMembership(live, pos_b.points()[t]);
    inside_a += in_a.size();
    std::vector<uint32_t> sym;
    std::set_symmetric_difference(in_a.begin(), in_a.end(), in_b.begin(),
                                  in_b.end(), std::back_inserter(sym));
    diff_ab += sym.size();
  }
  ASSERT_GT(inside_a, 0u);
  ASSERT_GT(diff_ab, 0u);

  ASSERT_TRUE(client.Join(MakeBatch(pos_a, JoinMode::kExact)).ok);
  ASSERT_TRUE(log.WaitForEvents(inside_a));
  ASSERT_TRUE(client.Join(MakeBatch(pos_b, JoinMode::kExact)).ok);
  ASSERT_TRUE(log.WaitForEvents(inside_a + diff_ab));

  // Fold the pushed stream and compare against the oracle at B.
  uint64_t next_seq = 1;
  std::map<uint32_t, std::set<uint32_t>> membership;
  std::vector<EventBatch> batches;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    batches = log.batches;
    EXPECT_EQ(log.events, inside_a + diff_ab);
    EXPECT_TRUE(log.gaps.empty());
  }
  for (const EventBatch& b : batches) {
    EXPECT_EQ(b.subscription_id, sub.info.id);
  }
  FoldAndCheck(batches, &next_seq, &membership);
  for (uint64_t t = 0; t < kTracks; ++t) {
    std::set<uint32_t> want = OracleMembership(live, pos_b.points()[t]);
    auto it = membership.find(static_cast<uint32_t>(t));
    std::set<uint32_t> got =
        it == membership.end() ? std::set<uint32_t>{} : it->second;
    EXPECT_EQ(got, want) << "track " << t;
  }

  // The standing query shows up in STATS, as do the push counters.
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.active_subscriptions, 1u);
  EXPECT_EQ(stats.events_pushed, inside_a + diff_ab);
  EXPECT_EQ(stats.events_dropped, 0u);

  // Unsubscribe acks (id echoed, figures zeroed) and silences the stream.
  AsyncJoinClient::SubscribeReply unsub = client.Unsubscribe(sub.info.id);
  ASSERT_TRUE(unsub.ok) << unsub.message;
  EXPECT_EQ(unsub.info.id, sub.info.id);
  EXPECT_EQ(unsub.info.watched_polygons, 0u);
  ASSERT_TRUE(client.Join(MakeBatch(pos_a, JoinMode::kExact)).ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(log.mu);
    EXPECT_EQ(log.events, inside_a + diff_ab);
  }
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.active_subscriptions, 0u);

  // Unsubscribing an id that was never assigned is a recoverable error.
  AsyncJoinClient::SubscribeReply bogus = client.Unsubscribe(4242);
  EXPECT_FALSE(bogus.ok);
  EXPECT_EQ(bogus.error, WireError::kUnknownSubscription);
  EXPECT_TRUE(client.Ping(&error)) << error;
}

TEST(SubscribeServer, PushInstrumentsExportedToRegistry) {
  // The push-path instruments ride the service's MetricsRegistry: outbox
  // depth as a gauge, gap markers as a counter, and delivery lag as a
  // histogram that records once per fully-flushed EVENT frame.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  Grid grid;

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  ClientLog log;
  AsyncJoinClient::SubscribeReply sub =
      client.Subscribe(0, SubscriptionSpec{}, log.OnEvents(), log.OnGap());
  ASSERT_TRUE(sub.ok) << sub.message;

  // Enough tracks that some point lands inside some polygon, so at least
  // one EVENT frame is queued, flushed, and lag-stamped.
  wl::PointSet pos = wl::TaxiPoints(ts.ds.mbr, 256, grid, 93);
  ASSERT_TRUE(client.Join(MakeBatch(pos, JoinMode::kExact)).ok);
  ASSERT_TRUE(log.WaitForEvents(1));

  // The server records the lag sample and decrements the depth gauge after
  // ::send returns, so the client can read the EVENT first: poll until
  // both updates are visible (or the deadline passes and the checks below
  // report which one is missing).
  const std::string lag_count = "actjoin_server_event_delivery_lag_us_count ";
  auto settled = [&](const std::string& t) {
    const size_t at = t.find(lag_count);
    return at != std::string::npos &&
           std::strtod(t.c_str() + at + lag_count.size(), nullptr) >= 1.0 &&
           t.find("actjoin_server_event_outbox_frames 0\n") !=
               std::string::npos;
  };
  std::string text = ts.service->metrics()->RenderPrometheus();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!settled(text) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    text = ts.service->metrics()->RenderPrometheus();
  }
  EXPECT_NE(text.find("# TYPE actjoin_server_event_outbox_frames gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE actjoin_server_event_gap_frames_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE actjoin_server_event_delivery_lag_us histogram"),
            std::string::npos);
  // The flushed EVENT frame recorded a delivery-lag sample.
  const size_t count_at = text.find("actjoin_server_event_delivery_lag_us_count ");
  ASSERT_NE(count_at, std::string::npos);
  EXPECT_GE(std::strtod(text.c_str() +
                            count_at +
                            std::string("actjoin_server_event_delivery_lag_us_count ")
                                .size(),
                        nullptr),
            1.0);
  // Flushed means drained: with the client reading freely the depth gauge
  // is back to zero, and nothing ever overflowed into a gap.
  EXPECT_NE(text.find("actjoin_server_event_outbox_frames 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("actjoin_server_event_gap_frames_total 0\n"),
            std::string::npos);
  EXPECT_EQ(ts.server->counters().gap_frames, 0u);
}

TEST(SubscribeServer, PerConnectionSubscriptionCapIsTyped) {
  ServerOptions nopts;
  nopts.max_subscriptions_per_connection = 2;
  TestServer ts = TestServer::Make({}, nopts);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  ClientLog log;
  AsyncJoinClient::SubscribeReply a =
      client.Subscribe(0, SubscriptionSpec{}, log.OnEvents());
  AsyncJoinClient::SubscribeReply b =
      client.Subscribe(0, SubscriptionSpec{}, log.OnEvents());
  ASSERT_TRUE(a.ok && b.ok);
  AsyncJoinClient::SubscribeReply c =
      client.Subscribe(0, SubscriptionSpec{}, log.OnEvents());
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.error, WireError::kSubscriptionLimit);
  // Recoverable: dropping one admits the next.
  ASSERT_TRUE(client.Unsubscribe(a.info.id).ok);
  AsyncJoinClient::SubscribeReply d =
      client.Subscribe(0, SubscriptionSpec{}, log.OnEvents());
  EXPECT_TRUE(d.ok) << d.message;
}

/// Reads one frame from a raw blocking socket (accumulating buffer +
/// TryParseFrame, the same discipline every real reader uses).
bool ReadFrame(int fd, std::vector<uint8_t>* buf, FrameHeader* header,
               std::vector<uint8_t>* payload) {
  while (true) {
    size_t frame_bytes = 0;
    WireError err = WireError::kNone;
    FrameParse parse =
        TryParseFrame(*buf, kDefaultMaxFrameBytes, header, &frame_bytes, &err);
    if (parse == FrameParse::kProtocolError) return false;
    if (parse == FrameParse::kFrame) {
      payload->assign(buf->begin() + kFrameHeaderBytes,
                      buf->begin() + static_cast<ptrdiff_t>(frame_bytes));
      buf->erase(buf->begin(), buf->begin() + static_cast<ptrdiff_t>(frame_bytes));
      return true;
    }
    uint8_t chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf->insert(buf->end(), chunk, chunk + n);
  }
}

TEST(SubscribeServer, OverflowCoalescesIntoEventGapWithoutBlocking) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  ServerOptions nopts;
  nopts.event_outbox_frames = 1;  // overflow on the second queued frame
  TestServer ts = TestServer::Make(sopts, nopts);
  Grid grid;

  // A raw socket with a tiny receive buffer (set before connect, so the
  // advertised window stays small) that deliberately stops reading: the
  // slow-reader the bounded outbox exists for.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf),
            0);
  struct timeval tv{.tv_sec = 30, .tv_usec = 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  std::string error;
  std::vector<uint8_t> frame =
      EncodeSubscribeFrame(1, 0, SubscriptionSpec{});
  ASSERT_TRUE(SendAll(fd, frame.data(), frame.size(), &error)) << error;
  std::vector<uint8_t> buf, payload;
  FrameHeader header;
  ASSERT_TRUE(ReadFrame(fd, &buf, &header, &payload));
  ASSERT_EQ(header.type, MessageType::kSubscriptionResult);
  SubscriptionInfo info;
  ASSERT_TRUE(DecodeSubscriptionInfo(payload, &info));

  // Alternate every track between two positions without reading a byte:
  // each batch is one EVENT frame, and once the socket backs up the
  // bounded outbox must start dropping its oldest frames. Keep pushing
  // well past the first drop — sustained overflow against a reader that
  // never drains is exactly the case where the outbox must stay bounded
  // (every drop-and-flush cycle widens the one queued gap marker in
  // place instead of queueing another undroppable frame).
  const uint64_t kTracks = 2048;
  wl::PointSet pos_a = wl::TaxiPoints(ts.ds.mbr, kTracks, grid, 91);
  wl::PointSet pos_b = wl::TaxiPoints(ts.ds.mbr, kTracks, grid, 92);
  bool dropped = false;
  int batches_after_drop = 0;
  for (int i = 0; i < 300 && batches_after_drop < 100; ++i) {
    const wl::PointSet& pos = (i % 2 == 0) ? pos_a : pos_b;
    ts.service->Submit(MakeBatch(pos, JoinMode::kExact)).get();
    dropped = ts.server->counters().events_dropped > 0;
    if (dropped) ++batches_after_drop;
  }
  ASSERT_TRUE(dropped) << "outbox never overflowed";
  ASSERT_GE(batches_after_drop, 100) << "sustained-overflow phase cut short";

  // UNSUBSCRIBE flushes the coalesced pending gap before its ack, so the
  // ack is a fence: once it arrives, every event and gap is in hand.
  // Emission is already quiescent (Submit().get() returned), so the seq
  // space is final.
  std::vector<uint8_t> unsub = EncodeUnsubscribeFrame(2, info.id);
  ASSERT_TRUE(SendAll(fd, unsub.data(), unsub.size(), &error)) << error;

  const uint64_t total = ts.service->subscription_matcher()->events_emitted();
  ASSERT_GT(total, 0u);
  std::vector<std::pair<uint64_t, uint64_t>> received, skipped, arrival;
  bool saw_ack = false;
  while (ReadFrame(fd, &buf, &header, &payload)) {
    if (header.type == MessageType::kEvent) {
      EventBatch batch;
      ASSERT_TRUE(DecodeEventBatch(payload, &batch));
      EXPECT_EQ(batch.subscription_id, info.id);
      if (!batch.events.empty()) {
        received.emplace_back(batch.first_seq,
                              batch.first_seq + batch.events.size() - 1);
        arrival.push_back(received.back());
      }
    } else if (header.type == MessageType::kEventGap) {
      EventGap gap;
      ASSERT_TRUE(DecodeEventGap(payload, &gap));
      EXPECT_EQ(gap.subscription_id, info.id);
      ASSERT_LE(gap.first_skipped_seq, gap.last_skipped_seq);
      skipped.emplace_back(gap.first_skipped_seq, gap.last_skipped_seq);
      arrival.push_back(skipped.back());
    } else {
      ASSERT_EQ(header.type, MessageType::kSubscriptionResult);
      EXPECT_EQ(header.request_id, 2u);
      saw_ack = true;
      break;
    }
  }
  ASSERT_TRUE(saw_ack) << "unsubscribe ack never arrived";
  ASSERT_FALSE(skipped.empty()) << "drops recorded but no EVENT_GAP frame";

  // Boundedness: gap markers are undroppable, so if every drop-and-flush
  // cycle queued a fresh one, ~100 sustained-overflow batches would leak
  // ~100 frames into the outbox of a connection that never drains. The
  // in-place widening caps the stream at a handful of markers (one per
  // stretch of uninterrupted stall, not one per drop).
  EXPECT_LE(skipped.size(), 8u)
      << "sustained overflow queued a gap marker per drop";

  // Ordering: within one subscription the hole is announced before the
  // first event that jumps past it, so the frames arrive in seq order —
  // adjacent arrival ranges never go backwards.
  for (size_t i = 1; i < arrival.size(); ++i) {
    EXPECT_GT(arrival[i].first, arrival[i - 1].second)
        << "frame " << i << " arrived out of seq order";
  }

  // Delivered and skipped ranges must tile the seq space [1, total]
  // exactly: every emitted event is accounted for exactly once.
  std::vector<std::pair<uint64_t, uint64_t>> all = received;
  all.insert(all.end(), skipped.begin(), skipped.end());
  std::sort(all.begin(), all.end());
  uint64_t next = 1;
  for (const auto& [lo, hi] : all) {
    EXPECT_EQ(lo, next) << "overlap or hole at seq " << next;
    next = hi + 1;
  }
  EXPECT_EQ(next, total + 1);

  uint64_t skipped_total = 0;
  for (const auto& [lo, hi] : skipped) skipped_total += hi - lo + 1;
  EXPECT_EQ(ts.server->counters().events_dropped, skipped_total);
  EXPECT_EQ(ts.server->counters().events_pushed, total);
  // gap_frames counts holes announced (new markers), not drops: one per
  // EVENT_GAP frame that reached the wire.
  EXPECT_EQ(ts.server->counters().gap_frames, skipped.size());

  ::close(fd);
}

}  // namespace
}  // namespace actjoin::net
