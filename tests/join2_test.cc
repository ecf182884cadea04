// Tests for the dual-trie crossmatch (src/join2/): the synchronized
// descent must agree byte-for-byte with two independent oracles — the
// index-free brute force and the R-tree × R-tree baseline — on random and
// adversarial fixtures (shared edges, containment nests, empty overlap),
// in both modes, at every thread width; and the dataset-level matcher must
// enforce the catalog's typed-rejection contract while pinning consistent
// epoch pairs across concurrent mutations. Suites are named Join2* so the
// TSan CI job's filter runs the concurrent ones under ThreadSanitizer.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "act/join.h"
#include "baselines/rtree.h"
#include "geo/grid.h"
#include "join2/cross_match.h"
#include "join2/dataset_cross_matcher.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::join2 {
namespace {

using geo::Grid;
using service::JoinService;
using service::ServiceOptions;
using service::ShardedIndex;

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, {}));
}

/// A jittered nx*ny partition of the NYC extent. dilation 0 keeps the
/// polygons tiling exactly (every neighboring pair shares a full edge —
/// the adversarial fixture for boundary predicates).
std::vector<geom::Polygon> Partition(int nx, int ny, uint64_t seed,
                                     double dilation = 0) {
  return wl::JitteredPartition({.mbr = wl::NycMbr(),
                                .nx = nx,
                                .ny = ny,
                                .edge_depth = 2,
                                .seed = seed,
                                .overlap_dilation = dilation});
}

/// Axis-aligned square ring centered in the NYC extent, side 2 * half.
geom::Polygon CenteredSquare(double half) {
  geom::Rect mbr = wl::NycMbr();
  const double cx = (mbr.lo.x + mbr.hi.x) / 2;
  const double cy = (mbr.lo.y + mbr.hi.y) / 2;
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

/// The ordering contract shared by every pair producer in the repo.
template <typename PairVec>
void ExpectSortedUnique(const PairVec& pairs) {
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

/// Everything in CrossMatchStats except the wall clock.
void ExpectStatsEqual(const CrossMatchStats& got, const CrossMatchStats& want) {
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs);
  EXPECT_EQ(got.refined_pairs, want.refined_pairs);
  EXPECT_EQ(got.pruned_pairs, want.pruned_pairs);
  EXPECT_EQ(got.result_pairs, want.result_pairs);
  EXPECT_EQ(got.max_depth, want.max_depth);
}

/// Runs the dual-trie crossmatch at several widths plus the two oracles
/// and asserts all outputs are byte-identical (and stats width-invariant).
void ExpectAllImplementationsAgree(const std::vector<geom::Polygon>& pa,
                                   const std::vector<geom::Polygon>& pb,
                                   CrossMatchMode mode) {
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, {});
  ShardedIndex ib = ShardedIndex::Build(pb, grid, {});

  Pairs want = BruteForceCrossMatch(pa, pb, mode);
  ExpectSortedUnique(want);

  baselines::RTree ra = baselines::BuildPolygonRTree(pa);
  baselines::RTree rb = baselines::BuildPolygonRTree(pb);
  Pairs rtree = baselines::RTreeCrossMatch(
      ra, pa, rb, pb, mode == CrossMatchMode::kContains);
  ExpectSortedUnique(rtree);
  EXPECT_EQ(rtree, want);

  CrossMatchStats base_stats;
  bool have_base = false;
  for (int width : {1, 2, 4, 8}) {
    CrossMatchStats stats;
    Pairs got = CrossMatchIndexes(ia, ib, {.mode = mode, .threads = width},
                                  nullptr, &stats);
    ExpectSortedUnique(got);
    EXPECT_EQ(got, want) << "mode=" << ToString(mode) << " width=" << width;
    EXPECT_EQ(stats.result_pairs, want.size());
    if (!have_base) {
      base_stats = stats;
      have_base = true;
    } else {
      ExpectStatsEqual(stats, base_stats);
    }
  }
}

// --- Library-level crossmatch ----------------------------------------------

TEST(Join2CrossMatch, RandomPartitionsIntersects) {
  ExpectAllImplementationsAgree(Partition(6, 5, 101), Partition(4, 7, 202),
                                CrossMatchMode::kIntersects);
}

TEST(Join2CrossMatch, RandomPartitionsContains) {
  // Dilated cells of a coarse partition against a finer one: containment
  // actually occurs (a dilated coarse cell covers interior fine cells).
  ExpectAllImplementationsAgree(Partition(3, 3, 303, 0.4),
                                Partition(9, 9, 404),
                                CrossMatchMode::kContains);
}

TEST(Join2CrossMatch, SharedEdgeSelfJoin) {
  // A joined with itself: every polygon shares a full (jittered) edge
  // chain with each grid neighbor and is identical to itself — the
  // boundary-heavy adversarial case for both predicates.
  std::vector<geom::Polygon> pa = Partition(5, 4, 505);
  ExpectAllImplementationsAgree(pa, pa, CrossMatchMode::kIntersects);
  ExpectAllImplementationsAgree(pa, pa, CrossMatchMode::kContains);

  // Self-join sanity: the diagonal intersects and covers itself.
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, {});
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    Pairs got = CrossMatchIndexes(ia, ia, {.mode = mode});
    for (uint32_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(),
                                     std::make_pair(i, i)))
          << "diagonal pair missing in mode " << ToString(mode);
    }
  }
}

TEST(Join2CrossMatch, ContainmentNest) {
  // Concentric squares: a_i covers b_j iff half_a(i) >= half_b(j). The
  // two sides interleave so both strict nesting and touching-containment
  // (equal halves) occur.
  std::vector<geom::Polygon> pa, pb;
  std::vector<double> halves_a = {0.05, 0.11, 0.17};
  std::vector<double> halves_b = {0.02, 0.05, 0.08, 0.14};
  for (double h : halves_a) pa.push_back(CenteredSquare(h));
  for (double h : halves_b) pb.push_back(CenteredSquare(h));

  ExpectAllImplementationsAgree(pa, pb, CrossMatchMode::kContains);
  ExpectAllImplementationsAgree(pa, pb, CrossMatchMode::kIntersects);

  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, {});
  ShardedIndex ib = ShardedIndex::Build(pb, grid, {});
  Pairs covers =
      CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kContains});
  Pairs want;
  for (uint32_t i = 0; i < halves_a.size(); ++i) {
    for (uint32_t j = 0; j < halves_b.size(); ++j) {
      if (halves_a[i] >= halves_b[j]) want.emplace_back(i, j);
    }
  }
  EXPECT_EQ(covers, want);
  // All squares are concentric, so every pair intersects.
  EXPECT_EQ(CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kIntersects})
                .size(),
            pa.size() * pb.size());
}

TEST(Join2CrossMatch, EmptyOverlapPrunesEverything) {
  // Two dense partitions of disjoint extents: the top-level span pair is
  // range-disjoint, so the descent prunes without emitting any candidate
  // or running any refinement.
  geom::Rect left = geom::Rect::Of(-10, -10, -1, 10);
  geom::Rect right = geom::Rect::Of(1, -10, 10, 10);
  std::vector<geom::Polygon> pa = wl::JitteredPartition(
      {.mbr = left, .nx = 4, .ny = 4, .edge_depth = 1, .seed = 606});
  std::vector<geom::Polygon> pb = wl::JitteredPartition(
      {.mbr = right, .nx = 4, .ny = 4, .edge_depth = 1, .seed = 707});

  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, {});
  ShardedIndex ib = ShardedIndex::Build(pb, grid, {});
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchStats stats;
    Pairs got = CrossMatchIndexes(ia, ib, {.mode = mode}, nullptr, &stats);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(got, BruteForceCrossMatch(pa, pb, mode));
    EXPECT_EQ(stats.candidate_pairs, 0u);
    EXPECT_EQ(stats.refined_pairs, 0u);
    EXPECT_GT(stats.pruned_pairs, 0u);
  }
}

TEST(Join2CrossMatch, SharedExternalPoolMatchesTransient) {
  std::vector<geom::Polygon> pa = Partition(5, 5, 808);
  std::vector<geom::Polygon> pb = Partition(6, 4, 909);
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, {});
  ShardedIndex ib = ShardedIndex::Build(pb, grid, {});

  CrossMatchStats want_stats;
  Pairs want = CrossMatchIndexes(
      ia, ib, {.mode = CrossMatchMode::kIntersects, .threads = 1}, nullptr,
      &want_stats);

  util::WorkStealingPool pool(3);
  CrossMatchStats got_stats;
  Pairs got = CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kIntersects},
                                &pool, &got_stats);
  EXPECT_EQ(got, want);
  ExpectStatsEqual(got_stats, want_stats);
}

TEST(Join2CrossMatch, IntervalViewIsSortedAndDisjoint) {
  std::vector<geom::Polygon> pa = Partition(6, 6, 111, 0.3);
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, {});
  IntervalView view = IntervalView::FromIndex(ia);
  ASSERT_GT(view.size(), 0u);
  for (size_t i = 0; i < view.size(); ++i) {
    const IntervalView::Interval& iv = view.interval(i);
    EXPECT_LE(iv.lo, iv.hi);
    EXPECT_FALSE(view.refs(iv).empty());
    if (i > 0) {
      EXPECT_LT(view.interval(i - 1).hi, iv.lo);
    }
  }
  for (uint32_t gid = 0; gid < pa.size(); ++gid) {
    EXPECT_NE(view.polygon(gid), nullptr);
  }
}

// --- The shared ordering contract (see act::ExecuteJoinPairs) --------------

TEST(Join2OrderingContract, AllPairProducersSortedUnique) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 42);

  // Point-join producers: act::ExecuteJoinPairs (via PolygonIndex) and
  // ShardedIndex::JoinPairs promise sorted unique pairs.
  act::PolygonIndex single = act::PolygonIndex::Build(ds.polygons, grid, {});
  auto single_pairs =
      single.JoinPairs(pts.AsJoinInput(), act::JoinMode::kExact);
  ExpectSortedUnique(single_pairs);

  ShardedIndex sharded = ShardedIndex::Build(ds.polygons, grid, {});
  auto sharded_pairs =
      sharded.JoinPairs(pts.AsJoinInput(), act::JoinMode::kExact);
  ExpectSortedUnique(sharded_pairs);
  EXPECT_EQ(sharded_pairs, single_pairs);

  // Pair-join producers reuse the same contract — that is what makes the
  // three implementations byte-comparable in the tests above.
  std::vector<geom::Polygon> pb = Partition(4, 4, 212);
  ShardedIndex ib = ShardedIndex::Build(pb, grid, {});
  ExpectSortedUnique(
      CrossMatchIndexes(sharded, ib, {.mode = CrossMatchMode::kIntersects}));
  ExpectSortedUnique(
      BruteForceCrossMatch(ds.polygons, pb, CrossMatchMode::kIntersects));
  baselines::RTree ra = baselines::BuildPolygonRTree(ds.polygons);
  baselines::RTree rb = baselines::BuildPolygonRTree(pb);
  ExpectSortedUnique(ra.CrossMatchCandidates(rb));
  ExpectSortedUnique(baselines::RTreeCrossMatch(ra, ds.polygons, rb, pb));
}

// --- Dataset-level matcher -------------------------------------------------

struct TwoDatasetService {
  std::vector<geom::Polygon> pa, pb;
  std::unique_ptr<JoinService> service;
  uint16_t id_a = 0, id_b = 0;

  explicit TwoDatasetService(const ServiceOptions& opts = {}) {
    pa = Partition(5, 4, 131);
    pb = Partition(3, 6, 242);
    Grid grid;
    service = std::make_unique<JoinService>(BuildShared(pa, grid), opts);
    id_a = 0;
    // ASSERT_* cannot run in a constructor; Add only fails on id-space
    // exhaustion, which a two-dataset fixture cannot hit.
    id_b = service->catalog().Add("b", BuildShared(pb, grid)).value();
  }
};

TEST(Join2Matcher, RunMatchesLibraryAndOracle) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchOutcome out = matcher.Run(
        {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
    ASSERT_EQ(out.status, CrossMatchStatus::kOk);
    EXPECT_EQ(out.pairs, BruteForceCrossMatch(fx.pa, fx.pb, mode));
    EXPECT_GT(out.epoch_a, 0u);
    EXPECT_GT(out.epoch_b, 0u);
    EXPECT_EQ(out.stats.result_pairs, out.pairs.size());
  }
}

TEST(Join2Matcher, WideServiceMatchesWidthOneService) {
  // threads_per_join is the crossmatch's width too: a threads_per_join = 4
  // service runs the descent and the refinement on its 3-worker pool (the
  // calling thread helps). Pairs and stats must equal a width-1 service's,
  // which runs everything inline — through Run and through the async path
  // that executes on a service worker.
  ServiceOptions wide_opts;
  wide_opts.threads_per_join = 4;
  TwoDatasetService wide(wide_opts);
  TwoDatasetService narrow;
  ASSERT_EQ(wide.service->shared_pool()->num_workers(), 3);
  ASSERT_EQ(narrow.service->shared_pool()->num_workers(), 0);
  DatasetCrossMatcher wide_matcher(wide.service.get());
  DatasetCrossMatcher narrow_matcher(narrow.service.get());
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchRequest req{
        .dataset_a = wide.id_a, .dataset_b = wide.id_b, .mode = mode};
    CrossMatchOutcome want = narrow_matcher.Run(req);
    ASSERT_EQ(want.status, CrossMatchStatus::kOk);
    EXPECT_EQ(want.pairs, BruteForceCrossMatch(wide.pa, wide.pb, mode));
    // More than one 64-candidate refine chunk, so the refinement is
    // dispatched to the pool rather than run inline as a lone task.
    EXPECT_GT(want.stats.candidate_pairs, 64u);

    CrossMatchOutcome got = wide_matcher.Run(req);
    ASSERT_EQ(got.status, CrossMatchStatus::kOk);
    EXPECT_EQ(got.pairs, want.pairs);
    ExpectStatsEqual(got.stats, want.stats);

    std::promise<CrossMatchOutcome> promise;
    std::future<CrossMatchOutcome> future = promise.get_future();
    ASSERT_EQ(wide_matcher.TryCrossMatchAsync(
                  req, [&](CrossMatchOutcome out) {
                    promise.set_value(std::move(out));
                  }),
              service::SubmitStatus::kAccepted);
    CrossMatchOutcome async = future.get();
    ASSERT_EQ(async.status, CrossMatchStatus::kOk);
    EXPECT_EQ(async.pairs, want.pairs);
    ExpectStatsEqual(async.stats, want.stats);
  }
}

TEST(Join2Matcher, TypedRejectionsNameTheOffendingSide) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());

  // Unknown ids, either side.
  CrossMatchOutcome out = matcher.Run({.dataset_a = 99, .dataset_b = fx.id_b});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, 99);
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = 99});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, 99);

  // Offline reservation: assigned but never published.
  auto offline = fx.service->catalog().AddOffline("offline");
  ASSERT_TRUE(offline.has_value());
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = *offline});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, *offline);

  // Tombstoned, either side.
  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_b});
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);
  out = matcher.Run({.dataset_a = fx.id_b, .dataset_b = fx.id_a});
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);

  // A self-join of a live dataset still works after all that.
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_a});
  EXPECT_EQ(out.status, CrossMatchStatus::kOk);
}

TEST(Join2Matcher, AsyncMatchesRunAndFeedsObservability) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a,
                        .dataset_b = fx.id_b,
                        .mode = CrossMatchMode::kIntersects,
                        .request_id = 7777};
  CrossMatchOutcome want = matcher.Run(req);
  ASSERT_EQ(want.status, CrossMatchStatus::kOk);

  std::promise<CrossMatchOutcome> promise;
  std::future<CrossMatchOutcome> future = promise.get_future();
  ASSERT_EQ(matcher.TryCrossMatchAsync(
                req, [&](CrossMatchOutcome out) {
                  promise.set_value(std::move(out));
                }),
            service::SubmitStatus::kAccepted);
  CrossMatchOutcome got = future.get();
  ASSERT_EQ(got.status, CrossMatchStatus::kOk);
  EXPECT_EQ(got.pairs, want.pairs);
  ExpectStatsEqual(got.stats, want.stats);
  EXPECT_EQ(got.epoch_a, want.epoch_a);
  EXPECT_EQ(got.epoch_b, want.epoch_b);

  // Unknown a-side is rejected at the door (done dropped unrun).
  EXPECT_EQ(matcher.TryCrossMatchAsync({.dataset_a = 99},
                                       [](CrossMatchOutcome) { FAIL(); }),
            service::SubmitStatus::kUnknownDataset);

  // Metrics counted both executions; the slow-query log saw the request.
  util::MetricsRegistry* metrics = fx.service->metrics();
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetCounter("crossmatch_requests_total", "")->value(),
            2u);
  EXPECT_EQ(metrics->GetCounter("crossmatch_result_pairs_total", "")->value(),
            2 * want.pairs.size());
  bool logged = false;
  for (const auto& q : fx.service->slow_queries().TopK()) {
    logged |= q.request_id == 7777;
  }
  EXPECT_TRUE(logged);
}

TEST(Join2Matcher, MutationsChangeTheJoinedEpoch) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  CrossMatchOutcome before = matcher.Run(req);
  ASSERT_EQ(before.status, CrossMatchStatus::kOk);

  // Grow the b-side: the next crossmatch pins the new epoch and matches
  // the oracle over the extended polygon set.
  std::vector<geom::Polygon> added = {CenteredSquare(0.07)};
  auto mut = fx.service->AddPolygons(fx.id_b, added);
  ASSERT_EQ(mut.status, service::MutationStatus::kApplied);
  std::vector<geom::Polygon> pb2 = fx.pb;
  pb2.push_back(added[0]);

  CrossMatchOutcome after = matcher.Run(req);
  ASSERT_EQ(after.status, CrossMatchStatus::kOk);
  EXPECT_GT(after.epoch_b, before.epoch_b);
  EXPECT_EQ(after.epoch_a, before.epoch_a);
  EXPECT_EQ(after.pairs, BruteForceCrossMatch(
                             fx.pa, pb2, CrossMatchMode::kIntersects));

  // Shrink the a-side: removed ids vanish from the output.
  ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {0, 3}).status,
            service::MutationStatus::kApplied);
  std::vector<uint32_t> skip = {0, 3};
  CrossMatchOutcome removed = matcher.Run(req);
  ASSERT_EQ(removed.status, CrossMatchStatus::kOk);
  EXPECT_EQ(removed.pairs,
            BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects,
                                 skip, {}));
}

TEST(Join2Matcher, ViewBuiltOncePerEpoch) {
  // The matcher caches each dataset's probe surface per epoch: repeated
  // crossmatches on fixed epochs build each side once, a self-join builds
  // its one side once, and a delta rebuilds only the side it touched —
  // while every result still equals the oracle over the current polygons.
  TwoDatasetService fx;
  util::Counter* builds =
      fx.service->metrics()->GetCounter("crossmatch_view_builds_total", "");
  DatasetCrossMatcher matcher(fx.service.get());
  EXPECT_EQ(builds->value(), 0u);  // lazy: construction builds nothing
  const CrossMatchMode kModes[] = {CrossMatchMode::kIntersects,
                                   CrossMatchMode::kContains};
  for (int rep = 0; rep < 3; ++rep) {
    for (CrossMatchMode mode : kModes) {
      CrossMatchOutcome out = matcher.Run(
          {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
      ASSERT_EQ(out.status, CrossMatchStatus::kOk);
      EXPECT_EQ(out.pairs, BruteForceCrossMatch(fx.pa, fx.pb, mode));
    }
  }
  EXPECT_EQ(builds->value(), 2u);

  // A self-join pins one snapshot and looks its view up once (a fresh
  // matcher, so the a-side view is not already cached).
  DatasetCrossMatcher self_matcher(fx.service.get());
  for (int rep = 0; rep < 2; ++rep) {
    for (CrossMatchMode mode : kModes) {
      CrossMatchOutcome out = self_matcher.Run(
          {.dataset_a = fx.id_a, .dataset_b = fx.id_a, .mode = mode});
      ASSERT_EQ(out.status, CrossMatchStatus::kOk);
      EXPECT_EQ(out.epoch_a, out.epoch_b);
      EXPECT_EQ(out.pairs, BruteForceCrossMatch(fx.pa, fx.pa, mode));
    }
  }
  EXPECT_EQ(builds->value(), 3u);

  // The cache holds views, never snapshots: once a delta retires the
  // b-side epoch, nothing keeps its index alive.
  std::weak_ptr<const ShardedIndex> retired =
      fx.service->catalog().Find(fx.id_b)->Acquire();
  std::vector<geom::Polygon> added = {CenteredSquare(0.07)};
  ASSERT_EQ(fx.service->AddPolygons(fx.id_b, added).status,
            service::MutationStatus::kApplied);
  EXPECT_TRUE(retired.expired());
  EXPECT_EQ(builds->value(), 3u);  // the delta itself builds no view
  std::vector<geom::Polygon> pb2 = fx.pb;
  pb2.push_back(added[0]);
  for (int rep = 0; rep < 2; ++rep) {
    for (CrossMatchMode mode : kModes) {
      CrossMatchOutcome out = matcher.Run(
          {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
      ASSERT_EQ(out.status, CrossMatchStatus::kOk);
      EXPECT_EQ(out.pairs, BruteForceCrossMatch(fx.pa, pb2, mode));
    }
  }
  EXPECT_EQ(builds->value(), 4u);
}

// --- Concurrency (runs under TSan in CI) -----------------------------------

TEST(Join2Concurrency, CrossMatchesRaceWithMutations) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};

  // The mutation sequence is fixed, so the polygon state behind every
  // epoch is known up front: step k adds square k to b and removes id k
  // from a, each publishing exactly one epoch on its side.
  constexpr int kSteps = 6;
  const uint64_t base_a = fx.service->catalog().Find(fx.id_a)->epoch();
  const uint64_t base_b = fx.service->catalog().Find(fx.id_b)->epoch();
  std::vector<std::vector<geom::Polygon>> b_at(kSteps + 1, fx.pb);
  std::vector<std::vector<uint32_t>> a_skip_at(kSteps + 1);
  for (int k = 1; k <= kSteps; ++k) {
    b_at[k] = b_at[k - 1];
    b_at[k].push_back(
        CenteredSquare(0.02 + 0.01 * static_cast<double>(k - 1)));
    a_skip_at[k] = a_skip_at[k - 1];
    a_skip_at[k].push_back(static_cast<uint32_t>(k - 1));
  }

  // Joiners record every outcome; each must equal the oracle for the
  // epoch pair it reports — delta == rebuild, through the view cache,
  // under racing swaps. The mutator waits for a fresh crossmatch before
  // each mutation so swaps genuinely interleave with joins.
  struct Observed {
    uint64_t epoch_a = 0, epoch_b = 0;
    Pairs pairs;
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> runs{0};
  std::vector<std::vector<Observed>> observed(3);
  std::vector<std::thread> joiners;
  for (size_t t = 0; t < observed.size(); ++t) {
    joiners.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        CrossMatchOutcome out = matcher.Run(req);
        if (out.status == CrossMatchStatus::kOk) {
          observed[t].push_back(
              {out.epoch_a, out.epoch_b, std::move(out.pairs)});
        }
        runs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto await_fresh_run = [&] {
    const uint64_t seen = runs.load(std::memory_order_relaxed);
    while (runs.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
  };
  for (int k = 1; k <= kSteps; ++k) {
    await_fresh_run();
    std::vector<geom::Polygon> add = {b_at[k].back()};
    service::MutationResult grown = fx.service->AddPolygons(fx.id_b, add);
    ASSERT_EQ(grown.status, service::MutationStatus::kApplied);
    ASSERT_EQ(grown.epoch, base_b + static_cast<uint64_t>(k));
    await_fresh_run();
    service::MutationResult shrunk =
        fx.service->RemovePolygons(fx.id_a, {a_skip_at[k].back()});
    ASSERT_EQ(shrunk.status, service::MutationStatus::kApplied);
    ASSERT_EQ(shrunk.epoch, base_a + static_cast<uint64_t>(k));
  }
  await_fresh_run();
  stop.store(true);
  for (auto& th : joiners) th.join();

  // One oracle per distinct epoch pair, computed on this thread.
  std::vector<std::vector<std::optional<Pairs>>> oracle(
      kSteps + 1, std::vector<std::optional<Pairs>>(kSteps + 1));
  size_t checked = 0;
  for (const std::vector<Observed>& per_thread : observed) {
    for (const Observed& obs : per_thread) {
      ASSERT_GE(obs.epoch_a, base_a);
      ASSERT_LE(obs.epoch_a, base_a + kSteps);
      ASSERT_GE(obs.epoch_b, base_b);
      ASSERT_LE(obs.epoch_b, base_b + kSteps);
      const size_t ka = obs.epoch_a - base_a;
      const size_t kb = obs.epoch_b - base_b;
      std::optional<Pairs>& want = oracle[ka][kb];
      if (!want.has_value()) {
        want = BruteForceCrossMatch(fx.pa, b_at[kb],
                                    CrossMatchMode::kIntersects,
                                    a_skip_at[ka], {});
      }
      EXPECT_EQ(obs.pairs, *want) << "epoch_a=" << obs.epoch_a
                                  << " epoch_b=" << obs.epoch_b;
      ++checked;
    }
  }
  EXPECT_GT(checked, static_cast<size_t>(2 * kSteps));

  // Quiesced: the final result matches the oracle over the final state.
  CrossMatchOutcome final_out = matcher.Run(req);
  ASSERT_EQ(final_out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(final_out.pairs,
            BruteForceCrossMatch(fx.pa, b_at[kSteps],
                                 CrossMatchMode::kIntersects,
                                 a_skip_at[kSteps], {}));
}

}  // namespace
}  // namespace actjoin::join2
