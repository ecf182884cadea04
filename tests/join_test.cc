// Integration tests for the join algorithms: exactness against the
// brute-force oracle, the approximate join's distance bound, training
// effects, multithreaded consistency, and the blocked join kernel against a
// scalar per-point reference.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "act/pipeline.h"
#include "baselines/cell_indexes.h"
#include "geo/grid.h"
#include "geometry/pip.h"
#include "util/random.h"
#include "workloads/datasets.h"
#include "workloads/point_gen.h"
#include "workloads/polygon_gen.h"

namespace actjoin::act {
namespace {

using actjoin::util::Rng;
using geo::Grid;

struct JoinFixtureParam {
  double dataset_scale;
  int bits_per_level;
};

class ExactJoinTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

INSTANTIATE_TEST_SUITE_P(
    ScalesAndFanouts, ExactJoinTest,
    ::testing::Combine(::testing::Values(0.02, 0.08),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      return "scale" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "_bits" + std::to_string(std::get<1>(info.param));
    });

TEST_P(ExactJoinTest, MatchesBruteForce) {
  auto [scale, bits] = GetParam();
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(scale);
  BuildOptions opts;
  opts.threads = 1;
  opts.act.bits_per_level = bits;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, /*seed=*/1);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  auto want = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  ASSERT_EQ(got, want);
}

TEST(ExactJoin, MatchesBruteForceOnBoroughsAnalog) {
  Grid grid;
  wl::PolygonDataset ds = wl::Boroughs(0.6);  // 3 complex polygons
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 2);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons));
}

TEST(ExactJoin, MatchesBruteForceWithOverlappingPolygons) {
  Grid grid;
  wl::PartitionSpec spec;
  spec.mbr = wl::NycMbr();
  spec.nx = spec.ny = 4;
  spec.edge_depth = 2;
  spec.seed = 3;
  spec.overlap_dilation = 0.2;  // polygons genuinely overlap
  std::vector<geom::Polygon> polys = wl::JitteredPartition(spec);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(polys, grid, opts);
  wl::PointSet pts = wl::SyntheticUniformPoints(spec.mbr, 2500, grid, 4);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            BruteForceJoinPairs(pts.AsJoinInput(), polys));
}

TEST(ExactJoin, UniformPointsIncludingMisses) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  // Sample points from a larger rect so many miss all polygons.
  geom::Rect wide = ds.mbr;
  wide.lo.x -= 0.2;
  wide.hi.x += 0.2;
  wide.lo.y -= 0.2;
  wide.hi.y += 0.2;
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::SyntheticUniformPoints(wide, 3000, grid, 5);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons));
}

TEST(ApproxJoin, FalsePositivesWithinPrecisionBound) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const double bound_m = 120.0;
  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = bound_m;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4000, grid, 6);
  auto approx = index.JoinPairs(pts.AsJoinInput(), JoinMode::kApproximate);
  auto exact = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);

  // (a) No false negatives: approx is a superset of exact.
  ASSERT_TRUE(std::includes(approx.begin(), approx.end(), exact.begin(),
                            exact.end()));
  // (b) Every false positive is within bound_m of the polygon (paper's
  // guarantee: distance <= diagonal of the largest boundary cell).
  std::vector<std::pair<uint64_t, uint32_t>> extras;
  std::set_difference(approx.begin(), approx.end(), exact.begin(),
                      exact.end(), std::back_inserter(extras));
  for (const auto& [pt_idx, pid] : extras) {
    double d = geom::DistanceToPolygonMeters(ds.polygons[pid],
                                             pts.points()[pt_idx]);
    ASSERT_LE(d, bound_m * 1.01)
        << "false positive " << d << " m from polygon " << pid;
  }
}

TEST(ApproxJoin, TighterBoundFewerFalsePositives) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4000, grid, 7);
  auto exact = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);

  uint64_t prev_extras = ~uint64_t{0};
  for (double bound : {500.0, 120.0, 30.0}) {
    BuildOptions opts;
    opts.threads = 1;
    opts.precision_bound_m = bound;
    PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
    auto approx = index.JoinPairs(pts.AsJoinInput(), JoinMode::kApproximate);
    std::vector<std::pair<uint64_t, uint32_t>> extras;
    std::set_difference(approx.begin(), approx.end(), exact.begin(),
                        exact.end(), std::back_inserter(extras));
    EXPECT_LE(extras.size(), prev_extras);
    prev_extras = extras.size();
  }
}

TEST(JoinStatsTest, CountsAreConsistent) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 5000, grid, 8);
  JoinStats stats = index.Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  EXPECT_EQ(stats.num_points, 5000u);
  uint64_t count_sum = 0;
  for (uint64_t c : stats.counts) count_sum += c;
  EXPECT_EQ(count_sum, stats.result_pairs);
  EXPECT_EQ(stats.result_pairs, stats.true_hit_refs + stats.pip_hits);
  EXPECT_EQ(stats.pip_tests, stats.candidate_refs);
  EXPECT_LE(stats.matched_points, stats.num_points);
  EXPECT_GT(stats.sth_points, 0u);
  // Against the oracle.
  auto want = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  EXPECT_EQ(stats.result_pairs, want.size());
}

TEST(JoinStatsTest, ApproximateDoesNoPipTests) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = 60.0;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 9);
  JoinStats stats = index.Join(pts.AsJoinInput(), {JoinMode::kApproximate, 1});
  EXPECT_EQ(stats.pip_tests, 0u);
}

TEST(JoinStatsTest, MultithreadedMatchesSingleThreaded) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 20000, grid, 10);

  JoinStats single = index.Join(pts.AsJoinInput(), {JoinMode::kExact, 1});
  for (int threads : {2, 4, 7}) {
    JoinStats multi =
        index.Join(pts.AsJoinInput(), {JoinMode::kExact, threads});
    ASSERT_EQ(multi.counts, single.counts);
    ASSERT_EQ(multi.result_pairs, single.result_pairs);
    ASSERT_EQ(multi.pip_tests, single.pip_tests);
    ASSERT_EQ(multi.sth_points, single.sth_points);
  }
}

TEST(Training, PreservesExactness) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 20000, grid, 11);
  wl::PointSet today = wl::TaxiPoints(ds.mbr, 3000, grid, 12);

  auto before = index.JoinPairs(today.AsJoinInput(), JoinMode::kExact);
  TrainStats tstats = index.Train(history.AsJoinInput());
  EXPECT_GT(tstats.cells_split, 0u);
  auto after = index.JoinPairs(today.AsJoinInput(), JoinMode::kExact);
  ASSERT_EQ(before, after);
  ASSERT_TRUE(index.covering().IsDisjoint());
}

TEST(Training, ReducesPipTestsAndRaisesSth) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  // Train and join on the same distribution, different samples — the
  // paper's year-2009-train / 2010-2016-join split.
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 30000, grid, 13);
  wl::PointSet today = wl::TaxiPoints(ds.mbr, 10000, grid, 14);

  JoinStats before = index.Join(today.AsJoinInput(), {JoinMode::kExact, 1});
  index.Train(history.AsJoinInput());
  JoinStats after = index.Join(today.AsJoinInput(), {JoinMode::kExact, 1});

  EXPECT_LT(after.pip_tests, before.pip_tests);
  EXPECT_GE(after.SthPercent(), before.SthPercent());
  EXPECT_EQ(after.result_pairs, before.result_pairs);
}

TEST(Training, RespectsCellBudget) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  uint64_t base_cells = index.covering().size();
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 50000, grid, 15);

  TrainOptions topts;
  topts.max_cells = base_cells + 50;
  SuperCoveringBuilder builder = ToBuilder(index.covering());
  TrainStats stats = TrainOnPoints(&builder, history.AsJoinInput(),
                                   index.classifier(), topts);
  EXPECT_TRUE(stats.budget_exhausted);
  // Each split adds at most 3 net cells.
  EXPECT_LE(builder.size(), base_cells + 50 + 3);
}

TEST(Training, IdempotentOnFullyRefinedArea) {
  // Training twice with the same points: the second pass should split far
  // fewer cells (most expensive cells already split one level).
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 5000, grid, 16);
  TrainStats first = index.Train(history.AsJoinInput());
  TrainStats second = index.Train(history.AsJoinInput());
  EXPECT_LT(second.cells_split, first.cells_split);
}

// --- The blocked join kernel (ExecuteJoin / ExecuteJoinPairs) -------------

// The scalar per-point loop the kernel replaced: probe one point, then
// refine its candidates right away. Appends every refined polygon id to
// `refined` when given.
template <typename Index>
JoinStats ScalarReferenceJoin(const Index& index, const LookupTable& table,
                              const JoinInput& input,
                              const std::vector<geom::Polygon>& polygons,
                              JoinMode mode,
                              std::vector<uint32_t>* refined = nullptr) {
  JoinStats st;
  st.num_points = input.size();
  st.counts.assign(polygons.size(), 0);
  for (uint64_t p = 0; p < input.size(); ++p) {
    const uint64_t pairs_before = st.result_pairs;
    bool had_candidate = false;
    auto visit = [&](uint32_t pid, bool true_hit) {
      bool is_hit = true_hit;
      if (true_hit) {
        ++st.true_hit_refs;
      } else {
        ++st.candidate_refs;
        had_candidate = true;
        is_hit = true;
        if (mode == JoinMode::kExact) {
          ++st.pip_tests;
          if (refined != nullptr) refined->push_back(pid);
          is_hit = geom::ContainsPoint(polygons[pid], input.points[p]);
          if (is_hit) ++st.pip_hits;
        }
      }
      if (is_hit) {
        ++st.counts[pid];
        ++st.result_pairs;
      }
    };
    TaggedEntry entry = index.Probe(input.cell_ids[p]);
    switch (KindOf(entry)) {
      case EntryKind::kOneRef: {
        PolygonRef r = FirstRefOf(entry);
        visit(r.polygon_id, r.interior);
        break;
      }
      case EntryKind::kTwoRefs: {
        PolygonRef a = FirstRefOf(entry);
        PolygonRef b = SecondRefOf(entry);
        visit(a.polygon_id, a.interior);
        visit(b.polygon_id, b.interior);
        break;
      }
      case EntryKind::kTableOffset:
        table.VisitEntry(TableOffsetOf(entry), visit);
        break;
      case EntryKind::kPointer:
        break;
    }
    if (st.result_pairs != pairs_before) ++st.matched_points;
    if (!had_candidate) ++st.sth_points;
  }
  return st;
}

void ExpectSameJoin(const JoinStats& got, const JoinStats& want,
                    const std::string& where) {
  EXPECT_EQ(got.num_points, want.num_points) << where;
  EXPECT_EQ(got.matched_points, want.matched_points) << where;
  EXPECT_EQ(got.result_pairs, want.result_pairs) << where;
  EXPECT_EQ(got.true_hit_refs, want.true_hit_refs) << where;
  EXPECT_EQ(got.candidate_refs, want.candidate_refs) << where;
  EXPECT_EQ(got.pip_tests, want.pip_tests) << where;
  EXPECT_EQ(got.pip_hits, want.pip_hits) << where;
  EXPECT_EQ(got.sth_points, want.sth_points) << where;
  EXPECT_EQ(got.counts, want.counts) << where;
}

// Sizes around the probe group (kProbeGroup = 32) and the block
// (kJoinBlock = 256), plus a long run ending in a partial block.
constexpr uint64_t kKernelSizes[] = {0, 1, 31, 32, 33, 255, 256, 257, 4097};
static_assert(AdaptiveCellTrie::kProbeGroup == 32 && kJoinBlock == 256,
              "kKernelSizes straddles these edges; re-derive it");

TEST(JoinKernel, EqualsScalarReferenceForEveryIndexModeAndWidth) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  const EncodedCovering& enc = index.encoded();
  baselines::SortedVectorIndex lb(enc);
  baselines::BTreeCellIndex gbt(enc);
  // A widened box so the points include sentinel misses, true hits and
  // candidates.
  geom::Rect wide = ds.mbr;
  wide.lo.x -= 0.05;
  wide.hi.x += 0.05;
  wide.lo.y -= 0.05;
  wide.hi.y += 0.05;
  wl::PointSet pts = wl::SyntheticUniformPoints(wide, 4097, grid, 21);
  const geom::PolygonSlab slab(ds.polygons);

  auto check = [&](const auto& idx, const char* name) {
    for (uint64_t n : kKernelSizes) {
      JoinInput input = pts.Prefix(n);
      for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
        JoinStats want =
            ScalarReferenceJoin(idx, enc.table, input, ds.polygons, mode);
        for (int threads : {1, 4}) {
          std::string where = std::string(name) + " n=" + std::to_string(n) +
                              (mode == JoinMode::kExact ? " exact" : " approx") +
                              " threads=" + std::to_string(threads);
          ExpectSameJoin(ExecuteJoin(idx, enc.table, input, slab,
                                     {mode, threads}),
                         want, where);
        }
      }
      EXPECT_EQ(ExecuteJoinPairs(idx, enc.table, input, slab,
                                 JoinMode::kExact),
                BruteForceJoinPairs(input, ds.polygons))
          << name << " n=" << n;
    }
  };
  check(index.trie(), "ACT");
  check(lb, "LB");
  check(gbt, "GBT");

  // The full run exercises every path through the kernel.
  JoinStats full = index.Join(pts.AsJoinInput(), {JoinMode::kExact, 1});
  EXPECT_GT(full.true_hit_refs, 0u);
  EXPECT_GT(full.pip_hits, 0u);
  EXPECT_LT(full.pip_hits, full.pip_tests);
  EXPECT_GT(full.sth_points, 0u);
  EXPECT_LT(full.matched_points, full.num_points);
}

TEST(JoinKernel, RemovedPolygonIsNeverRefined) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  const uint32_t removed = 3;
  // Points over the removed polygon's box: before removal it is refined.
  wl::PointSet pts =
      wl::SyntheticUniformPoints(ds.polygons[removed].mbr(), 2000, grid, 22);
  std::vector<uint32_t> refined;
  ScalarReferenceJoin(index.trie(), index.encoded().table,
                      pts.AsJoinInput(), ds.polygons, JoinMode::kExact,
                      &refined);
  ASSERT_NE(std::find(refined.begin(), refined.end(), removed),
            refined.end());

  index.RemovePolygons(std::vector<uint32_t>{removed});
  // The id still has a slot in the polygon vector; here it holds a polygon
  // with no rings, which the refine pass must never reach.
  std::vector<geom::Polygon> polygons = index.polygons();
  ASSERT_EQ(polygons.size(), ds.polygons.size());
  polygons[removed] = geom::Polygon();

  refined.clear();
  JoinStats want =
      ScalarReferenceJoin(index.trie(), index.encoded().table,
                          pts.AsJoinInput(), polygons, JoinMode::kExact,
                          &refined);
  EXPECT_EQ(std::find(refined.begin(), refined.end(), removed),
            refined.end());
  for (int threads : {1, 4}) {
    JoinStats got =
        ExecuteJoin(index.trie(), index.encoded().table, pts.AsJoinInput(),
                    geom::PolygonSlab(polygons), {JoinMode::kExact, threads});
    ExpectSameJoin(got, want, "threads=" + std::to_string(threads));
    EXPECT_EQ(got.counts[removed], 0u);
  }
}

TEST(JoinKernel, RinglessCandidateIsTestedWithoutTouchingVertices) {
  // A candidate reference to a polygon with no rings: its slab record is
  // the header alone, and the empty MBR rejects the point before any
  // vertex is read.
  Grid grid;
  SuperCoveringBuilder b;
  RefList refs;
  refs.push_back({0, false});
  b.Insert(grid.CellAt({40.7, -74.0}, 10), refs);
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie trie(enc, {.bits_per_level = 8});
  std::vector<geom::Polygon> polygons(1);
  std::vector<uint64_t> ids(40, grid.CellAt({40.7, -74.0}).id());
  std::vector<geom::Point> points(40, geom::Point{-74.0, 40.7});
  JoinStats st = ExecuteJoin(trie, enc.table, JoinInput{ids, points},
                             geom::PolygonSlab(polygons),
                             {JoinMode::kExact, 1});
  EXPECT_EQ(st.candidate_refs, 40u);
  EXPECT_EQ(st.pip_tests, 40u);
  EXPECT_EQ(st.pip_hits, 0u);
  EXPECT_EQ(st.result_pairs, 0u);
}

TEST(BruteForce, OracleSanity) {
  // The oracle itself on a trivial configuration.
  std::vector<geom::Polygon> polys;
  polys.push_back(geom::Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}}));
  polys.push_back(geom::Polygon({{2, 0}, {3, 0}, {3, 1}, {2, 1}}));
  std::vector<geom::Point> pts{{0.5, 0.5}, {2.5, 0.5}, {5, 5}};
  std::vector<uint64_t> ids{0, 0, 0};  // ids unused by brute force
  JoinInput input{ids, pts};
  auto pairs = BruteForceJoinPairs(input, polys);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(uint64_t{0}, uint32_t{0}));
  EXPECT_EQ(pairs[1], std::make_pair(uint64_t{1}, uint32_t{1}));
}

}  // namespace
}  // namespace actjoin::act
