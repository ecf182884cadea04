// Tests for the baseline index structures: B+-tree (vs std::map oracle),
// cell-index wrappers, R-tree (vs brute-force stabbing), shape index (vs
// raw PIP), and the raster join (ARJ exactness, BRJ error bound,
// multi-pass invariance).

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "act/pipeline.h"
#include "baselines/btree.h"
#include "baselines/cell_indexes.h"
#include "baselines/raster_join.h"
#include "baselines/rtree.h"
#include "baselines/shape_index.h"
#include "geo/grid.h"
#include "geometry/pip.h"
#include "util/random.h"
#include "workloads/datasets.h"

namespace actjoin::baselines {
namespace {

using actjoin::util::Rng;
using geo::Grid;

// ---------------------------------------------------------------------------
// B+-tree
// ---------------------------------------------------------------------------

class BTreeNodeSizeTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(NodeSizes, BTreeNodeSizeTest,
                         ::testing::Values(64, 256, 1024));

TEST_P(BTreeNodeSizeTest, InsertMatchesMapOracle) {
  BTree tree(GetParam());
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(1);
  for (int k = 0; k < 5000; ++k) {
    uint64_t key = rng.UniformInt(8000);  // collisions: overwrites
    uint64_t value = rng.Next();
    tree.Insert(key, value);
    oracle[key] = value;
  }
  ASSERT_EQ(tree.size(), oracle.size());
  ASSERT_TRUE(tree.CheckInvariants());
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    ASSERT_TRUE(tree.Find(k, &got)) << "key " << k;
    ASSERT_EQ(got, v);
  }
  uint64_t dummy;
  EXPECT_FALSE(tree.Find(999999, &dummy));
}

TEST_P(BTreeNodeSizeTest, BulkLoadMatchesMapOracle) {
  Rng rng(2);
  std::map<uint64_t, uint64_t> oracle;
  for (int k = 0; k < 20000; ++k) oracle[rng.Next() >> 4] = rng.Next();
  std::vector<std::pair<uint64_t, uint64_t>> pairs(oracle.begin(),
                                                   oracle.end());
  BTree tree(GetParam());
  tree.BulkLoad(pairs);
  ASSERT_EQ(tree.size(), oracle.size());
  ASSERT_TRUE(tree.CheckInvariants());
  for (int k = 0; k < 3000; ++k) {
    const auto& [key, value] = pairs[rng.UniformInt(pairs.size())];
    uint64_t got = 0;
    ASSERT_TRUE(tree.Find(key, &got));
    ASSERT_EQ(got, value);
  }
}

TEST_P(BTreeNodeSizeTest, LowerBoundAndPredecessorMatchOracle) {
  Rng rng(3);
  std::map<uint64_t, uint64_t> oracle;
  for (int k = 0; k < 5000; ++k) oracle[rng.UniformInt(100000)] = rng.Next();
  std::vector<std::pair<uint64_t, uint64_t>> pairs(oracle.begin(),
                                                   oracle.end());
  BTree tree(GetParam());
  tree.BulkLoad(pairs);
  for (int k = 0; k < 5000; ++k) {
    uint64_t q = rng.UniformInt(110000);
    auto lb = oracle.lower_bound(q);
    BTree::Iterator it = tree.LowerBound(q);
    if (lb == oracle.end()) {
      ASSERT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      ASSERT_EQ(it.key(), lb->first);
      ASSERT_EQ(it.value(), lb->second);
    }
    // Predecessor: last key <= q.
    auto ub = oracle.upper_bound(q);
    BTree::Iterator pred = tree.Predecessor(q);
    if (ub == oracle.begin()) {
      ASSERT_FALSE(pred.Valid());
    } else {
      --ub;
      ASSERT_TRUE(pred.Valid());
      ASSERT_EQ(pred.key(), ub->first);
    }
  }
}

TEST(BTreeTest, IterationIsSortedAndComplete) {
  Rng rng(4);
  std::set<uint64_t> keys;
  BTree tree;
  for (int k = 0; k < 3000; ++k) {
    uint64_t key = rng.Next();
    keys.insert(key);
    tree.Insert(key, key + 1);
  }
  size_t n = 0;
  uint64_t prev = 0;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next()) {
    ASSERT_TRUE(n == 0 || it.key() > prev);
    ASSERT_EQ(it.value(), it.key() + 1);
    prev = it.key();
    ++n;
  }
  EXPECT_EQ(n, keys.size());
}

TEST(BTreeTest, IteratorPrevWalksBackwards) {
  BTree tree;
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k * 10, k);
  BTree::Iterator it = tree.LowerBound(505);  // -> 510
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 510u);
  it.Prev();
  EXPECT_EQ(it.key(), 500u);
  // Walk all the way back.
  int steps = 0;
  while (it.Valid()) {
    it.Prev();
    ++steps;
  }
  EXPECT_EQ(steps, 51);
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  uint64_t v;
  EXPECT_FALSE(tree.Find(1, &v));
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.LowerBound(0).Valid());
  EXPECT_FALSE(tree.Predecessor(~uint64_t{0}).Valid());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.MemoryBytes(), 0u);
}

TEST(BTreeTest, HeightGrowsLogarithmically) {
  BTree tree(256);
  for (uint64_t k = 0; k < 100000; ++k) tree.Insert(k, k);
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_LE(tree.height(), 7);
  EXPECT_GT(tree.MemoryBytes(), 100000u * 16 / 2);
}

// ---------------------------------------------------------------------------
// Cell index wrappers agree with ACT and the reference probe
// ---------------------------------------------------------------------------

TEST(CellIndexes, AllStructuresAgreeOnProbes) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  act::BuildOptions opts;
  opts.threads = 1;
  act::PolygonIndex index = act::PolygonIndex::Build(ds.polygons, grid, opts);
  const act::EncodedCovering& enc = index.encoded();

  SortedVectorIndex lb(enc);
  BTreeCellIndex gbt(enc);

  Rng rng(9);
  for (int s = 0; s < 20000; ++s) {
    geo::LatLng p{rng.Uniform(40.4, 41.0), rng.Uniform(-74.35, -73.6)};
    uint64_t leaf = grid.CellAt(p).id();
    act::TaggedEntry want = index.trie().Probe(leaf);
    ASSERT_EQ(lb.Probe(leaf), want) << "LB mismatch";
    ASSERT_EQ(gbt.Probe(leaf), want) << "GBT mismatch";
  }
}

TEST(CellIndexes, JoinResultsIdenticalAcrossStructures) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  act::BuildOptions opts;
  opts.threads = 1;
  act::PolygonIndex index = act::PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 5000, grid, 10);

  SortedVectorIndex lb(index.encoded());
  BTreeCellIndex gbt(index.encoded());
  auto want = act::ExecuteJoinPairs(index.trie(), index.encoded().table,
                                    pts.AsJoinInput(), index.slab(),
                                    act::JoinMode::kExact);
  EXPECT_EQ(act::ExecuteJoinPairs(lb, index.encoded().table,
                                  pts.AsJoinInput(), index.slab(),
                                  act::JoinMode::kExact),
            want);
  EXPECT_EQ(act::ExecuteJoinPairs(gbt, index.encoded().table,
                                  pts.AsJoinInput(), index.slab(),
                                  act::JoinMode::kExact),
            want);
}

// ---------------------------------------------------------------------------
// R-tree
// ---------------------------------------------------------------------------

TEST(RTreeTest, BulkLoadStabbingMatchesBruteForce) {
  Rng rng(11);
  std::vector<std::pair<geom::Rect, uint32_t>> entries;
  for (uint32_t k = 0; k < 2000; ++k) {
    double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    entries.emplace_back(
        geom::Rect::Of(x, y, x + rng.Uniform(0.1, 5), y + rng.Uniform(0.1, 5)),
        k);
  }
  RTree tree(8);
  tree.BulkLoad(entries);
  ASSERT_EQ(tree.size(), entries.size());
  ASSERT_TRUE(tree.CheckInvariants());

  for (int s = 0; s < 2000; ++s) {
    geom::Point q{rng.Uniform(-1, 101), rng.Uniform(-1, 101)};
    std::set<uint32_t> got;
    tree.QueryPoint(q, [&](uint32_t id) { got.insert(id); });
    std::set<uint32_t> want;
    for (const auto& [rect, id] : entries) {
      if (rect.Contains(q)) want.insert(id);
    }
    ASSERT_EQ(got, want);
  }
}

TEST(RTreeTest, InsertStabbingMatchesBruteForce) {
  Rng rng(12);
  std::vector<std::pair<geom::Rect, uint32_t>> entries;
  RTree tree(8);
  for (uint32_t k = 0; k < 1500; ++k) {
    double x = rng.Uniform(0, 50), y = rng.Uniform(0, 50);
    geom::Rect r =
        geom::Rect::Of(x, y, x + rng.Uniform(0.1, 3), y + rng.Uniform(0.1, 3));
    entries.emplace_back(r, k);
    tree.Insert(r, k);
  }
  ASSERT_EQ(tree.size(), entries.size());
  ASSERT_TRUE(tree.CheckInvariants());
  for (int s = 0; s < 1000; ++s) {
    geom::Point q{rng.Uniform(0, 50), rng.Uniform(0, 50)};
    std::set<uint32_t> got;
    tree.QueryPoint(q, [&](uint32_t id) { got.insert(id); });
    std::set<uint32_t> want;
    for (const auto& [rect, id] : entries) {
      if (rect.Contains(q)) want.insert(id);
    }
    ASSERT_EQ(got, want);
  }
}

TEST(RTreeTest, JoinMatchesBruteForce) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  RTree tree = BuildPolygonRTree(ds.polygons);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4000, grid, 13);
  act::JoinStats stats = RTreeJoin(tree, ds.polygons, pts.AsJoinInput(), 1);
  auto want = act::BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  EXPECT_EQ(stats.result_pairs, want.size());
  EXPECT_GT(stats.pip_tests, 0u);
}

TEST(RTreeTest, EmptyAndSingle) {
  RTree tree(8);
  tree.BulkLoad({});
  EXPECT_TRUE(tree.CheckInvariants());
  int hits = 0;
  tree.QueryPoint({0, 0}, [&](uint32_t) { ++hits; });
  EXPECT_EQ(hits, 0);

  tree.BulkLoad({{geom::Rect::Of(0, 0, 1, 1), 7}});
  EXPECT_TRUE(tree.CheckInvariants());
  tree.QueryPoint({0.5, 0.5}, [&](uint32_t id) { EXPECT_EQ(id, 7u); ++hits; });
  EXPECT_EQ(hits, 1);
}

// ---------------------------------------------------------------------------
// Shape index
// ---------------------------------------------------------------------------

class ShapeIndexEdgesTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(EdgesPerCell, ShapeIndexEdgesTest,
                         ::testing::Values(1, 10),
                         [](const auto& info) {
                           return "SI" + std::to_string(info.param);
                         });

TEST_P(ShapeIndexEdgesTest, QueryMatchesRawPip) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  ShapeIndex index(ds.polygons, grid, {GetParam(), 18});
  Rng rng(14);
  for (int s = 0; s < 4000; ++s) {
    geom::Point q{rng.Uniform(ds.mbr.lo.x, ds.mbr.hi.x),
                  rng.Uniform(ds.mbr.lo.y, ds.mbr.hi.y)};
    uint64_t leaf = grid.CellAt({q.y, q.x}).id();
    std::set<uint32_t> got;
    index.Query(leaf, q, [&](uint32_t pid, bool covers) {
      if (covers) got.insert(pid);
    });
    std::set<uint32_t> want;
    for (uint32_t pid = 0; pid < ds.polygons.size(); ++pid) {
      if (geom::ContainsPoint(ds.polygons[pid], q)) want.insert(pid);
    }
    ASSERT_EQ(got, want) << "q=(" << q.x << "," << q.y << ")";
  }
}

TEST_P(ShapeIndexEdgesTest, JoinMatchesBruteForce) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  ShapeIndex index(ds.polygons, grid, {GetParam(), 18});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 15);
  act::JoinStats stats =
      ShapeIndexJoin(index, ds.polygons, pts.AsJoinInput(), 1);
  auto want = act::BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  EXPECT_EQ(stats.result_pairs, want.size());
}

TEST(ShapeIndexTest, FinerConfigHasFewerEdgesPerCell) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  ShapeIndex si10(ds.polygons, grid, {10, 18});
  ShapeIndex si1(ds.polygons, grid, {1, 18});
  // SI1 subdivides further: more cells, fewer edges per cell (down to the
  // level cap, where vertex-adjacent edges cannot be separated).
  EXPECT_GT(si1.num_cells(), si10.num_cells());
  EXPECT_LE(si1.MaxEdgesInAnyCell(), si10.MaxEdgesInAnyCell());
  EXPECT_GT(si1.MemoryBytes(), si10.MemoryBytes());
}

TEST(ShapeIndexTest, TrueHitFilteringWorks) {
  // Points deep inside polygons should be answered without local-edge
  // tests for most probes (contained list).
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  ShapeIndex index(ds.polygons, grid, {10, 18});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4000, grid, 16);
  act::JoinStats stats =
      ShapeIndexJoin(index, ds.polygons, pts.AsJoinInput(), 1);
  // Some points hit interior cells => sth_points > 0.
  EXPECT_GT(stats.sth_points, 0u);
  EXPECT_LT(stats.pip_tests, stats.num_points * ds.polygons.size());
}

// ---------------------------------------------------------------------------
// Raster join
// ---------------------------------------------------------------------------

TEST(RasterJoinTest, AccurateMatchesBruteForce) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  RasterJoinOptions opts;
  opts.precision_bound_m = 120;
  opts.accurate = true;
  RasterJoin rj(ds.polygons, ds.mbr, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4000, grid, 17);
  act::JoinStats stats = rj.Execute(pts.AsJoinInput(), 1);
  auto want = act::BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  EXPECT_EQ(stats.result_pairs, want.size());
  // Per-polygon counts must match exactly.
  std::vector<uint64_t> want_counts(ds.polygons.size(), 0);
  for (const auto& [p, pid] : want) ++want_counts[pid];
  EXPECT_EQ(stats.counts, want_counts);
}

TEST(RasterJoinTest, BoundedErrorWithinPixelDiagonal) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const double bound = 150;
  RasterJoinOptions opts;
  opts.precision_bound_m = bound;
  opts.accurate = false;
  RasterJoin rj(ds.polygons, ds.mbr, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4000, grid, 18);
  act::JoinStats stats = rj.Execute(pts.AsJoinInput(), 1);
  auto exact = act::BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  // Superset of exact (no false negatives)...
  EXPECT_GE(stats.result_pairs, exact.size());
  // ...and BRJ emits no PIP tests at all.
  EXPECT_EQ(stats.pip_tests, 0u);
}

TEST(RasterJoinTest, MultiPassDoesNotChangeResults) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 19);

  RasterJoinOptions one_pass;
  one_pass.precision_bound_m = 100;
  one_pass.accurate = true;
  one_pass.native_resolution = 1 << 20;  // everything in one pass
  RasterJoin rj1(ds.polygons, ds.mbr, one_pass);
  ASSERT_EQ(rj1.passes(), 1);

  RasterJoinOptions many_pass = one_pass;
  many_pass.native_resolution = 256;  // force scene splits
  RasterJoin rjn(ds.polygons, ds.mbr, many_pass);
  ASSERT_GT(rjn.passes(), 1);

  act::JoinStats a = rj1.Execute(pts.AsJoinInput(), 1);
  act::JoinStats b = rjn.Execute(pts.AsJoinInput(), 1);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.result_pairs, b.result_pairs);
}

TEST(RasterJoinTest, ResolutionScalesWithPrecision) {
  wl::PolygonDataset ds = wl::Neighborhoods(0.02);
  RasterJoinOptions coarse;
  coarse.precision_bound_m = 240;
  RasterJoinOptions fine;
  fine.precision_bound_m = 60;
  RasterJoin rc(ds.polygons, ds.mbr, coarse);
  RasterJoin rf(ds.polygons, ds.mbr, fine);
  EXPECT_NEAR(static_cast<double>(rf.resolution_x()) / rc.resolution_x(), 4.0,
              0.1);
  EXPECT_GT(rf.MemoryBytes(), rc.MemoryBytes());
}

TEST(RasterJoinTest, MultithreadedMatchesSingle) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  RasterJoinOptions opts;
  opts.precision_bound_m = 100;
  opts.accurate = true;
  RasterJoin rj(ds.polygons, ds.mbr, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 10000, grid, 20);
  act::JoinStats a = rj.Execute(pts.AsJoinInput(), 1);
  act::JoinStats b = rj.Execute(pts.AsJoinInput(), 4);
  EXPECT_EQ(a.counts, b.counts);
}

// ---------------------------------------------------------------------------
// Cross-structure integration: every exact method returns identical counts
// ---------------------------------------------------------------------------

TEST(CrossIndex, AllExactJoinsAgree) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  act::BuildOptions opts;
  opts.threads = 1;
  act::PolygonIndex index = act::PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 5000, grid, 21);
  act::JoinInput input = pts.AsJoinInput();

  act::JoinStats act_stats = index.Join(input, {act::JoinMode::kExact, 1});

  RTree rtree = BuildPolygonRTree(ds.polygons);
  act::JoinStats rt_stats = RTreeJoin(rtree, ds.polygons, input, 1);

  ShapeIndex si(ds.polygons, grid, {10, 18});
  act::JoinStats si_stats = ShapeIndexJoin(si, ds.polygons, input, 1);

  RasterJoinOptions ropts;
  ropts.precision_bound_m = 100;
  ropts.accurate = true;
  RasterJoin rj(ds.polygons, ds.mbr, ropts);
  act::JoinStats arj_stats = rj.Execute(input, 1);

  EXPECT_EQ(act_stats.counts, rt_stats.counts);
  EXPECT_EQ(act_stats.counts, si_stats.counts);
  EXPECT_EQ(act_stats.counts, arj_stats.counts);

  // True-hit filtering: ACT needs far fewer refinement tests than RT.
  EXPECT_LT(act_stats.pip_tests, rt_stats.pip_tests);
}

}  // namespace
}  // namespace actjoin::baselines
