// Tests for runtime index updates (paper Sec. 3.1.2 outlook): adding and
// removing polygons from a live PolygonIndex. The contract under test:
// after any update sequence, the exact join equals the brute-force oracle
// over the active polygon set, the covering stays disjoint, and — in
// approximate mode — the precision bound still holds.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "act/pipeline.h"
#include "geo/grid.h"
#include "geometry/pip.h"
#include "util/random.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::act {
namespace {

using geo::Grid;

// Brute force restricted to a subset of active polygon ids.
std::vector<std::pair<uint64_t, uint32_t>> OracleActive(
    const JoinInput& input, const std::vector<geom::Polygon>& polys,
    const std::vector<bool>& active) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  for (uint64_t p = 0; p < input.size(); ++p) {
    for (uint32_t pid = 0; pid < polys.size(); ++pid) {
      if (active[pid] && geom::ContainsPoint(polys[pid], input.points[p])) {
        out.emplace_back(p, pid);
      }
    }
  }
  return out;
}

TEST(Updates, AddPolygonsMatchesFromScratch) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());

  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  uint32_t first_new = index.AddPolygons(second_half);
  EXPECT_EQ(first_new, half);
  EXPECT_EQ(index.polygons().size(), ds.polygons.size());
  ASSERT_TRUE(index.covering().IsDisjoint());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 31);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  auto want = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  ASSERT_EQ(got, want);
}

TEST(Updates, AddPolygonsIncrementalSingles) {
  // One polygon at a time, joining after each step.
  Grid grid;
  wl::PartitionSpec spec;
  spec.mbr = wl::NycMbr();
  spec.nx = spec.ny = 3;
  spec.edge_depth = 2;
  spec.seed = 5;
  std::vector<geom::Polygon> polys = wl::JitteredPartition(spec);

  BuildOptions opts;
  opts.threads = 1;
  std::vector<geom::Polygon> initial{polys[0]};
  PolygonIndex index = PolygonIndex::Build(initial, grid, opts);
  wl::PointSet pts = wl::SyntheticUniformPoints(spec.mbr, 1500, grid, 32);

  std::vector<geom::Polygon> active{polys[0]};
  for (size_t k = 1; k < polys.size(); ++k) {
    index.AddPolygons(std::span(&polys[k], 1));
    active.push_back(polys[k]);
    auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
    auto want = BruteForceJoinPairs(pts.AsJoinInput(), active);
    ASSERT_EQ(got, want) << "after adding polygon " << k;
    ASSERT_TRUE(index.covering().IsDisjoint());
  }
}

TEST(Updates, AddKeepsPrecisionBound) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());
  const double bound_m = 150.0;

  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = bound_m;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  index.AddPolygons(second_half);

  // Boundary cells still satisfy the bound after the update.
  for (size_t i = 0; i < index.covering().size(); ++i) {
    if (HasCandidate(index.covering().refs(i))) {
      ASSERT_LE(grid.CellDiagonalMeters(index.covering().cell(i)), bound_m);
    }
  }
  // And approximate false positives stay within the bound.
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2500, grid, 33);
  auto approx = index.JoinPairs(pts.AsJoinInput(), JoinMode::kApproximate);
  auto exact = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  ASSERT_TRUE(std::includes(approx.begin(), approx.end(), exact.begin(),
                            exact.end()));
  std::vector<std::pair<uint64_t, uint32_t>> extras;
  std::set_difference(approx.begin(), approx.end(), exact.begin(),
                      exact.end(), std::back_inserter(extras));
  for (const auto& [pi, pid] : extras) {
    ASSERT_LE(geom::DistanceToPolygonMeters(ds.polygons[pid],
                                            pts.points()[pi]),
              bound_m * 1.01);
  }
}

TEST(Updates, RemovePolygons) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);

  std::vector<bool> active(ds.polygons.size(), true);
  std::vector<uint32_t> to_remove;
  for (uint32_t pid = 0; pid < ds.polygons.size(); pid += 3) {
    to_remove.push_back(pid);
    active[pid] = false;
  }
  index.RemovePolygons(to_remove);
  ASSERT_TRUE(index.covering().IsDisjoint());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 34);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  auto want = OracleActive(pts.AsJoinInput(), ds.polygons, active);
  ASSERT_EQ(got, want);

  // Removed ids never reappear.
  for (const auto& [pi, pid] : got) {
    ASSERT_TRUE(active[pid]);
  }
}

TEST(Updates, RemoveAllThenAddBack) {
  Grid grid;
  wl::PartitionSpec spec;
  spec.mbr = wl::NycMbr();
  spec.nx = spec.ny = 2;
  spec.edge_depth = 1;
  spec.seed = 6;
  std::vector<geom::Polygon> polys = wl::JitteredPartition(spec);

  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(polys, grid, opts);
  std::vector<uint32_t> all{0, 1, 2, 3};
  index.RemovePolygons(all);
  EXPECT_EQ(index.covering().size(), 0u);

  wl::PointSet pts = wl::SyntheticUniformPoints(spec.mbr, 500, grid, 35);
  auto empty = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  EXPECT_TRUE(empty.empty());

  // Re-adding as new ids resurrects the areas.
  uint32_t first = index.AddPolygons(polys);
  EXPECT_EQ(first, 4u);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  EXPECT_EQ(got.size(),
            BruteForceJoinPairs(pts.AsJoinInput(), polys).size());
}

TEST(PolygonSlab, AddPolygonsAppendsUnderIndexIds) {
  // The index's slab grows with its polygons: record k is polygon id k, so
  // a join after AddPolygons equals one over a fresh Build of the same set,
  // and RemovePolygons leaves the slab (and every id's slot) alone.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  ASSERT_EQ(index.slab().size(), half);
  ASSERT_EQ(index.AddPolygons(second_half), half);
  ASSERT_EQ(index.slab().size(), ds.polygons.size());

  util::Rng rng(41);
  for (uint32_t id = 0; id < ds.polygons.size(); ++id) {
    const geom::Rect& box = ds.polygons[id].mbr();
    for (int s = 0; s < 50; ++s) {
      geom::Point q{rng.Uniform(box.lo.x, box.hi.x),
                    rng.Uniform(box.lo.y, box.hi.y)};
      ASSERT_EQ(index.slab().Contains(id, q),
                geom::ContainsPoint(ds.polygons[id], q))
          << "id " << id;
    }
  }

  PolygonIndex fresh = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet pts = wl::SyntheticUniformPoints(ds.mbr, 3000, grid, 42);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            fresh.JoinPairs(pts.AsJoinInput(), JoinMode::kExact));
  EXPECT_EQ(index.Join(pts.AsJoinInput(), {JoinMode::kExact, 1}).counts,
            fresh.Join(pts.AsJoinInput(), {JoinMode::kExact, 1}).counts);

  index.RemovePolygons(std::vector<uint32_t>{0, static_cast<uint32_t>(half)});
  EXPECT_EQ(index.slab().size(), ds.polygons.size());
  std::vector<bool> active(ds.polygons.size(), true);
  active[0] = active[half] = false;
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            OracleActive(pts.AsJoinInput(), ds.polygons, active));
}

TEST(Updates, TrainAfterAddStillExact) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());

  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  index.AddPolygons(second_half);
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 15000, grid, 36);
  index.Train(history.AsJoinInput());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2500, grid, 37);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons));
}

TEST(Updates, AddOverlappingPolygonSharesCells) {
  // The new polygon overlaps existing ones: conflict resolution must merge
  // references rather than lose either polygon.
  Grid grid;
  std::vector<geom::Polygon> base;
  base.push_back(geom::Polygon(
      {{-74.05, 40.70}, {-73.95, 40.70}, {-73.95, 40.80}, {-74.05, 40.80}}));
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(base, grid, opts);

  std::vector<geom::Polygon> overlap;
  overlap.push_back(geom::Polygon(
      {{-74.00, 40.75}, {-73.90, 40.75}, {-73.90, 40.85}, {-74.00, 40.85}}));
  index.AddPolygons(overlap);

  // A point in the intersection joins with both.
  geom::Point p{-73.97, 40.77};
  std::vector<uint64_t> ids{grid.CellAt({p.y, p.x}).id()};
  std::vector<geom::Point> pv{p};
  auto got = index.JoinPairs({ids, pv}, JoinMode::kExact);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second, 0u);
  EXPECT_EQ(got[1].second, 1u);
}

}  // namespace
}  // namespace actjoin::act
