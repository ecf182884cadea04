// Unit and property tests for the geometry kernel: segment predicates,
// polygons, point-in-polygon, classification, and the edge-grid accelerator.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "geometry/edge_grid.h"
#include "geometry/pip.h"
#include "geometry/polygon.h"
#include "geometry/polygon_slab.h"
#include "geometry/rect.h"
#include "geometry/segment.h"
#include "util/random.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::geom {
namespace {

using actjoin::util::Rng;
using actjoin::wl::JitteredPartition;
using actjoin::wl::PartitionSpec;
using actjoin::wl::RandomStarPolygon;

Polygon UnitSquare() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

// A square with a square hole from (0.25,0.25) to (0.75,0.75).
Polygon SquareWithHole() {
  Polygon p({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  p.AddRing({{0.25, 0.25}, {0.75, 0.25}, {0.75, 0.75}, {0.25, 0.75}});
  return p;
}

// Concave "L" shape.
Polygon LShape() {
  return Polygon({{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}});
}

TEST(Segment, Orientation) {
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {0, 1}), 1);
  EXPECT_EQ(Orientation({0, 0}, {0, 1}, {1, 0}), -1);
  EXPECT_EQ(Orientation({0, 0}, {1, 1}, {2, 2}), 0);
}

TEST(Segment, OnSegment) {
  EXPECT_TRUE(OnSegment({0, 0}, {2, 2}, {1, 1}));
  EXPECT_TRUE(OnSegment({0, 0}, {2, 2}, {0, 0}));
  EXPECT_TRUE(OnSegment({0, 0}, {2, 2}, {2, 2}));
  EXPECT_FALSE(OnSegment({0, 0}, {2, 2}, {3, 3}));  // collinear but outside
  EXPECT_FALSE(OnSegment({0, 0}, {2, 2}, {1, 1.01}));
}

TEST(Segment, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  EXPECT_TRUE(SegmentsCrossProperly({0, 0}, {2, 2}, {0, 2}, {2, 0}));
}

TEST(Segment, EndpointTouchIsImproper) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
  EXPECT_FALSE(SegmentsCrossProperly({0, 0}, {1, 1}, {1, 1}, {2, 0}));
}

TEST(Segment, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  EXPECT_FALSE(SegmentsCrossProperly({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

TEST(Segment, ParallelDisjoint) {
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
}

TEST(Segment, RectIntersection) {
  Rect r = Rect::Of(0, 0, 1, 1);
  EXPECT_TRUE(SegmentIntersectsRect({0.5, 0.5}, {2, 2}, r));   // endpoint in
  EXPECT_TRUE(SegmentIntersectsRect({-1, 0.5}, {2, 0.5}, r));  // pass through
  EXPECT_TRUE(SegmentIntersectsRect({-1, -1}, {1, 3}, r));     // cut corner?
  EXPECT_FALSE(SegmentIntersectsRect({-1, -1}, {-0.5, 3}, r));
  EXPECT_FALSE(SegmentIntersectsRect({2, 2}, {3, 3}, r));
  // Touching an edge counts (closed semantics).
  EXPECT_TRUE(SegmentIntersectsRect({1, 0.2}, {2, 0.2}, r));
}

TEST(Rect, BasicOps) {
  Rect r = Rect::Of(0, 0, 2, 1);
  EXPECT_TRUE(r.Contains(Point{1, 0.5}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));  // closed
  EXPECT_FALSE(r.Contains(Point{2.1, 0.5}));
  EXPECT_DOUBLE_EQ(r.Area(), 2.0);
  EXPECT_DOUBLE_EQ(r.Perimeter(), 6.0);
  Rect e;
  EXPECT_TRUE(e.IsEmpty());
  e.Expand(Point{1, 1});
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
}

TEST(Rect, Enlargement) {
  Rect r = Rect::Of(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(r.Enlargement(Rect::Of(0.2, 0.2, 0.8, 0.8)), 0.0);
  EXPECT_DOUBLE_EQ(r.Enlargement(Rect::Of(0, 0, 2, 1)), 1.0);
}

TEST(Polygon, EdgeIterationAndArea) {
  Polygon sq = UnitSquare();
  EXPECT_EQ(sq.num_edges(), 4u);
  auto [a, b] = sq.Edge(3);
  EXPECT_EQ(a, (Point{0, 1}));
  EXPECT_EQ(b, (Point{0, 0}));  // closing edge wraps
  EXPECT_DOUBLE_EQ(sq.Area(), 1.0);
  EXPECT_DOUBLE_EQ(sq.SignedArea(), 1.0);  // CCW
}

TEST(Polygon, HoleAreaSubtracts) {
  Polygon p = SquareWithHole();
  // Hole ring as listed is CCW too; SignedArea adds. Area semantics for
  // even-odd polygons are tested through containment instead.
  EXPECT_EQ(p.rings().size(), 2u);
  EXPECT_EQ(p.num_edges(), 8u);
}

TEST(Polygon, MbrCoversAllVertices) {
  Polygon p = LShape();
  EXPECT_EQ(p.mbr().lo, (Point{0, 0}));
  EXPECT_EQ(p.mbr().hi, (Point{2, 2}));
}

TEST(Polygon, SimplicityCheck) {
  EXPECT_TRUE(UnitSquare().IsSimple());
  // Bowtie: self-intersecting.
  Polygon bowtie({{0, 0}, {1, 1}, {1, 0}, {0, 1}});
  EXPECT_FALSE(bowtie.IsSimple());
}

TEST(Pip, SquareInterior) {
  Polygon sq = UnitSquare();
  EXPECT_TRUE(ContainsPoint(sq, {0.5, 0.5}));
  EXPECT_FALSE(ContainsPoint(sq, {1.5, 0.5}));
  EXPECT_FALSE(ContainsPoint(sq, {-0.1, 0.5}));
}

TEST(Pip, BoundaryIsCovered) {
  // ST_Covers semantics: edges and vertices count as inside.
  Polygon sq = UnitSquare();
  EXPECT_TRUE(ContainsPoint(sq, {0, 0.5}));
  EXPECT_TRUE(ContainsPoint(sq, {1, 1}));
  EXPECT_TRUE(ContainsPoint(sq, {0.5, 0}));
  EXPECT_TRUE(OnBoundary(sq, {0.5, 1}));
  EXPECT_FALSE(OnBoundary(sq, {0.5, 0.5}));
}

TEST(Pip, HoleExcluded) {
  Polygon p = SquareWithHole();
  EXPECT_TRUE(ContainsPoint(p, {0.1, 0.1}));
  EXPECT_FALSE(ContainsPoint(p, {0.5, 0.5}));      // inside the hole
  EXPECT_TRUE(ContainsPoint(p, {0.25, 0.5}));      // on the hole boundary
}

TEST(Pip, ConcaveShape) {
  Polygon l = LShape();
  EXPECT_TRUE(ContainsPoint(l, {0.5, 1.5}));
  EXPECT_TRUE(ContainsPoint(l, {1.5, 0.5}));
  EXPECT_FALSE(ContainsPoint(l, {1.5, 1.5}));  // the notch
}

TEST(Pip, CrossingAndWindingAgreeOnRandomStars) {
  Rng rng(1234);
  for (int iter = 0; iter < 50; ++iter) {
    Polygon p = RandomStarPolygon({0, 0}, 1.0, 12, iter + 1);
    for (int s = 0; s < 200; ++s) {
      Point q{rng.Uniform(-1.2, 1.2), rng.Uniform(-1.2, 1.2)};
      ASSERT_EQ(ContainsPoint(p, q), WindingContainsPoint(p, q))
          << "iter " << iter << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(Pip, VertexRayDoesNotDoubleCount) {
  // A query point horizontally aligned with a vertex: the classic
  // ray-casting pitfall.
  Polygon diamond({{1, 0}, {2, 1}, {1, 2}, {0, 1}});
  EXPECT_TRUE(ContainsPoint(diamond, {1, 1}));
  EXPECT_FALSE(ContainsPoint(diamond, {-0.5, 1}));  // left of the vertex
  EXPECT_FALSE(ContainsPoint(diamond, {2.5, 1}));
}

// --- The division-free ring predicate ---------------------------------------

// The crossing test RingCrossings replaced: the crossing's x by a division on
// every straddling edge, the boundary by a call to OnSegment per edge. Kept
// here as the differential reference.
int DivisionRingCrossings(const Ring& ring, const Point& p) {
  int crossings = 0;
  size_t n = ring.size();
  for (size_t k = 0; k < n; ++k) {
    const Point& a = ring[k];
    const Point& b = ring[(k + 1) % n];
    if (OnSegment(a, b, p)) return -1;
    if ((a.y > p.y) != (b.y > p.y)) {
      double x_int = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (x_int > p.x) ++crossings;
    }
  }
  return crossings;
}

bool DivisionContainsPoint(const Polygon& poly, const Point& p) {
  if (!poly.mbr().Contains(p)) return false;
  int total = 0;
  for (const Ring& ring : poly.rings()) {
    int c = DivisionRingCrossings(ring, p);
    if (c < 0) return true;
    total += c;
  }
  return (total & 1) != 0;
}

Point Ulp(const Point& p, double dx, double dy) {
  return {dx == 0 ? p.x : std::nextafter(p.x, dx * HUGE_VAL),
          dy == 0 ? p.y : std::nextafter(p.y, dy * HUGE_VAL)};
}

// Points where a crossing test can go wrong: every vertex, every edge
// midpoint, one ulp either side of both in x and in y, and points whose
// ray to +x runs through a vertex (from left of the polygon, from just left
// of the vertex, and from just right of it).
std::vector<Point> DegeneratePoints(const Polygon& poly) {
  std::vector<Point> out;
  const double far = poly.mbr().Width() + 1;
  for (const Ring& ring : poly.rings()) {
    for (size_t k = 0; k < ring.size(); ++k) {
      const Point& a = ring[k];
      const Point& b = ring[(k + 1) % ring.size()];
      const Point mid{(a.x + b.x) / 2, (a.y + b.y) / 2};
      for (const Point& q : {a, mid}) {
        out.push_back(q);
        for (double d : {-1.0, 1.0}) {
          out.push_back(Ulp(q, d, 0));
          out.push_back(Ulp(q, 0, d));
        }
      }
      out.push_back({poly.mbr().lo.x - far, a.y});
      out.push_back(Ulp(a, -1, 0));
      out.push_back({(a.x + poly.mbr().lo.x) / 2, a.y});
      out.push_back({(a.x + poly.mbr().hi.x) / 2, a.y});
    }
  }
  return out;
}

// Shapes on an integer grid, so every vertex and edge midpoint is exact: a
// square, a square with a clockwise hole, a two-part polygon whose rays
// run along the other part's horizontal edges, a notched bar with two
// collinear horizontal edges, and a diamond whose rays hit vertices.
std::vector<Polygon> DegenerateShapes() {
  std::vector<Polygon> out;
  out.push_back(Polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}}));
  Polygon holed({{0, 0}, {8, 0}, {8, 8}, {0, 8}});
  holed.AddRing({{2, 2}, {2, 6}, {6, 6}, {6, 2}});
  out.push_back(holed);
  Polygon parts({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  parts.AddRing({{4, 0}, {6, 0}, {6, 2}, {4, 2}});
  parts.AddRing({{8, 1}, {10, 0}, {10, 2}});
  out.push_back(parts);
  out.push_back(Polygon(
      {{0, 0}, {6, 0}, {6, 2}, {4, 2}, {4, 1}, {2, 1}, {2, 2}, {0, 2}}));
  out.push_back(Polygon({{2, 0}, {4, 2}, {2, 4}, {0, 2}}));
  return out;
}

TEST(Pip, RingCrossingsMatchesOrientationOnEdges) {
  // The on-edge test is OnSegment's: same product, same bounding box.
  Polygon sq({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  const Ring& ring = sq.rings()[0];
  EXPECT_EQ(RingCrossings(ring.data(), ring.size(), {2, 0}), -1);
  EXPECT_EQ(RingCrossings(ring.data(), ring.size(), {4, 4}), -1);
  EXPECT_EQ(RingCrossings(ring.data(), ring.size(), {2, 2}), 1);
  EXPECT_EQ(RingCrossings(ring.data(), ring.size(), {-1, 2}), 2);
  EXPECT_EQ(RingCrossings(ring.data(), ring.size(), {5, 2}), 0);
  // On the line of an edge, beyond its end: not on the boundary.
  EXPECT_EQ(RingCrossings(ring.data(), ring.size(), {6, 0}), 0);
}

TEST(Pip, BoundarySuiteAgreesWithWindingAndSlab) {
  std::vector<Polygon> polys = DegenerateShapes();
  const size_t shapes = polys.size();
  for (const wl::PolygonDataset& ds :
       {wl::Census(0.05), wl::Neighborhoods(1.0), wl::Boroughs(1.0)}) {
    const size_t take = std::min<size_t>(ds.polygons.size(), 40);
    polys.insert(polys.end(), ds.polygons.begin(), ds.polygons.begin() + take);
  }
  const PolygonSlab slab(polys);
  ASSERT_EQ(slab.size(), polys.size());

  uint64_t points = 0, on_boundary = 0, division_wrong = 0;
  for (uint32_t id = 0; id < polys.size(); ++id) {
    const Polygon& poly = polys[id];
    for (const Point& q : DegeneratePoints(poly)) {
      const bool got = ContainsPoint(poly, q);
      const bool edge = OnBoundary(poly, q);
      const bool winding = WindingContainsPoint(poly, q);
      ASSERT_EQ(got, edge || winding)
          << "polygon " << id << " q=(" << q.x << "," << q.y << ")";
      ASSERT_EQ(got, slab.Contains(id, q)) << "polygon " << id;
      ++points;
      on_boundary += edge;
      division_wrong += DivisionContainsPoint(poly, q) != (edge || winding);
    }
    // Every vertex is covered; so is every edge midpoint of the integer
    // shapes, where it is exact.
    for (const Ring& ring : poly.rings()) {
      for (size_t k = 0; k < ring.size(); ++k) {
        ASSERT_TRUE(ContainsPoint(poly, ring[k]) && OnBoundary(poly, ring[k]))
            << "polygon " << id << " vertex " << k;
        const Point& b = ring[(k + 1) % ring.size()];
        const Point mid{(ring[k].x + b.x) / 2, (ring[k].y + b.y) / 2};
        if (id < shapes) {
          ASSERT_TRUE(ContainsPoint(poly, mid) && OnBoundary(poly, mid))
              << "polygon " << id << " edge " << k;
        }
      }
    }
  }
  EXPECT_GT(on_boundary, points / 10);
  // The division form is the old predicate; winding arbitrates.
  std::printf("boundary suite: %llu points, %llu on an edge, division form "
              "wrong on %llu\n",
              static_cast<unsigned long long>(points),
              static_cast<unsigned long long>(on_boundary),
              static_cast<unsigned long long>(division_wrong));
}

TEST(Pip, IntegerShapesKnownAnswers) {
  std::vector<Polygon> polys = DegenerateShapes();
  const Polygon& holed = polys[1];
  EXPECT_TRUE(ContainsPoint(holed, {4, 2}));    // midpoint of a hole edge
  EXPECT_FALSE(ContainsPoint(holed, {4, 4}));   // inside the hole
  EXPECT_TRUE(ContainsPoint(holed, {1, 4}));    // ray crosses the hole twice
  const Polygon& parts = polys[2];
  EXPECT_TRUE(ContainsPoint(parts, {1, 1}));
  EXPECT_FALSE(ContainsPoint(parts, {3, 1}));   // between the parts
  EXPECT_FALSE(ContainsPoint(parts, {3, 2}));   // ray along two top edges
  EXPECT_TRUE(ContainsPoint(parts, {5, 2}));    // on a top edge
  EXPECT_FALSE(ContainsPoint(parts, {7, 1}));   // ray through (8, 1)
  EXPECT_TRUE(ContainsPoint(parts, {9, 1}));
  const Polygon& notched = polys[3];
  EXPECT_FALSE(ContainsPoint(notched, {3, 2}));  // ray along (4,2)-(6,2)
  EXPECT_FALSE(ContainsPoint(notched, {3, 1.5}));
  EXPECT_TRUE(ContainsPoint(notched, {3, 1}));   // bottom of the notch
  EXPECT_TRUE(ContainsPoint(notched, {1, 1}));   // ray through (2, 1)
  EXPECT_FALSE(ContainsPoint(notched, {-1, 2}));  // ray along both tops
  EXPECT_TRUE(ContainsPoint(notched, Ulp({3, 1}, 0, -1)));  // under it
  EXPECT_FALSE(ContainsPoint(notched, Ulp({3, 1}, 0, 1)));  // in the notch
  const Polygon& diamond = polys[4];
  EXPECT_TRUE(ContainsPoint(diamond, {1, 1}));   // edge midpoint
  EXPECT_FALSE(ContainsPoint(diamond, Ulp({1, 1}, -1, 0)));
  EXPECT_TRUE(ContainsPoint(diamond, Ulp({1, 1}, 1, 0)));
  EXPECT_FALSE(ContainsPoint(diamond, {-1, 2}));  // ray through two vertices
}

TEST(Pip, MatchesDivisionFormOnRandomPoints) {
  // Random points in each polygon's MBR over the three presets: the
  // division-free form must decide every one as the division did.
  Rng rng(2024);
  uint64_t points = 0, differ = 0;
  struct Preset {
    wl::PolygonDataset ds;
    int per_polygon;
  };
  for (const Preset& preset :
       {Preset{wl::Census(0.05), 50}, Preset{wl::Neighborhoods(1.0), 300},
        Preset{wl::Boroughs(1.0), 20000}}) {
    const PolygonSlab slab(preset.ds.polygons);
    for (uint32_t id = 0; id < preset.ds.polygons.size(); ++id) {
      const Polygon& poly = preset.ds.polygons[id];
      for (int s = 0; s < preset.per_polygon; ++s) {
        Point q{rng.Uniform(poly.mbr().lo.x, poly.mbr().hi.x),
                rng.Uniform(poly.mbr().lo.y, poly.mbr().hi.y)};
        const bool got = ContainsPoint(poly, q);
        differ += got != DivisionContainsPoint(poly, q);
        ASSERT_EQ(got, slab.Contains(id, q)) << preset.ds.name << " " << id;
        ++points;
      }
    }
  }
  EXPECT_GT(points, 250000u);
  EXPECT_EQ(differ, 0u) << "of " << points;
}

// --- PolygonSlab ------------------------------------------------------------

TEST(PolygonSlab, MultiRingRecordWithHole) {
  std::vector<Polygon> polys = {UnitSquare(), SquareWithHole(), LShape()};
  PolygonSlab slab(polys);
  ASSERT_EQ(slab.size(), 3u);
  // The holed record sits between two others: offsets select the record.
  EXPECT_TRUE(slab.Contains(1, {0.1, 0.1}));
  EXPECT_FALSE(slab.Contains(1, {0.5, 0.5}));   // inside the hole
  EXPECT_TRUE(slab.Contains(1, {0.25, 0.5}));   // on the hole's edge
  EXPECT_TRUE(slab.Contains(1, {0.75, 0.75}));  // a hole vertex
  EXPECT_TRUE(slab.Contains(0, {0.5, 0.5}));
  EXPECT_TRUE(slab.Contains(2, {1.5, 0.5}));
  EXPECT_FALSE(slab.Contains(2, {1.5, 1.5}));   // the L's notch
  Rng rng(77);
  for (int s = 0; s < 2000; ++s) {
    Point q{rng.Uniform(-0.5, 2.5), rng.Uniform(-0.5, 2.5)};
    for (uint32_t id = 0; id < polys.size(); ++id) {
      ASSERT_EQ(slab.Contains(id, q), ContainsPoint(polys[id], q)) << id;
    }
  }
}

TEST(PolygonSlab, RinglessPolygonRejectsEverything) {
  PolygonSlab slab;
  EXPECT_EQ(slab.Append(UnitSquare()), 0u);
  EXPECT_EQ(slab.Append(Polygon()), 1u);
  EXPECT_EQ(slab.Append(UnitSquare()), 2u);
  EXPECT_TRUE(slab.Contains(0, {0.5, 0.5}));
  for (Point q : {Point{0.5, 0.5}, Point{0, 0}, Point{-1e300, 1e300},
                  Point{HUGE_VAL, HUGE_VAL}, Point{-HUGE_VAL, -HUGE_VAL}}) {
    slab.Prefetch(1);
    EXPECT_FALSE(slab.Contains(1, q));
  }
  // The ring-less record does not shift its neighbours.
  EXPECT_TRUE(slab.Contains(2, {1, 1}));
  EXPECT_FALSE(slab.Contains(2, {1.5, 1}));
}

TEST(Classify, SquareCases) {
  Polygon sq = UnitSquare();
  EXPECT_EQ(Classify(sq, Rect::Of(0.4, 0.4, 0.6, 0.6)),
            RegionRelation::kContained);
  EXPECT_EQ(Classify(sq, Rect::Of(2, 2, 3, 3)), RegionRelation::kDisjoint);
  EXPECT_EQ(Classify(sq, Rect::Of(0.5, 0.5, 2, 2)),
            RegionRelation::kIntersects);
  // Rect covering the whole polygon straddles the boundary.
  EXPECT_EQ(Classify(sq, Rect::Of(-1, -1, 2, 2)),
            RegionRelation::kIntersects);
}

TEST(Classify, HoleMakesInnerRectDisjoint) {
  Polygon p = SquareWithHole();
  EXPECT_EQ(Classify(p, Rect::Of(0.4, 0.4, 0.6, 0.6)),
            RegionRelation::kDisjoint);
  EXPECT_EQ(Classify(p, Rect::Of(0.05, 0.05, 0.15, 0.15)),
            RegionRelation::kContained);
}

TEST(Classify, AgreesWithSampling) {
  Rng rng(777);
  for (int iter = 0; iter < 30; ++iter) {
    Polygon p = RandomStarPolygon({0, 0}, 1.0, 14, 1000 + iter);
    for (int r = 0; r < 60; ++r) {
      double x = rng.Uniform(-1.2, 1.0);
      double y = rng.Uniform(-1.2, 1.0);
      Rect rect = Rect::Of(x, y, x + rng.Uniform(0.01, 0.4),
                           y + rng.Uniform(0.01, 0.4));
      RegionRelation rel = Classify(p, rect);
      // Sample points inside the rect and check consistency.
      int inside = 0, total = 64;
      for (int s = 0; s < total; ++s) {
        Point q{rng.Uniform(rect.lo.x, rect.hi.x),
                rng.Uniform(rect.lo.y, rect.hi.y)};
        inside += ContainsPoint(p, q) ? 1 : 0;
      }
      if (rel == RegionRelation::kContained) {
        ASSERT_EQ(inside, total);
      } else if (rel == RegionRelation::kDisjoint) {
        ASSERT_EQ(inside, 0);
      }
      // kIntersects is conservative: no assertion.
    }
  }
}

TEST(Distance, InsideIsZero) {
  Polygon sq = UnitSquare();
  EXPECT_EQ(DistanceToPolygonMeters(sq, {0.5, 0.5}), 0);
  EXPECT_EQ(DistanceToPolygonMeters(sq, {0, 0}), 0);  // boundary covered
}

TEST(Distance, MatchesLatitudeScale) {
  Polygon sq = UnitSquare();
  // 0.001 degrees north of the top edge at y=1: ~110.6 m.
  double d = DistanceToPolygonMeters(sq, {0.5, 1.001});
  EXPECT_NEAR(d, 110.574, 1.0);
  // 0.001 degrees east of the right edge at lat ~0.5: ~111.3 m * cos(0.5°).
  d = DistanceToPolygonMeters(sq, {1.001, 0.5});
  EXPECT_NEAR(d, 111.32 * std::cos(0.5 * 0.017453292519943295), 1.0);
}

TEST(EdgeGrid, ContainsMatchesRawPipOnPartitions) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(-74.26, 40.49, -73.69, 40.92);
  spec.nx = spec.ny = 4;
  spec.edge_depth = 4;
  spec.seed = 5;
  auto polys = JitteredPartition(spec);
  Rng rng(4242);
  for (const Polygon& p : polys) {
    EdgeGrid grid(p);
    for (int s = 0; s < 400; ++s) {
      Point q{rng.Uniform(spec.mbr.lo.x, spec.mbr.hi.x),
              rng.Uniform(spec.mbr.lo.y, spec.mbr.hi.y)};
      ASSERT_EQ(grid.ContainsPoint(q), ContainsPoint(p, q))
          << "q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(EdgeGrid, ClassifyMatchesExactClassify) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(0, 0, 10, 10);
  spec.nx = spec.ny = 3;
  spec.edge_depth = 3;
  spec.seed = 6;
  auto polys = JitteredPartition(spec);
  Rng rng(888);
  for (const Polygon& p : polys) {
    EdgeGrid grid(p);
    for (int s = 0; s < 300; ++s) {
      double x = rng.Uniform(-0.5, 9.5);
      double y = rng.Uniform(-0.5, 9.5);
      Rect rect = Rect::Of(x, y, x + rng.Uniform(0.01, 1.0),
                           y + rng.Uniform(0.01, 1.0));
      ASSERT_EQ(grid.Classify(rect), Classify(p, rect));
    }
  }
}

TEST(EdgeGrid, StarPolygonAgreement) {
  for (int iter = 0; iter < 10; ++iter) {
    Polygon p = RandomStarPolygon({5, 5}, 3.0, 30, 50 + iter);
    EdgeGrid grid(p);
    Rng rng(iter);
    for (int s = 0; s < 500; ++s) {
      Point q{rng.Uniform(1, 9), rng.Uniform(1, 9)};
      ASSERT_EQ(grid.ContainsPoint(q), ContainsPoint(p, q));
    }
  }
}

TEST(PolygonGen, PartitionTilesExactly) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(0, 0, 1, 1);
  spec.nx = 5;
  spec.ny = 4;
  spec.edge_depth = 3;
  spec.seed = 9;
  auto polys = JitteredPartition(spec);
  ASSERT_EQ(polys.size(), 20u);
  double total = 0;
  for (const Polygon& p : polys) total += p.Area();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PolygonGen, EveryInteriorPointInExactlyOnePolygon) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(-74.26, 40.49, -73.69, 40.92);
  spec.nx = spec.ny = 6;
  spec.edge_depth = 3;
  spec.seed = 10;
  auto polys = JitteredPartition(spec);
  Rng rng(11);
  int boundary_hits = 0;
  for (int s = 0; s < 2000; ++s) {
    Point q{rng.Uniform(spec.mbr.lo.x, spec.mbr.hi.x),
            rng.Uniform(spec.mbr.lo.y, spec.mbr.hi.y)};
    int owners = 0;
    for (const Polygon& p : polys) owners += ContainsPoint(p, q) ? 1 : 0;
    // Random points hit shared boundaries with probability ~0; owners == 2
    // would indicate a genuine overlap.
    if (owners != 1) ++boundary_hits;
  }
  EXPECT_EQ(boundary_hits, 0);
}

TEST(PolygonGen, VertexCountMatchesDepth) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(0, 0, 4, 4);
  spec.nx = spec.ny = 4;
  spec.edge_depth = 3;
  spec.seed = 12;
  auto polys = JitteredPartition(spec);
  // Interior polygons: 4 sides * 2^3 segments = 32 vertices.
  const Polygon& inner = polys[1 * 4 + 1];
  EXPECT_EQ(inner.num_vertices(), 32u);
}

TEST(PolygonGen, DeterministicAcrossCalls) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(0, 0, 2, 2);
  spec.nx = spec.ny = 3;
  spec.edge_depth = 4;
  spec.seed = 13;
  auto a = JitteredPartition(spec);
  auto b = JitteredPartition(spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rings()[0].size(), b[i].rings()[0].size());
    for (size_t v = 0; v < a[i].rings()[0].size(); ++v) {
      ASSERT_EQ(a[i].rings()[0][v], b[i].rings()[0][v]);
    }
  }
}

TEST(PolygonGen, PartitionPolygonsAreSimple) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(0, 0, 3, 3);
  spec.nx = spec.ny = 3;
  spec.edge_depth = 4;
  spec.seed = 21;
  auto polys = JitteredPartition(spec);
  for (const Polygon& p : polys) {
    ASSERT_TRUE(p.IsSimple());
  }
}

TEST(PolygonGen, OverlapDilationProducesOverlap) {
  PartitionSpec spec;
  spec.mbr = Rect::Of(0, 0, 2, 2);
  spec.nx = spec.ny = 2;
  spec.edge_depth = 2;
  spec.seed = 14;
  spec.overlap_dilation = 0.15;
  auto polys = JitteredPartition(spec);
  Rng rng(15);
  int multi_owner = 0;
  for (int s = 0; s < 3000; ++s) {
    Point q{rng.Uniform(0, 2), rng.Uniform(0, 2)};
    int owners = 0;
    for (const Polygon& p : polys) owners += ContainsPoint(p, q) ? 1 : 0;
    multi_owner += owners > 1 ? 1 : 0;
  }
  EXPECT_GT(multi_owner, 0);
}

}  // namespace
}  // namespace actjoin::geom
