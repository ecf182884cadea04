#include "geometry/pip.h"

#include <algorithm>
#include <cmath>

#include "geometry/segment.h"

namespace actjoin::geom {

namespace {

// Meters-per-degree constants duplicated from geo/latlng.h to keep the
// geometry kernel free of the geo dependency.
constexpr double kMetersPerDegreeLat = 110574.0;
constexpr double kMetersPerDegreeLngEquator = 111320.0;
constexpr double kDegToRad = 0.017453292519943295;

}  // namespace

int RingCrossings(const Point* v, size_t n, const Point& p) {
  int crossings = 0;
  Point a = v[n - 1];
  for (size_t k = 0; k < n; ++k) {
    const Point b = v[k];
    // Orientation(a, b, p)'s product: zero when p is on the edge's line,
    // and its sign says which side of the edge p is on.
    const double cross = (b - a).Cross(p - a);
    if (cross == 0 && p.x >= std::min(a.x, b.x) &&
        p.x <= std::max(a.x, b.x) && p.y >= std::min(a.y, b.y) &&
        p.y <= std::max(a.y, b.y)) {
      return -1;
    }
    // An edge whose y-span straddles p.y (half-open, so a vertex on the ray
    // counts once) crosses the ray to +x strictly right of p iff p lies
    // left of the edge taken upward: the sign of the cross product, flipped
    // for a downward edge, is the sign of the crossing's x minus p.x.
    if ((a.y > p.y) != (b.y > p.y) && (cross > 0) == (b.y > a.y)) {
      ++crossings;
    }
    a = b;
  }
  return crossings;
}

bool ContainsPoint(const Polygon& poly, const Point& p) {
  if (!poly.mbr().Contains(p)) return false;
  int total = 0;
  for (const Ring& ring : poly.rings()) {
    int c = RingCrossings(ring.data(), ring.size(), p);
    if (c < 0) return true;  // boundary => covered (ST_Covers)
    total += c;
  }
  return (total & 1) != 0;
}

bool WindingContainsPoint(const Polygon& poly, const Point& p) {
  if (!poly.mbr().Contains(p)) return false;
  int winding = 0;
  for (const Ring& ring : poly.rings()) {
    size_t n = ring.size();
    for (size_t k = 0; k < n; ++k) {
      const Point& a = ring[k];
      const Point& b = ring[(k + 1) % n];
      if (OnSegment(a, b, p)) return true;
      if (a.y <= p.y) {
        if (b.y > p.y && Orientation(a, b, p) > 0) ++winding;
      } else {
        if (b.y <= p.y && Orientation(a, b, p) < 0) --winding;
      }
    }
  }
  return winding != 0;
}

bool OnBoundary(const Polygon& poly, const Point& p) {
  for (const Ring& ring : poly.rings()) {
    size_t n = ring.size();
    for (size_t k = 0; k < n; ++k) {
      if (OnSegment(ring[k], ring[(k + 1) % n], p)) return true;
    }
  }
  return false;
}

RegionRelation Classify(const Polygon& poly, const Rect& rect) {
  if (!poly.mbr().Intersects(rect)) return RegionRelation::kDisjoint;
  uint32_t n = poly.num_edges();
  for (uint32_t e = 0; e < n; ++e) {
    auto [a, b] = poly.Edge(e);
    if (SegmentIntersectsRect(a, b, rect)) return RegionRelation::kIntersects;
  }
  // No edge touches the rectangle, so it lies entirely on one side of the
  // boundary; the center decides which.
  return ContainsPoint(poly, rect.Center()) ? RegionRelation::kContained
                                            : RegionRelation::kDisjoint;
}

double DistanceToPolygonMeters(const Polygon& poly, const Point& p) {
  if (ContainsPoint(poly, p)) return 0;
  double mx = kMetersPerDegreeLngEquator * std::cos(p.y * kDegToRad);
  double my = kMetersPerDegreeLat;
  double best_sq = std::numeric_limits<double>::max();
  uint32_t n = poly.num_edges();
  for (uint32_t e = 0; e < n; ++e) {
    auto [a, b] = poly.Edge(e);
    // Point-to-segment distance in the local metric around p.
    double ax = (a.x - p.x) * mx, ay = (a.y - p.y) * my;
    double bx = (b.x - p.x) * mx, by = (b.y - p.y) * my;
    double dx = bx - ax, dy = by - ay;
    double len_sq = dx * dx + dy * dy;
    double t = 0;
    if (len_sq > 0) {
      t = std::clamp(-(ax * dx + ay * dy) / len_sq, 0.0, 1.0);
    }
    double cx = ax + t * dx, cy = ay + t * dy;
    best_sq = std::min(best_sq, cx * cx + cy * cy);
  }
  return std::sqrt(best_sq);
}

}  // namespace actjoin::geom
