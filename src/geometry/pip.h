// Point-in-polygon tests and polygon/rectangle classification.
//
// ContainsPoint is the "expensive refinement" of the paper: the classic
// ray-tracing (crossing-number) algorithm, O(edges). Its per-ring step,
// RingCrossings, is the one containment predicate: ACT's exact join and the
// R-tree baseline run it over geom::PolygonSlab records, ContainsPoint runs
// it over a Polygon's rings, so the comparison is apples to apples.
// Classify() is the build-time primitive behind coverings, precision
// refinement, and index training: it decides whether a cell rectangle is
// outside, on the boundary of, or fully inside a polygon.

#ifndef ACTJOIN_GEOMETRY_PIP_H_
#define ACTJOIN_GEOMETRY_PIP_H_

#include <cstddef>

#include "geometry/polygon.h"
#include "geometry/rect.h"

namespace actjoin::geom {

/// Crossing-number contribution of the ring v[0..n) (open, n >= 1): -1 if p
/// lies on one of its edges, else the number of edges the ray from p to +x
/// crosses. One cross product per edge decides both, with no division; it
/// is the product Orientation and OnSegment use, so the boundary test
/// matches OnBoundary exactly.
int RingCrossings(const Point* v, size_t n, const Point& p);

/// ST_Covers semantics: returns true for interior *and* boundary points.
/// Even-odd (crossing number) rule across all rings.
bool ContainsPoint(const Polygon& poly, const Point& p);

/// Winding-number variant (non-zero rule). For the simple disjoint
/// partitions used in this repo the two rules agree; used as a test oracle.
bool WindingContainsPoint(const Polygon& poly, const Point& p);

/// True iff p lies on some edge of the polygon.
bool OnBoundary(const Polygon& poly, const Point& p);

/// Relation of a closed rectangle to the polygon's interior.
enum class RegionRelation {
  kDisjoint,    // no interior overlap
  kIntersects,  // rectangle straddles the boundary
  kContained,   // rectangle fully inside the polygon (a "true hit" cell)
};

RegionRelation Classify(const Polygon& poly, const Rect& rect);

/// Distance in meters from a geographic point (x=lng, y=lat, degrees) to
/// the polygon; 0 if the point is covered. Uses the local equirectangular
/// metric. This is how the approximate join's precision bound is validated.
double DistanceToPolygonMeters(const Polygon& poly, const Point& p);

}  // namespace actjoin::geom

#endif  // ACTJOIN_GEOMETRY_PIP_H_
