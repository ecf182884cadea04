// Per-polygon uniform edge bucketing: a build-time accelerator for the
// O(edges) predicates in pip.h.
//
// Covering computation, precision refinement (paper Sec. 3.2), and index
// training (Sec. 3.3.1) classify millions of cell rectangles against
// polygons; a raw scan over a complex borough boundary (hundreds of edges)
// per cell would dominate the build. The grid buckets edges and additionally
// records, per bucket, whether the bucket center is inside the polygon, so
// containment of any query point can be decided by crossing-parity against
// the local bucket's edges only — the same trick S2ShapeIndex uses.
//
// Join-time refinement deliberately does NOT use this class: the paper's
// exact join performs the classic O(edges) PIP test, and the benchmarks must
// preserve that cost model. The blocked join kernel (act/join.h) runs that
// test over every edge of the candidate, from its geom::PolygonSlab record
// (see polygon_slab.h).

#ifndef ACTJOIN_GEOMETRY_EDGE_GRID_H_
#define ACTJOIN_GEOMETRY_EDGE_GRID_H_

#include <cstdint>
#include <vector>

#include "geometry/pip.h"
#include "geometry/polygon.h"

namespace actjoin::geom {

class EdgeGrid {
 public:
  /// Builds a grid over poly.mbr(); resolution defaults to roughly one
  /// bucket per edge (clamped to [1, 256] per axis).
  explicit EdgeGrid(const Polygon& poly, int resolution = 0);

  const Polygon& polygon() const { return *poly_; }

  /// Equivalent to geom::ContainsPoint but O(edges per bucket).
  bool ContainsPoint(const Point& p) const;

  /// Equivalent to geom::Classify but examining only nearby edges.
  RegionRelation Classify(const Rect& rect) const;

  /// Total number of (edge, bucket) incidences; exposed for tests.
  size_t IncidenceCount() const;

 private:
  struct Bucket {
    std::vector<uint32_t> edges;
    Point center;
    bool center_inside = false;
  };

  int BucketX(double x) const;
  int BucketY(double y) const;
  const Bucket& BucketAt(const Point& p) const;

  // Counts proper crossings of segment [a, b] with the bucket's edges;
  // returns false in *ok if a degenerate configuration (touching a vertex or
  // collinear overlap) makes the parity unreliable.
  int CountCrossings(const Bucket& b, const Point& a, const Point& p,
                     bool* ok) const;

  const Polygon* poly_;
  Rect bounds_;
  int nx_ = 1, ny_ = 1;
  double inv_w_ = 0, inv_h_ = 0;
  std::vector<Bucket> buckets_;
};

}  // namespace actjoin::geom

#endif  // ACTJOIN_GEOMETRY_EDGE_GRID_H_
