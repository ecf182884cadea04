// Polygons laid out for refinement: one contiguous record per polygon.
//
// A Polygon keeps its rings as separate vectors, so a containment test
// chases Polygon -> ring vector -> vertex array: three dependent misses
// before the first edge. A PolygonSlab copies each polygon into one record
// of its own,
//
//   mbr.lo, mbr.hi, {ring count}, then per ring {vertex count}, vertices
//
// in 16-byte words (the counts are bit-cast into a word's x), with one
// offset per polygon id pointing at it. Contains(id, p) is the exact join's
// refine step: the MBR reject, then geom::RingCrossings per ring, reading
// the record front to back. A polygon with no rings keeps the empty MBR,
// which rejects every point, so its (absent) vertices are never reached.
//
// The slab is append-only, like polygon ids: Append assigns the next id and
// leaves every earlier record as it was. It is derived from the polygons
// and never persisted.

#ifndef ACTJOIN_GEOMETRY_POLYGON_SLAB_H_
#define ACTJOIN_GEOMETRY_POLYGON_SLAB_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/pip.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace actjoin::geom {

class PolygonSlab {
 public:
  PolygonSlab() = default;
  explicit PolygonSlab(std::span<const Polygon> polygons);

  /// Appends one record; returns its id (the previous size()).
  uint32_t Append(const Polygon& poly);

  /// Number of records (== the number of polygon ids).
  size_t size() const { return offsets_.size(); }

  /// ST_Covers containment, identical to geom::ContainsPoint on the
  /// polygon appended as `id`.
  bool Contains(uint32_t id, const Point& p) const {
    const Point* r = words_.data() + offsets_[id];
    if (!(p.x >= r[0].x && p.x <= r[1].x && p.y >= r[0].y &&
          p.y <= r[1].y)) {
      return false;
    }
    const uint64_t rings = CountOf(r[2]);
    const Point* ring = r + kHeaderWords;
    int total = 0;
    for (uint64_t k = 0; k < rings; ++k) {
      const uint64_t n = CountOf(ring[0]);
      const int c = RingCrossings(ring + 1, n, p);
      if (c < 0) return true;  // boundary => covered (ST_Covers)
      total += c;
      ring += 1 + n;
    }
    return (total & 1) != 0;
  }

  /// Starts loading the first cache lines of record `id`.
  void Prefetch(uint32_t id) const {
    const char* r = reinterpret_cast<const char*>(words_.data() + offsets_[id]);
    for (int line = 0; line < kPrefetchLines; ++line) {
      __builtin_prefetch(r + 64 * line);
    }
  }

 private:
  // mbr.lo, mbr.hi, ring count.
  static constexpr uint32_t kHeaderWords = 3;
  // An 8-vertex single-ring record (census) spans 192 bytes.
  static constexpr int kPrefetchLines = 3;

  static Point CountWord(uint64_t n) { return {std::bit_cast<double>(n), 0}; }
  static uint64_t CountOf(const Point& w) {
    return std::bit_cast<uint64_t>(w.x);
  }

  std::vector<Point> words_;
  std::vector<uint32_t> offsets_;  // record start per id, in words
};

}  // namespace actjoin::geom

#endif  // ACTJOIN_GEOMETRY_POLYGON_SLAB_H_
