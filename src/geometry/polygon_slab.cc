#include "geometry/polygon_slab.h"

#include <limits>

#include "util/check.h"

namespace actjoin::geom {

PolygonSlab::PolygonSlab(std::span<const Polygon> polygons) {
  uint64_t words = 0;
  for (const Polygon& poly : polygons) {
    words += kHeaderWords + poly.rings().size() + poly.num_vertices();
  }
  words_.reserve(words);
  offsets_.reserve(polygons.size());
  for (const Polygon& poly : polygons) Append(poly);
}

uint32_t PolygonSlab::Append(const Polygon& poly) {
  const uint64_t words =
      kHeaderWords + poly.rings().size() + poly.num_vertices();
  ACT_CHECK_MSG(offsets_.size() < std::numeric_limits<uint32_t>::max(),
                "polygon slab ids overflow 32 bits");
  ACT_CHECK_MSG(words_.size() + words <= std::numeric_limits<uint32_t>::max(),
                "polygon slab offsets overflow 32 bits");
  const uint32_t id = static_cast<uint32_t>(offsets_.size());
  offsets_.push_back(static_cast<uint32_t>(words_.size()));
  words_.push_back(poly.mbr().lo);
  words_.push_back(poly.mbr().hi);
  words_.push_back(CountWord(poly.rings().size()));
  for (const Ring& ring : poly.rings()) {
    words_.push_back(CountWord(ring.size()));
    words_.insert(words_.end(), ring.begin(), ring.end());
  }
  return id;
}

}  // namespace actjoin::geom
