#include "act/join.h"

#include "geometry/pip.h"

namespace actjoin::act {

std::vector<std::pair<uint64_t, uint32_t>> BruteForceJoinPairs(
    const JoinInput& input, const std::vector<geom::Polygon>& polygons) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  for (uint64_t p = 0; p < input.size(); ++p) {
    for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
      if (geom::ContainsPoint(polygons[pid], input.points[p])) {
        out.emplace_back(p, pid);
      }
    }
  }
  return out;
}

}  // namespace actjoin::act
