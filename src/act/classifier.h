// PolygonClassifier: cell-vs-polygon relation tests for a whole polygon set.
//
// Owns one edge-grid accelerator per polygon (built in parallel, reused by
// covering computation, precision refinement, and index training). This is
// build-time machinery only: the join kernel's refine pass (act/join.h)
// still runs the O(edges) crossing-number test on each candidate, from its
// geom::PolygonSlab record, to keep the paper's cost model.

#ifndef ACTJOIN_ACT_CLASSIFIER_H_
#define ACTJOIN_ACT_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "act/super_covering.h"
#include "geo/grid.h"
#include "geometry/edge_grid.h"
#include "geometry/polygon.h"
#include "util/parallel_for.h"

namespace actjoin::act {

class PolygonClassifier final : public CellClassifier {
 public:
  PolygonClassifier(const std::vector<geom::Polygon>& polygons,
                    const geo::Grid& grid, int threads = 1)
      : polygons_(&polygons), grid_(&grid) {
    edge_grids_.resize(polygons.size());
    util::ParallelFor(
        polygons.size(), threads, /*batch=*/1,
        [&](uint64_t begin, uint64_t end, int) {
          for (uint64_t i = begin; i < end; ++i) {
            edge_grids_[i] = std::make_unique<geom::EdgeGrid>(polygons[i]);
          }
        });
  }

  geom::RegionRelation Classify(uint32_t polygon_id,
                                const geo::CellId& cell) const override {
    geo::LatLngRect r = grid_->CellRect(cell);
    return edge_grids_[polygon_id]->Classify(
        geom::Rect::Of(r.lng_lo, r.lat_lo, r.lng_hi, r.lat_hi));
  }

  const geom::EdgeGrid& edge_grid(uint32_t polygon_id) const {
    return *edge_grids_[polygon_id];
  }

  const std::vector<geom::Polygon>& polygons() const { return *polygons_; }
  const geo::Grid& grid() const { return *grid_; }

 private:
  const std::vector<geom::Polygon>* polygons_;
  const geo::Grid* grid_;
  std::vector<std::unique_ptr<geom::EdgeGrid>> edge_grids_;
};

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_CLASSIFIER_H_
