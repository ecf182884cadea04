#include "act/pipeline.h"

#include "util/parallel_for.h"
#include "util/timer.h"

namespace actjoin::act {

SuperCovering BuildSuperCovering(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const PolygonClassifier& classifier,
                                 const BuildOptions& opts,
                                 BuildTimings* timings) {
  ACT_CHECK(!polygons.empty());
  ACT_CHECK_MSG(polygons.size() <= kMaxPolygonId + uint64_t{1},
                "polygon ids are limited to 30 bits");
  int threads = opts.threads <= 0 ? util::DefaultThreadCount() : opts.threads;

  // Phase 1: individual polygon approximations, parallelized over polygons
  // (paper: "the computation of the individual coverings is parallelized
  // over the number of polygons").
  util::WallTimer timer;
  cover::CovererOptions cover_opts{opts.approx.max_covering_cells,
                                   opts.approx.max_covering_level, 0};
  cover::CovererOptions interior_opts{opts.approx.max_interior_cells,
                                      opts.approx.max_interior_level, 0};
  std::vector<std::vector<geo::CellId>> coverings(polygons.size());
  std::vector<std::vector<geo::CellId>> interiors(polygons.size());
  util::ParallelFor(polygons.size(), threads, /*batch=*/1,
                    [&](uint64_t begin, uint64_t end, int) {
                      for (uint64_t i = begin; i < end; ++i) {
                        cover::Coverer coverer(classifier.edge_grid(
                                                   static_cast<uint32_t>(i)),
                                               grid);
                        coverings[i] = coverer.Covering(cover_opts);
                        interiors[i] = coverer.InteriorCovering(interior_opts);
                      }
                    });
  if (timings != nullptr) {
    timings->individual_coverings_s = timer.ElapsedSeconds();
  }

  // Phase 2: serial merge into the super covering (Listing 1): all
  // coverings first, then all interior coverings.
  timer.Restart();
  SuperCoveringBuilder builder;
  for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
    builder.AddCovering(coverings[pid], pid, /*interior=*/false);
  }
  for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
    builder.AddCovering(interiors[pid], pid, /*interior=*/true);
  }
  SuperCovering covering = builder.Build();
  if (timings != nullptr) timings->super_covering_s = timer.ElapsedSeconds();

  // Phase 3: optional precision-bound refinement (Sec. 3.2).
  if (opts.precision_bound_m.has_value()) {
    timer.Restart();
    covering = RefineToPrecision(covering, *opts.precision_bound_m, grid,
                                 classifier);
    if (timings != nullptr) timings->refine_s = timer.ElapsedSeconds();
  }
  return covering;
}

PolygonIndex PolygonIndex::Build(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const BuildOptions& opts) {
  PolygonIndex index(grid);
  index.polygons_ = polygons;
  index.slab_ = geom::PolygonSlab(index.polygons_);
  index.opts_ = opts;
  index.RebuildClassifier();
  index.covering_ = BuildSuperCovering(index.polygons_, index.grid_,
                                       *index.classifier_, opts,
                                       &index.timings_);
  index.Reencode();
  return index;
}

PolygonIndex PolygonIndex::FromComponents(std::vector<geom::Polygon> polygons,
                                          const geo::Grid& grid,
                                          const BuildOptions& opts,
                                          SuperCovering covering) {
  PolygonIndex index(grid);
  index.polygons_ = std::move(polygons);
  index.slab_ = geom::PolygonSlab(index.polygons_);
  index.opts_ = opts;
  index.covering_ = std::move(covering);
  index.RebuildClassifier();
  index.Reencode();
  return index;
}

void PolygonIndex::RebuildClassifier() {
  int threads =
      opts_.threads <= 0 ? util::DefaultThreadCount() : opts_.threads;
  classifier_ =
      std::make_unique<PolygonClassifier>(polygons_, grid_, threads);
}

uint32_t PolygonIndex::AddPolygons(
    std::span<const geom::Polygon> new_polygons) {
  uint32_t first_id = static_cast<uint32_t>(polygons_.size());
  ACT_CHECK_MSG(polygons_.size() + new_polygons.size() <=
                    kMaxPolygonId + uint64_t{1},
                "polygon ids are limited to 30 bits");
  for (const geom::Polygon& p : new_polygons) {
    polygons_.push_back(p);
    slab_.Append(p);
  }
  // The owned vector may have reallocated; the classifier's edge grids
  // reference elements, so rebuild it over the full set.
  RebuildClassifier();

  // Coverings for the new polygons only, in parallel.
  int threads =
      opts_.threads <= 0 ? util::DefaultThreadCount() : opts_.threads;
  cover::CovererOptions cover_opts{opts_.approx.max_covering_cells,
                                   opts_.approx.max_covering_level, 0};
  cover::CovererOptions interior_opts{opts_.approx.max_interior_cells,
                                      opts_.approx.max_interior_level, 0};
  size_t n_new = new_polygons.size();
  std::vector<std::vector<geo::CellId>> coverings(n_new);
  std::vector<std::vector<geo::CellId>> interiors(n_new);
  util::ParallelFor(n_new, threads, /*batch=*/1,
                    [&](uint64_t begin, uint64_t end, int) {
                      for (uint64_t i = begin; i < end; ++i) {
                        uint32_t pid = first_id + static_cast<uint32_t>(i);
                        cover::Coverer coverer(classifier_->edge_grid(pid),
                                               grid_);
                        coverings[i] = coverer.Covering(cover_opts);
                        interiors[i] = coverer.InteriorCovering(interior_opts);
                      }
                    });

  // Insert into the existing covering one cell at a time — the runtime
  // update path the paper sketches; conflict resolution handles overlaps
  // with previously indexed polygons.
  SuperCoveringBuilder builder = ToBuilder(covering_);
  for (size_t i = 0; i < n_new; ++i) {
    uint32_t pid = first_id + static_cast<uint32_t>(i);
    builder.AddCovering(coverings[i], pid, /*interior=*/false);
  }
  for (size_t i = 0; i < n_new; ++i) {
    uint32_t pid = first_id + static_cast<uint32_t>(i);
    builder.AddCovering(interiors[i], pid, /*interior=*/true);
  }
  covering_ = builder.Build();
  if (opts_.precision_bound_m.has_value()) {
    covering_ = RefineToPrecision(covering_, *opts_.precision_bound_m, grid_,
                                  *classifier_);
  }
  Reencode();
  return first_id;
}

void PolygonIndex::RemovePolygons(std::span<const uint32_t> polygon_ids) {
  std::vector<bool> removed(polygons_.size(), false);
  for (uint32_t pid : polygon_ids) {
    ACT_CHECK(pid < polygons_.size());
    removed[pid] = true;
  }
  std::vector<geo::CellId> cells;
  std::vector<RefList> refs;
  cells.reserve(covering_.size());
  refs.reserve(covering_.size());
  for (size_t i = 0; i < covering_.size(); ++i) {
    RefList kept;
    for (const PolygonRef& r : covering_.refs(i)) {
      if (!removed[r.polygon_id]) kept.push_back(r);
    }
    if (kept.empty()) continue;  // cell no longer references anything
    cells.push_back(covering_.cell(i));
    refs.push_back(std::move(kept));
  }
  covering_ = SuperCovering(std::move(cells), std::move(refs));
  Reencode();  // also compacts the lookup table (paper: periodic reorg)
}

void PolygonIndex::Reencode() {
  util::WallTimer timer;
  encoded_ = Encode(covering_);
  timings_.encode_s = timer.ElapsedSeconds();
  timer.Restart();
  trie_ = std::make_unique<AdaptiveCellTrie>(encoded_, opts_.act);
  timings_.trie_build_s = timer.ElapsedSeconds();
}

TrainStats PolygonIndex::Train(const JoinInput& training_points,
                               const TrainOptions& opts) {
  SuperCoveringBuilder builder = ToBuilder(covering_);
  TrainStats stats =
      TrainOnPoints(&builder, training_points, *classifier_, opts);
  covering_ = builder.Build();
  Reencode();
  return stats;
}

}  // namespace actjoin::act
