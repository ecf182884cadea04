// End-to-end index construction: the library's main entry point.
//
// Mirrors the paper's build phase: compute per-polygon coverings and
// interior coverings (parallelized over polygons), merge them serially into
// the super covering (Listing 1), optionally refine boundary cells to a
// precision bound (Sec. 3.2) and/or train with historical points
// (Sec. 3.3.1), then encode and load the result into an Adaptive Cell Trie.
//
// Typical use:
//   geo::Grid grid;
//   act::PolygonIndex index = act::PolygonIndex::Build(polygons, grid, opts);
//   act::JoinStats stats = index.Join(points, {.mode = JoinMode::kExact});

#ifndef ACTJOIN_ACT_PIPELINE_H_
#define ACTJOIN_ACT_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "act/act.h"
#include "act/classifier.h"
#include "act/join.h"
#include "act/super_covering.h"
#include "act/trainer.h"
#include "cover/coverer.h"
#include "geo/grid.h"
#include "geometry/polygon.h"
#include "geometry/polygon_slab.h"

namespace actjoin::act {

struct BuildOptions {
  ApproximationOptions approx;   // covering budgets (paper Sec. 4 defaults)
  /// If set, refine to this precision bound in meters (approximate mode
  /// indexes; 60/15/4 m in the paper). Unset => coarse index for the exact
  /// join.
  std::optional<double> precision_bound_m;
  ActOptions act;                // fanout etc.
  /// Library-wide thread convention (same as JoinOptions.threads):
  /// 0 => util::DefaultThreadCount() (hardware concurrency), positive
  /// values are taken literally.
  int threads = 0;
};

struct BuildTimings {
  double individual_coverings_s = 0;  // parallel phase
  double super_covering_s = 0;        // serial merge (paper Table 1)
  double refine_s = 0;
  double encode_s = 0;
  double trie_build_s = 0;
};

/// A fully built polygon index. Owns a copy of the polygons, so the index
/// can outlive (and extend) the input set, and their geom::PolygonSlab, the
/// layout the exact join refines from (one record per polygon id).
class PolygonIndex {
 public:
  static PolygonIndex Build(const std::vector<geom::Polygon>& polygons,
                            const geo::Grid& grid, const BuildOptions& opts);

  /// Reassembles an index from persisted components (see serialization.h):
  /// the covering is taken as-is; classifier, lookup table, and trie are
  /// rebuilt.
  static PolygonIndex FromComponents(std::vector<geom::Polygon> polygons,
                                     const geo::Grid& grid,
                                     const BuildOptions& opts,
                                     SuperCovering covering);

  /// Trains with historical points and rebuilds the trie (Sec. 3.3.1).
  TrainStats Train(const JoinInput& training_points,
                   const TrainOptions& opts = {});

  // --- Snapshot support (src/service/ serving layer) ------------------------

  /// Cheap independent copy: reuses the already-computed super covering
  /// (the expensive pipeline phase) and re-derives only classifier,
  /// encoding, and trie. The clone shares nothing with the original, so an
  /// updater can Clone a published snapshot, apply AddPolygons /
  /// RemovePolygons / Train to the clone, and publish the result while
  /// readers keep probing the original.
  PolygonIndex Clone() const {
    return FromComponents(polygons_, grid_, opts_, covering_);
  }

  /// Clone() boxed for the snapshot registry (see service/index_registry.h).
  std::shared_ptr<const PolygonIndex> CloneShared() const {
    return std::make_shared<const PolygonIndex>(Clone());
  }

  // --- Updates (the paper's Sec. 3.1.2 outlook: "the same procedure could
  // be used to add new polygons at runtime") ---------------------------------

  /// Adds polygons to the live index: their coverings are computed and
  /// inserted into the mutable super covering one by one (with the usual
  /// conflict resolution), the precision bound — if any — is re-applied,
  /// and the immutable trie is rebuilt. Returns the first id assigned.
  /// Cost: covering work is proportional to the new polygons; classifier
  /// and trie rebuild are proportional to the whole set.
  uint32_t AddPolygons(std::span<const geom::Polygon> new_polygons);

  /// Removes polygons from the join result: their references disappear
  /// from the covering (cells left referencing nothing are dropped) and
  /// the trie is rebuilt. Ids stay stable; removed ids are never returned
  /// again. The paper notes removal "would follow the same logic" plus
  /// periodic lookup-table compaction — the re-encode here compacts.
  void RemovePolygons(std::span<const uint32_t> polygon_ids);

  JoinStats Join(const JoinInput& points, const JoinOptions& opts) const {
    return ExecuteJoin(*trie_, encoded_.table, points, slab_, opts);
  }

  std::vector<std::pair<uint64_t, uint32_t>> JoinPairs(const JoinInput& points,
                                                       JoinMode mode) const {
    return ExecuteJoinPairs(*trie_, encoded_.table, points, slab_, mode);
  }

  const AdaptiveCellTrie& trie() const { return *trie_; }
  const SuperCovering& covering() const { return covering_; }
  const EncodedCovering& encoded() const { return encoded_; }
  const PolygonClassifier& classifier() const { return *classifier_; }
  const std::vector<geom::Polygon>& polygons() const { return polygons_; }
  const geom::PolygonSlab& slab() const { return slab_; }
  const geo::Grid& grid() const { return grid_; }
  const BuildOptions& options() const { return opts_; }
  const BuildTimings& timings() const { return timings_; }

  /// Index memory: trie nodes + lookup table.
  uint64_t MemoryBytes() const {
    return trie_->stats().memory_bytes + encoded_.table.SizeBytes();
  }

 private:
  explicit PolygonIndex(const geo::Grid& grid) : grid_(grid) {}

  void RebuildClassifier();
  void Reencode();

  std::vector<geom::Polygon> polygons_;
  geom::PolygonSlab slab_;  // appended with polygons_; ids never reused
  geo::Grid grid_;
  BuildOptions opts_;
  std::unique_ptr<PolygonClassifier> classifier_;
  SuperCovering covering_;
  EncodedCovering encoded_;
  std::unique_ptr<AdaptiveCellTrie> trie_;
  BuildTimings timings_;
};

/// Lower-level helper used by benchmarks that index the same super covering
/// with several data structures: build just the (optionally refined) super
/// covering plus timings.
SuperCovering BuildSuperCovering(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const PolygonClassifier& classifier,
                                 const BuildOptions& opts,
                                 BuildTimings* timings);

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_PIPELINE_H_
