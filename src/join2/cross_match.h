// Dual-trie spatial join: polygon×polygon crossmatch over two cell-trie
// indexes sharing the Hilbert leaf-cell id space.
//
// The point join probes one trie with one leaf cell at a time. The
// crossmatch instead descends *both* indexes' covering structures in
// tandem — the GiST spatial-join idea (a pending page-pair worklist that
// prunes disjoint subtrees and emits result pairs at the leaves) ported to
// the ACT setting, where an index's probe surface flattens into a sorted,
// pairwise-disjoint list of leaf-cell-id intervals, each carrying the
// polygon references of one covering cell:
//
//   1. IntervalView::FromIndex flattens the dataset's trie: its super
//      covering is already sorted and pairwise disjoint, so every covering
//      cell becomes one leaf-id interval as it stands. The flattened list
//      is then *coarsened* — adjacent intervals merge into aligned Hilbert
//      buckets under a per-polygon budget — because the point-join
//      covering is far deeper than a pairwise filter needs and the descent
//      pays per interval (see kDefaultCellsPerPolygon).
//   2. The descent works a pending worklist of interval-span pairs: a
//      span-pair whose bounding id ranges are disjoint is pruned wholesale
//      (the dual-tree win: one comparison discards |A|×|B| potential
//      pairs); a small-enough pair is merge-scanned, emitting the
//      cross-product of references for every overlapping interval pair as
//      *candidate* polygon pairs; anything else splits its larger span at
//      the midpoint.
//   3. Candidates deduplicate (one polygon pair can meet in many cells)
//      and refine through the polygon×polygon predicates in
//      geometry/poly_poly.h — accelerated by the per-polygon edge grids
//      the indexes already own — into the final verdicts. A candidate
//      whose two references are both interior cells skips refinement in
//      intersects mode: two overlapping interior cells already witness a
//      shared point.
//
// Candidate completeness: a point q in polygons a (dataset A) and b (B)
// has leaf(q) inside a's covering — so some interval referencing a
// contains leaf(q), and likewise for b. Those two intervals overlap at
// leaf(q), so (a, b) is emitted. The same holds for containment (A ⊇ B
// implies a shared point).
//
// Determinism contract (same as ShardedIndex::Join/JoinPairs): results
// and stats are byte-identical at every thread width. Phases: a serial
// breadth-first expansion fixes the top-level task list; tasks descend
// into per-task slots drained by a util::WorkStealingPool; slots merge in
// fixed task order; the deduplicated candidate list refines in fixed
// chunks whose outputs concatenate in chunk order. Output pairs are
// sorted ascending by (gid_a, gid_b) and unique — the same sorted-pairs
// ordering contract as act::ExecuteJoinPairs — so any two implementations
// of the same predicate are byte-comparable.

#ifndef ACTJOIN_JOIN2_CROSS_MATCH_H_
#define ACTJOIN_JOIN2_CROSS_MATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/edge_grid.h"
#include "geometry/polygon.h"
#include "service/sharded_index.h"
#include "util/perf_counters.h"
#include "util/work_stealing_pool.h"

namespace actjoin::join2 {

enum class CrossMatchMode : uint8_t {
  kIntersects = 0,  // closed regions share at least one point
  kContains = 1,    // A covers B (every point of B lies in closed A)
};

const char* ToString(CrossMatchMode mode);

struct CrossMatchOptions {
  CrossMatchMode mode = CrossMatchMode::kIntersects;
  /// Library-wide thread convention: 0 => util::DefaultThreadCount().
  /// Ignored when a pool with workers is passed (its width applies).
  int threads = 1;
};

/// Per-join instrumentation. Every counter is deterministic at every
/// thread width: the descent explores a fixed span-pair tree (only *who*
/// processes a subtree varies with width), so prune counts and depths are
/// tree invariants. Only `seconds` is wall time.
struct CrossMatchStats {
  /// Unique candidate polygon pairs emitted by the descent (post-dedup).
  uint64_t candidate_pairs = 0;
  /// Polygon-polygon predicate evaluations (refinement tests run).
  uint64_t refined_pairs = 0;
  /// Span-pairs discarded because their bounding id ranges were disjoint.
  uint64_t pruned_pairs = 0;
  /// Final output pairs.
  uint64_t result_pairs = 0;
  /// Deepest worklist item processed (top-level span-pair = depth 0).
  uint32_t max_depth = 0;
  double seconds = 0;

  friend bool operator==(const CrossMatchStats&,
                         const CrossMatchStats&) = default;
};

/// A ShardedIndex's probe surface flattened for the synchronized descent:
/// sorted, pairwise-disjoint leaf-cell-id intervals with the polygon
/// references of their covering cell, plus per-id access to the polygon
/// geometry and its edge-grid accelerator.
///
/// Holds pointers into the source index: the caller must keep the index
/// (typically an epoch-pinned registry snapshot) alive for the view's
/// lifetime.
class IntervalView {
 public:
  struct Ref {
    uint32_t gid = 0;       // polygon id
    bool interior = false;  // covering cell fully inside the polygon
  };
  struct Interval {
    uint64_t lo = 0;  // inclusive leaf-cell id range
    uint64_t hi = 0;
    uint32_t refs_begin = 0;  // [refs_begin, refs_end) into refs
    uint32_t refs_end = 0;
  };

  /// Default per-polygon interval budget for FromIndex's coarsening pass.
  /// ACT coverings are built for *point*-join precision — hundreds of
  /// cells per polygon — but the crossmatch descent pays per interval on
  /// both sides while its baseline (an R-tree MBR join) pays per polygon.
  /// The crossmatch only needs the covering as a candidate filter, so the
  /// view lifts cells to aligned ancestor buckets until roughly this many
  /// intervals per polygon remain. Completeness is preserved (a bucket
  /// contains its cells, so every cell-level overlap is still an
  /// interval-level overlap); interior flags survive exactly where a
  /// polygon's interior cells tile the merged bucket.
  static constexpr uint32_t kDefaultCellsPerPolygon = 16;

  /// `cells_per_polygon` bounds the coarsened view at roughly that many
  /// intervals per live polygon; 0 keeps the covering at full resolution.
  static IntervalView FromIndex(
      const service::ShardedIndex& index,
      uint32_t cells_per_polygon = kDefaultCellsPerPolygon);

  size_t size() const { return intervals_.size(); }
  const Interval& interval(size_t i) const { return intervals_[i]; }
  std::span<const Ref> refs(const Interval& iv) const {
    return {refs_.data() + iv.refs_begin,
            static_cast<size_t>(iv.refs_end - iv.refs_begin)};
  }

  /// Polygon-id-space size of the source index.
  size_t num_polygons() const { return num_polygons_; }
  /// Null when the source index has no polygons.
  const geom::Polygon* polygon(uint32_t gid) const {
    return index_ != nullptr ? &index_->polygons()[gid] : nullptr;
  }
  const geom::EdgeGrid* edge_grid(uint32_t gid) const {
    return index_ != nullptr ? &index_->classifier().edge_grid(gid) : nullptr;
  }

 private:
  /// Merges runs of intervals that share an aligned Hilbert bucket until
  /// the view holds at most ~cells_per_polygon intervals per live polygon.
  /// See kDefaultCellsPerPolygon for the rationale and exactness argument.
  void Coarsen(uint32_t cells_per_polygon);

  const act::PolygonIndex* index_ = nullptr;  // null: no polygons
  size_t num_polygons_ = 0;
  std::vector<Interval> intervals_;
  std::vector<Ref> refs_;
};

/// Wall time per crossmatch phase, microseconds — the request-tracing
/// seam, mirroring ShardedIndex::JoinPhaseTimes. pin is obtaining both
/// probe surfaces and is filled by whoever obtains them (CrossMatch leaves
/// it alone): CrossMatchIndexes times flattening + coarsening both views;
/// DatasetCrossMatcher times the snapshot pin + its per-epoch view-cache
/// lookup, which builds only on an epoch's first crossmatch. descend
/// covers the synchronized descent through candidate dedup, refine covers
/// predicate evaluation and output assembly.
struct CrossMatchPhaseTimes {
  double pin_us = 0;
  double descend_us = 0;
  double refine_us = 0;
  /// Hardware-counter deltas per phase from the `stage_perf` group (valid
  /// only when `counters_valid`); like ShardedIndex::JoinPhaseTimes, they
  /// count the calling thread only.
  bool counters_valid = false;
  util::StageCounterSample pin_counters;
  util::StageCounterSample descend_counters;
  util::StageCounterSample refine_counters;
};

/// Runs the synchronized descent of `a` against `b` and refines the
/// candidates. Returns sorted unique (gid_a, gid_b) pairs: in kIntersects
/// mode the pairs whose closed regions share a point; in kContains mode
/// the pairs where a's polygon covers b's. Deterministic at every width;
/// see the header comment. A non-null `pool` with workers supplies the
/// parallelism (the caller helps); otherwise opts.threads drives a
/// transient pool. A non-null `phases` receives the per-phase wall
/// breakdown (two util::StageLap laps — free); a non-null `stage_perf`
/// (an available group opened by the calling thread) additionally fills
/// the phase counter deltas, one group read() per phase boundary.
std::vector<std::pair<uint32_t, uint32_t>> CrossMatch(
    const IntervalView& a, const IntervalView& b,
    const CrossMatchOptions& opts, util::WorkStealingPool* pool = nullptr,
    CrossMatchStats* stats = nullptr, CrossMatchPhaseTimes* phases = nullptr,
    const util::StagePerfCounters* stage_perf = nullptr);

/// Convenience: builds both views, then runs CrossMatch. The view builds
/// are the pin phase of `phases`.
std::vector<std::pair<uint32_t, uint32_t>> CrossMatchIndexes(
    const service::ShardedIndex& a, const service::ShardedIndex& b,
    const CrossMatchOptions& opts, util::WorkStealingPool* pool = nullptr,
    CrossMatchStats* stats = nullptr, CrossMatchPhaseTimes* phases = nullptr,
    const util::StagePerfCounters* stage_perf = nullptr);

/// Index-free oracle: tests every polygon pair (MBR-pruned) with the same
/// predicates. `skip_a` / `skip_b` name global ids to exclude (removed
/// polygons). Output follows the same sorted-unique-pairs contract, so it
/// is byte-comparable with CrossMatch.
std::vector<std::pair<uint32_t, uint32_t>> BruteForceCrossMatch(
    const std::vector<geom::Polygon>& a, const std::vector<geom::Polygon>& b,
    CrossMatchMode mode, std::span<const uint32_t> skip_a = {},
    std::span<const uint32_t> skip_b = {});

}  // namespace actjoin::join2

#endif  // ACTJOIN_JOIN2_CROSS_MATCH_H_
