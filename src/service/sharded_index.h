// Spatially sharded polygon index: N per-shard Adaptive Cell Tries behind
// a Hilbert-range router.
//
// A single trie's probe phase is bound by memory access latencies (paper
// Sec. 4.1); past one socket's memory bandwidth the way to scale is to
// shard. Cell ids already linearize space along a Hilbert curve, so a
// shard is simply a contiguous interval of the 64-bit id space: the id
// space is split into num_shards equal intervals, each polygon is assigned
// to every shard its (coarse) covering intersects, and each shard builds
// its own act::PolygonIndex over just its polygons.
//
// A join routes each point to exactly one shard by its leaf cell id —
// bucket-sorting the batch into shard order (which is Hilbert order, so
// per-shard probes stay spatially local) — then decomposes the routed
// batch into coarse (shard, sub-range) task units drained by a
// work-stealing pool, so the whole thread budget converges on whichever
// shard is hot instead of idling on a static per-shard slice (see
// docs/executor.md), and merges per-task results back to global polygon
// ids in fixed shard-then-range order. Because every polygon
// whose covering reaches a shard is indexed there, the exact-mode join is
// byte-identical to one index over the full set (both equal the PIP ground
// truth). Approximate-mode results keep the precision bound but may emit
// *fewer* false positives than the unsharded index: a point is only tested
// against the covering cells of its own shard.
//
// A ShardedIndex is immutable after Build, making it a snapshot type for
// SnapshotRegistry / JoinService hot swaps. Live mutation therefore never
// edits a published index: ApplyDelta clones only the shards a delta
// touches (clone-on-write at shard granularity — the covering, the
// expensive build phase, is reused and only extended for the new
// polygons), shares every untouched shard's trie with the base snapshot,
// and returns a new index to publish through the registry swap.

#ifndef ACTJOIN_SERVICE_SHARDED_INDEX_H_
#define ACTJOIN_SERVICE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "act/join.h"
#include "act/pipeline.h"
#include "geo/grid.h"
#include "geometry/polygon.h"
#include "util/perf_counters.h"
#include "util/work_stealing_pool.h"

namespace actjoin::service {

struct ShardingOptions {
  /// Number of Hilbert-range shards; clamped to >= 1. One shard reproduces
  /// the unsharded index behind the same routing interface.
  int num_shards = 1;
  /// Per-shard index build configuration (precision bound, fanout, ...).
  act::BuildOptions build;
  /// Cell budget for the coarse per-polygon covering used only to decide
  /// which shards a polygon belongs to. Small on purpose: routing coverings
  /// are conservative, so a too-coarse covering only over-assigns.
  int routing_cover_cells = 8;
};

class ShardedIndex {
 public:
  /// Builds num_shards per-shard indexes over the polygons. Polygon ids in
  /// join results are positions in `polygons`, exactly as with
  /// act::PolygonIndex::Build over the same vector.
  static ShardedIndex Build(const std::vector<geom::Polygon>& polygons,
                            const geo::Grid& grid,
                            const ShardingOptions& opts);

  /// One persisted shard: the (possibly null, for an empty shard) per-shard
  /// index plus its local-to-global polygon id map. The unit the snapshot
  /// store serializes. Shared ownership is what makes delta application
  /// cheap: an untouched shard's index is aliased into the next snapshot
  /// instead of copied.
  struct ShardParts {
    std::shared_ptr<const act::PolygonIndex> index;  // null when empty
    std::vector<uint32_t> global_ids;                // local pid -> global
  };

  /// Reassembles an index from persisted shards (src/store/): the inverse
  /// of decomposing via shard_index()/shard_polygon_ids(). `parts.size()`
  /// becomes the shard count and must match opts.num_shards (the routing
  /// function is derived from it); per-shard coverings are taken as-is, so
  /// no covering work is redone — that is the entire point of the store.
  /// Joins against the result are byte-identical to the saved index.
  static ShardedIndex FromParts(const geo::Grid& grid,
                                const ShardingOptions& opts,
                                size_t num_polygons,
                                std::vector<ShardParts> parts);

  /// One live mutation against a published snapshot: polygons to append
  /// (assigned the next global ids, in order) and/or global ids to remove.
  /// Ids are assign-only — a removed id keeps its slot (zero counts
  /// forever) and is never reused, exactly as with
  /// act::PolygonIndex::RemovePolygons.
  struct Delta {
    std::vector<geom::Polygon> add;
    std::vector<uint32_t> remove;  // global polygon ids, < num_polygons()
  };

  /// ApplyDelta's output: the next snapshot plus the global id assigned to
  /// the first added polygon (the rest follow contiguously).
  struct DeltaResult {
    std::shared_ptr<const ShardedIndex> index;
    uint32_t first_added_id = 0;
  };

  /// Applies a delta copy-on-write: shards whose polygon set changes are
  /// cloned (reusing their already-computed coverings; only the added
  /// polygons' coverings are computed, which is what makes delta-apply ≪ a
  /// full rebuild) and re-encoded; untouched shards are shared with
  /// `base`. The result is a fully independent snapshot to publish through
  /// SnapshotRegistry; `base` is never modified and in-flight joins
  /// against it are unaffected. Incremental insertion and fresh build
  /// produce the same covering, so joins against the result are
  /// byte-identical to a from-scratch Build over the final polygon set
  /// with the same id assignment. Ids in `delta.remove` must be <
  /// base.num_polygons() (checked).
  static DeltaResult ApplyDelta(const ShardedIndex& base, const Delta& delta);

  /// Wall time per executor phase for one Join call, microseconds. The
  /// request-tracing seam: route covers bucket-sort + task decomposition,
  /// probe covers the work-stealing drain (wall, not CPU-sum), merge
  /// covers the fixed-order remap back to global ids.
  struct JoinPhaseTimes {
    double route_us = 0;
    double probe_us = 0;
    double merge_us = 0;
    /// Hardware-counter deltas per phase, from the caller-supplied
    /// StagePerfCounters group (valid only when `counters_valid`). The
    /// group counts the *calling* thread, so for a pool-parallel probe the
    /// probe delta covers this thread's share of the drain — the stealing
    /// workers' cycles are not attributed (documented limitation; the
    /// wall/CPU distinction the probe stage time already carries).
    bool counters_valid = false;
    util::StageCounterSample route_counters;
    util::StageCounterSample probe_counters;
    util::StageCounterSample merge_counters;
  };

  /// Routed equivalent of act::PolygonIndex::Join: bucket-sorts the batch
  /// by shard, splits each shard's slice into (shard, sub-range) task
  /// units, and drains them work-stealing-wide across the whole thread
  /// budget (opts.threads; library convention 0 => DefaultThreadCount()).
  /// Stats are merged in fixed shard-then-range order with counts remapped
  /// to global polygon ids, so results are byte-identical to the unsharded
  /// index regardless of which thread ran which task.
  ///
  /// This is the one executor; the tasks go through util::RunTasks. When
  /// `pool` has workers they execute the tasks, the calling thread helps,
  /// and the pool's width replaces opts.threads entirely — budget and task
  /// granularity both come from util::EffectiveWidth(pool, ...). A null or
  /// worker-less pool spawns a transient pool of opts.threads for this
  /// call; width 1, or a batch that yields one task, runs inline.
  ///
  /// A non-null `phases` receives the per-phase wall breakdown; timing is
  /// three util::StageLap laps, so passing it costs nothing measurable. A
  /// non-null `stage_perf` (an available per-thread group opened by the
  /// calling thread) additionally fills the phase counter deltas — one
  /// group read() per phase boundary.
  act::JoinStats Join(const act::JoinInput& input, const act::JoinOptions& opts,
                      util::WorkStealingPool* pool = nullptr,
                      JoinPhaseTimes* phases = nullptr,
                      const util::StagePerfCounters* stage_perf = nullptr) const;

  /// Routed equivalent of act::PolygonIndex::JoinPairs: sorted (point
  /// index, global polygon id) pairs. Carries the same ordering contract
  /// as act::ExecuteJoinPairs — ascending by (point index, polygon id),
  /// duplicate-free — so results from any pair producer with that
  /// contract (including join2::CrossMatch pair output) are
  /// byte-comparable. `threads` follows the library
  /// convention (0 => DefaultThreadCount()); the default 1 preserves the
  /// historical single-threaded behavior. Output is identical at every
  /// width: per-task pair lists are concatenated in fixed shard-then-range
  /// order and the final sort canonicalizes.
  std::vector<std::pair<uint64_t, uint32_t>> JoinPairs(
      const act::JoinInput& input, act::JoinMode mode, int threads = 1,
      util::WorkStealingPool* pool = nullptr) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t num_polygons() const { return num_polygons_; }

  /// Shard responsible for a leaf cell id.
  int ShardOf(uint64_t leaf_cell_id) const;

  /// Per-shard index; null for a shard with no polygons (its points cannot
  /// match anything and short-circuit in the router).
  const act::PolygonIndex* shard_index(int s) const {
    return shards_[s].index.get();
  }
  /// Global polygon ids indexed by shard `s` (shard-local id -> global id).
  const std::vector<uint32_t>& shard_polygon_ids(int s) const {
    return shards_[s].global_ids;
  }

  uint64_t MemoryBytes() const;
  double build_seconds() const { return build_seconds_; }
  const ShardingOptions& options() const { return opts_; }
  const geo::Grid& grid() const { return grid_; }

 private:
  struct Shard {
    std::shared_ptr<const act::PolygonIndex> index;  // null when empty
    std::vector<uint32_t> global_ids;                // local pid -> global
  };

  explicit ShardedIndex(const geo::Grid& grid) : grid_(grid) {}

  geo::Grid grid_;
  ShardingOptions opts_;
  size_t num_polygons_ = 0;
  std::vector<Shard> shards_;
  double build_seconds_ = 0;
};

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_SHARDED_INDEX_H_
