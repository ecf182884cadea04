// The served snapshot of one dataset: one Adaptive Cell Trie
// (act::PolygonIndex) over all of its polygons, behind the executor that
// spreads one join across a thread budget.
//
// The paper parallelises one join over a single trie by handing out
// blocks of the batch through one atomic counter (Sec. 3.4). Join does the
// same at service granularity: the batch is cut into contiguous sub-range
// task units drained by a work-stealing pool, so the whole thread budget
// converges on the batch instead of idling on a static split (see
// docs/executor.md), and per-task results merge in fixed range order.
// Results are byte-identical to act::PolygonIndex over the same polygons
// at every width, in exact and in approximate mode.
//
// A ShardedIndex is immutable once constructed, making it a snapshot type
// for SnapshotRegistry / JoinService hot swaps. Live mutation therefore
// never edits a published index: ApplyDelta clones the trie (the covering,
// the expensive build phase, is reused and only extended for the new
// polygons) and returns a new index to publish through the registry swap.

#ifndef ACTJOIN_SERVICE_SHARDED_INDEX_H_
#define ACTJOIN_SERVICE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "act/join.h"
#include "act/pipeline.h"
#include "geo/grid.h"
#include "geometry/polygon.h"
#include "util/check.h"
#include "util/perf_counters.h"
#include "util/work_stealing_pool.h"

namespace actjoin::service {

struct ShardingOptions {
  /// Index build configuration (precision bound, fanout, ...).
  act::BuildOptions build;
  /// Retired with the members in ShardedIndex's "Retired" block: ignored.
  int num_shards = 1;
};

class ShardedIndex {
 public:
  /// Builds one index over the polygons. Polygon ids in join results are
  /// positions in `polygons`, exactly as with act::PolygonIndex::Build over
  /// the same vector.
  static ShardedIndex Build(const std::vector<geom::Polygon>& polygons,
                            const geo::Grid& grid,
                            const ShardingOptions& opts);

  /// Wraps an already-built index (the snapshot store's load path, which
  /// takes the persisted covering as-is). `index` is null for a dataset
  /// with no polygons: act::PolygonIndex cannot be empty.
  ShardedIndex(const geo::Grid& grid, const ShardingOptions& opts,
               std::shared_ptr<const act::PolygonIndex> index);

  /// One live mutation against a published snapshot: polygons to append
  /// (assigned the next ids, in order) and/or ids to remove. Ids are
  /// assign-only — a removed id keeps its slot (zero counts forever) and is
  /// never reused, exactly as with act::PolygonIndex::RemovePolygons.
  struct Delta {
    std::vector<geom::Polygon> add;
    std::vector<uint32_t> remove;  // polygon ids, < num_polygons()
  };

  /// ApplyDelta's output: the next snapshot plus the id assigned to the
  /// first added polygon (the rest follow contiguously).
  struct DeltaResult {
    std::shared_ptr<const ShardedIndex> index;
    uint32_t first_added_id = 0;
  };

  /// Applies a delta copy-on-write: the trie is cloned (reusing its
  /// already-computed covering; only the added polygons' coverings are
  /// computed, which is what makes delta-apply ≪ a full rebuild), or built
  /// when `base` has none. The result is a fully independent snapshot to
  /// publish through SnapshotRegistry; `base` is never modified and
  /// in-flight joins against it are unaffected. Incremental insertion and
  /// fresh build produce the same covering, so joins against the result
  /// are byte-identical to a from-scratch Build over the final polygon set
  /// with the same id assignment. Ids in `delta.remove` must be <
  /// base.num_polygons() (checked).
  static DeltaResult ApplyDelta(const ShardedIndex& base, const Delta& delta);

  /// Wall time per executor phase for one Join call, microseconds. The
  /// request-tracing seam: route covers task decomposition, probe covers
  /// the work-stealing drain (wall, not CPU-sum), merge covers the
  /// fixed-order sum of per-task results.
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

  /// Parallel equivalent of act::PolygonIndex::Join: splits the batch into
  /// contiguous sub-range task units and drains them work-stealing-wide
  /// across the whole thread budget (opts.threads; library convention 0 =>
  /// DefaultThreadCount()). Stats are merged in fixed range order, so
  /// results are byte-identical to the one-threaded index regardless of
  /// which thread ran which task.
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

  /// Parallel equivalent of act::PolygonIndex::JoinPairs: sorted (point
  /// index, polygon id) pairs. Carries the same ordering contract as
  /// act::ExecuteJoinPairs — ascending by (point index, polygon id),
  /// duplicate-free — so results from any pair producer with that
  /// contract (including join2::CrossMatch pair output) are
  /// byte-comparable. `threads` follows the library convention (0 =>
  /// DefaultThreadCount()); the default 1 preserves the historical
  /// single-threaded behavior. Output is identical at every width: tasks
  /// are ascending contiguous point ranges, so their sorted pair lists
  /// concatenated in task order are already sorted.
  std::vector<std::pair<uint64_t, uint32_t>> JoinPairs(
      const act::JoinInput& input, act::JoinMode mode, int threads = 1,
      util::WorkStealingPool* pool = nullptr) const;

  size_t num_polygons() const { return num_polygons_; }
  /// The trie; null for a dataset with no polygons.
  const act::PolygonIndex* index() const { return index_.get(); }

  uint64_t MemoryBytes() const {
    return index_ != nullptr ? index_->MemoryBytes() : 0;
  }
  const ShardingOptions& options() const { return opts_; }
  const geo::Grid& grid() const { return grid_; }

  // Retired: a snapshot is one trie. These members, with
  // ShardingOptions::num_shards, stay only because bench/ledger/ still
  // calls them; nothing else may. They are deleted when the ledger changes.
  int num_shards() const { return 1; }
  int ShardOf(uint64_t /*leaf_cell_id*/) const { return 0; }
  const act::PolygonIndex* shard_index(int s) const {
    ACT_CHECK(s == 0);
    return index();
  }

 private:
  geo::Grid grid_;
  ShardingOptions opts_;
  size_t num_polygons_ = 0;
  std::shared_ptr<const act::PolygonIndex> index_;  // null when empty
};

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_SHARDED_INDEX_H_
