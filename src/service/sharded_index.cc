#include "service/sharded_index.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "util/check.h"
#include "util/stage_trace.h"
#include "util/timer.h"
#include "util/work_stealing_pool.h"

namespace actjoin::service {

ShardedIndex::ShardedIndex(const geo::Grid& grid, const ShardingOptions& opts,
                           std::shared_ptr<const act::PolygonIndex> index)
    : grid_(grid),
      opts_(opts),
      num_polygons_(index != nullptr ? index->polygons().size() : 0),
      index_(std::move(index)) {}

ShardedIndex ShardedIndex::Build(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const ShardingOptions& opts) {
  std::shared_ptr<const act::PolygonIndex> index;
  if (!polygons.empty()) {
    index = std::make_shared<const act::PolygonIndex>(
        act::PolygonIndex::Build(polygons, grid, opts.build));
  }
  return ShardedIndex(grid, opts, std::move(index));
}

ShardedIndex::DeltaResult ShardedIndex::ApplyDelta(const ShardedIndex& base,
                                                   const Delta& delta) {
  for (uint32_t id : delta.remove) {
    ACT_CHECK_MSG(id < base.num_polygons_, "removed polygon id out of range");
  }
  std::shared_ptr<const act::PolygonIndex> next = base.index_;
  if (base.index_ == nullptr) {
    if (!delta.add.empty()) {
      next = std::make_shared<const act::PolygonIndex>(
          act::PolygonIndex::Build(delta.add, base.grid_, base.opts_.build));
    }
  } else if (!delta.add.empty() || !delta.remove.empty()) {
    // Clone-on-write: reuse the already-computed covering, drop the
    // removed references, extend with the added polygons' coverings.
    act::PolygonIndex clone = base.index_->Clone();
    if (!delta.remove.empty()) clone.RemovePolygons(delta.remove);
    if (!delta.add.empty()) clone.AddPolygons(delta.add);
    next = std::make_shared<const act::PolygonIndex>(std::move(clone));
  }
  DeltaResult result;
  result.first_added_id = static_cast<uint32_t>(base.num_polygons_);
  result.index = std::make_shared<const ShardedIndex>(base.grid_, base.opts_,
                                                      std::move(next));
  return result;
}

namespace {

// One executor task unit: the contiguous input range [begin, end). The
// task list is generated in ascending range order — the fixed order every
// merge below follows, which is what makes results independent of which
// thread ran which task.
struct TaskUnit {
  uint64_t begin = 0;
  uint64_t end = 0;
};

// Floor on points per task: below this the per-task bookkeeping (deque
// ops, a per-task stats slot with its counts vector) stops being noise
// next to the probe work.
constexpr uint64_t kMinTaskPoints = 2048;
// Tasks per thread the decomposition aims for when the batch is large
// enough: slack for stealing to rebalance a skewed batch, coarse enough
// that task overhead stays invisible.
constexpr uint64_t kTasksPerThread = 8;

// Splits [0, n) into sub-range tasks of equal width.
std::vector<TaskUnit> DecomposeBatch(uint64_t n, int budget) {
  const uint64_t target_tasks =
      static_cast<uint64_t>(std::max(1, budget)) * kTasksPerThread;
  const uint64_t task_points =
      std::max(kMinTaskPoints, (n + target_tasks - 1) / target_tasks);
  std::vector<TaskUnit> tasks;
  for (uint64_t b = 0; b < n; b += task_points) {
    tasks.push_back({b, std::min(b + task_points, n)});
  }
  return tasks;
}

act::JoinInput Slice(const act::JoinInput& input, const TaskUnit& u) {
  const uint64_t count = u.end - u.begin;
  return {input.cell_ids.subspan(u.begin, count),
          input.points.subspan(u.begin, count)};
}

}  // namespace

act::JoinStats ShardedIndex::Join(const act::JoinInput& input,
                                  const act::JoinOptions& opts,
                                  util::WorkStealingPool* pool,
                                  JoinPhaseTimes* phases,
                                  const util::StagePerfCounters* stage_perf) const {
  util::WallTimer timer;
  const uint64_t n = input.size();
  act::JoinStats out;
  out.num_points = n;
  out.counts.assign(num_polygons_, 0);
  if (n == 0) {
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Counter attribution is phase-boundary group reads on this thread; an
  // unavailable group degrades to counters_valid = false, never to zeros
  // masquerading as measurements.
  util::StageLap lap(phases != nullptr ? stage_perf : nullptr);

  // Work-stealing executor: the batch becomes sub-range task units and the
  // whole thread budget drains them. Each task probes at width 1;
  // parallelism comes only from the task fan-out, so nothing nests. A
  // dataset with no polygons gets no tasks: its points are guaranteed
  // misses.
  const int budget = util::EffectiveWidth(pool, opts.threads);
  std::vector<TaskUnit> tasks;
  if (index_ != nullptr) tasks = DecomposeBatch(n, budget);
  const util::StageSplit route = lap.Lap();
  std::vector<act::JoinStats> task_stats(tasks.size());
  act::JoinOptions task_opts = opts;
  task_opts.threads = 1;
  util::RunTasks(pool, budget, tasks.size(), [&](uint64_t t) {
    task_stats[t] = index_->Join(Slice(input, tasks[t]), task_opts);
  });
  const util::StageSplit probe = lap.Lap();

  // Deterministic merge: tasks are in range order by construction and
  // JoinStats fields are exact integer counters, so the execution
  // interleaving cannot leak into the result.
  for (const act::JoinStats& st : task_stats) {
    out.AccumulateCounters(st);
    for (size_t k = 0; k < st.counts.size(); ++k) {
      out.counts[k] += st.counts[k];
    }
  }
  if (index_ == nullptr) out.sth_points = n;
  const util::StageSplit merge = lap.Lap();
  if (phases != nullptr) {
    *phases = {route.us,       probe.us,       merge.us, lap.counting(),
               route.counters, probe.counters, merge.counters};
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

std::vector<std::pair<uint64_t, uint32_t>> ShardedIndex::JoinPairs(
    const act::JoinInput& input, act::JoinMode mode, int threads,
    util::WorkStealingPool* pool) const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  if (input.size() == 0 || index_ == nullptr) return out;

  // Same decomposition as Join; each task shifts its pairs' point indexes
  // back to input positions.
  const int budget = util::EffectiveWidth(pool, threads);
  std::vector<TaskUnit> tasks = DecomposeBatch(input.size(), budget);
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> task_pairs(
      tasks.size());
  util::RunTasks(pool, budget, tasks.size(), [&](uint64_t t) {
    std::vector<std::pair<uint64_t, uint32_t>>& pairs = task_pairs[t];
    pairs = index_->JoinPairs(Slice(input, tasks[t]), mode);
    for (auto& pair : pairs) pair.first += tasks[t].begin;
  });

  // Tasks cover ascending disjoint point ranges and each task's pairs are
  // sorted, so concatenating in task order is sorted — byte-identical to
  // the serial path's, the determinism contract service_test pins.
  size_t total = 0;
  for (const auto& pairs : task_pairs) total += pairs.size();
  out.reserve(total);
  for (const auto& pairs : task_pairs) {
    out.insert(out.end(), pairs.begin(), pairs.end());
  }
  return out;
}

}  // namespace actjoin::service
