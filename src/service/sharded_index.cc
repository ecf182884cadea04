#include "service/sharded_index.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "cover/coverer.h"
#include "util/check.h"
#include "util/parallel_for.h"
#include "util/stage_trace.h"
#include "util/timer.h"
#include "util/work_stealing_pool.h"

namespace actjoin::service {

// Shard s owns the leaf-id interval [floor(s * 2^64 / N),
// floor((s+1) * 2^64 / N)): equal Hilbert-range slices of the whole id
// space. The 128-bit multiply-shift is the exact inverse map.
int ShardedIndex::ShardOf(uint64_t leaf_cell_id) const {
  return static_cast<int>(
      (static_cast<unsigned __int128>(leaf_cell_id) *
       static_cast<unsigned>(shards_.size())) >> 64);
}

ShardedIndex ShardedIndex::Build(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const ShardingOptions& opts) {
  ShardedIndex out(grid);
  out.opts_ = opts;
  if (out.opts_.num_shards < 1) out.opts_.num_shards = 1;
  if (out.opts_.routing_cover_cells < 1) out.opts_.routing_cover_cells = 1;
  out.num_polygons_ = polygons.size();

  util::WallTimer timer;
  const int ns = out.opts_.num_shards;
  out.shards_.resize(ns);

  // Coarse per-polygon routing coverings, parallelized over polygons like
  // the index build's own covering phase.
  int threads = out.opts_.build.threads <= 0 ? util::DefaultThreadCount()
                                             : out.opts_.build.threads;
  cover::CovererOptions routing_opts{out.opts_.routing_cover_cells,
                                     geo::CellId::kMaxLevel, 0};
  std::vector<std::vector<geo::CellId>> routing(polygons.size());
  util::ParallelFor(polygons.size(), threads, /*batch=*/1,
                    [&](uint64_t begin, uint64_t end, int) {
                      for (uint64_t i = begin; i < end; ++i) {
                        routing[i] =
                            cover::ComputeCovering(polygons[i], grid,
                                                   routing_opts);
                      }
                    });

  // A polygon belongs to every shard its routing covering touches. The
  // covering contains the polygon, so any point inside the polygon routes
  // to a shard that indexes it; over-assignment (from the coarse covering
  // sticking out past the polygon) costs memory, never correctness.
  std::vector<uint32_t> last_assigned(ns, UINT32_MAX);
  for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
    for (const geo::CellId& cell : routing[pid]) {
      int s0 = out.ShardOf(cell.range_min().id());
      int s1 = out.ShardOf(cell.range_max().id());
      for (int s = s0; s <= s1; ++s) {
        if (last_assigned[s] != pid) {
          last_assigned[s] = pid;
          out.shards_[s].global_ids.push_back(pid);
        }
      }
    }
  }

  // One independent PolygonIndex per non-empty shard (each build is itself
  // parallel over its polygons).
  for (int s = 0; s < ns; ++s) {
    Shard& shard = out.shards_[s];
    if (shard.global_ids.empty()) continue;
    std::vector<geom::Polygon> subset;
    subset.reserve(shard.global_ids.size());
    for (uint32_t pid : shard.global_ids) subset.push_back(polygons[pid]);
    shard.index = std::make_shared<const act::PolygonIndex>(
        act::PolygonIndex::Build(subset, grid, out.opts_.build));
  }
  out.build_seconds_ = timer.ElapsedSeconds();
  return out;
}

ShardedIndex::DeltaResult ShardedIndex::ApplyDelta(const ShardedIndex& base,
                                                   const Delta& delta) {
  util::WallTimer timer;
  const int ns = static_cast<int>(base.shards_.size());
  DeltaResult result;
  result.first_added_id = static_cast<uint32_t>(base.num_polygons_);

  auto out = std::make_shared<ShardedIndex>(ShardedIndex(base.grid_));
  out->opts_ = base.opts_;
  out->num_polygons_ = base.num_polygons_ + delta.add.size();
  out->shards_.resize(ns);

  // Membership vector over the base id space; removes of already-removed
  // ids are harmless no-ops in the per-shard rebuilds below.
  std::vector<bool> removed(base.num_polygons_, false);
  for (uint32_t gid : delta.remove) {
    ACT_CHECK_MSG(gid < base.num_polygons_,
                  "removed polygon id out of range");
    removed[gid] = true;
  }

  // Route added polygons to shards exactly as Build does, so a delta-built
  // index and a from-scratch Build over the final set agree shard by shard.
  int threads = base.opts_.build.threads <= 0 ? util::DefaultThreadCount()
                                              : base.opts_.build.threads;
  cover::CovererOptions routing_opts{base.opts_.routing_cover_cells,
                                     geo::CellId::kMaxLevel, 0};
  std::vector<std::vector<geo::CellId>> routing(delta.add.size());
  util::ParallelFor(delta.add.size(), threads, /*batch=*/1,
                    [&](uint64_t begin, uint64_t end, int) {
                      for (uint64_t i = begin; i < end; ++i) {
                        routing[i] = cover::ComputeCovering(delta.add[i],
                                                            base.grid_,
                                                            routing_opts);
                      }
                    });
  // added_in[s] holds positions into delta.add, in id order.
  std::vector<std::vector<uint32_t>> added_in(ns);
  std::vector<uint32_t> last_assigned(ns, UINT32_MAX);
  for (uint32_t i = 0; i < delta.add.size(); ++i) {
    for (const geo::CellId& cell : routing[i]) {
      int s0 = base.ShardOf(cell.range_min().id());
      int s1 = base.ShardOf(cell.range_max().id());
      for (int s = s0; s <= s1; ++s) {
        if (last_assigned[s] != i) {
          last_assigned[s] = i;
          added_in[s].push_back(i);
        }
      }
    }
  }

  for (int s = 0; s < ns; ++s) {
    const Shard& from = base.shards_[s];
    Shard& to = out->shards_[s];

    // Shard-local ids of polygons this delta removes from shard s.
    std::vector<uint32_t> removed_local;
    for (uint32_t local = 0; local < from.global_ids.size(); ++local) {
      if (removed[from.global_ids[local]]) removed_local.push_back(local);
    }

    if (added_in[s].empty() && removed_local.empty()) {
      // Untouched: alias the base shard's trie into the new snapshot.
      to.index = from.index;
      to.global_ids = from.global_ids;
      continue;
    }

    // Clone-on-write: reuse the shard's already-computed covering, drop
    // the removed references, extend with the added polygons' coverings.
    to.global_ids = from.global_ids;
    std::vector<geom::Polygon> subset;
    subset.reserve(added_in[s].size());
    for (uint32_t i : added_in[s]) {
      subset.push_back(delta.add[i]);
      to.global_ids.push_back(result.first_added_id + i);
    }
    if (from.index == nullptr) {
      to.index = std::make_shared<const act::PolygonIndex>(
          act::PolygonIndex::Build(subset, base.grid_, base.opts_.build));
    } else {
      act::PolygonIndex next = from.index->Clone();
      if (!removed_local.empty()) next.RemovePolygons(removed_local);
      if (!subset.empty()) next.AddPolygons(subset);
      to.index = std::make_shared<const act::PolygonIndex>(std::move(next));
    }
  }

  out->build_seconds_ = timer.ElapsedSeconds();
  result.index = std::move(out);
  return result;
}

ShardedIndex ShardedIndex::FromParts(const geo::Grid& grid,
                                     const ShardingOptions& opts,
                                     size_t num_polygons,
                                     std::vector<ShardParts> parts) {
  util::WallTimer timer;
  ShardedIndex out(grid);
  out.opts_ = opts;
  out.opts_.num_shards = static_cast<int>(parts.size());
  ACT_CHECK_MSG(!parts.empty(), "FromParts requires at least one shard");
  out.num_polygons_ = num_polygons;
  out.shards_.resize(parts.size());
  for (size_t s = 0; s < parts.size(); ++s) {
    ACT_CHECK_MSG((parts[s].index == nullptr) == parts[s].global_ids.empty(),
                  "a shard has an index iff it has polygons");
    ACT_CHECK_MSG(parts[s].index == nullptr ||
                      parts[s].index->polygons().size() ==
                          parts[s].global_ids.size(),
                  "shard id map must cover the shard's polygons");
    for (uint32_t gid : parts[s].global_ids) {
      ACT_CHECK_MSG(gid < num_polygons, "global polygon id out of range");
    }
    out.shards_[s].index = std::move(parts[s].index);
    out.shards_[s].global_ids = std::move(parts[s].global_ids);
  }
  out.build_seconds_ = timer.ElapsedSeconds();
  return out;
}

namespace {

// Bucket-sorts the batch into shard-contiguous (= Hilbert) order.
// offsets[s]..offsets[s+1] delimit shard s's slice of the scratch arrays;
// orig (when non-null) maps scratch position back to the input position.
void RouteBatch(const ShardedIndex& index, const act::JoinInput& input,
                std::vector<uint64_t>* offsets, std::vector<uint64_t>* cells,
                std::vector<geom::Point>* points,
                std::vector<uint64_t>* orig) {
  const uint64_t n = input.size();
  const int ns = index.num_shards();
  std::vector<uint32_t> shard_of(n);
  offsets->assign(static_cast<size_t>(ns) + 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t s = static_cast<uint32_t>(index.ShardOf(input.cell_ids[i]));
    shard_of[i] = s;
    ++(*offsets)[s + 1];
  }
  for (int s = 0; s < ns; ++s) (*offsets)[s + 1] += (*offsets)[s];

  cells->resize(n);
  points->resize(n);
  if (orig != nullptr) orig->resize(n);
  std::vector<uint64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pos = cursor[shard_of[i]]++;
    (*cells)[pos] = input.cell_ids[i];
    (*points)[pos] = input.points[i];
    if (orig != nullptr) (*orig)[pos] = i;
  }
}

// One executor task unit: a contiguous sub-range of one shard's routed
// slice, addressed by absolute offsets into the scratch arrays. The task
// list is generated shard-major, range-minor — the fixed order every
// merge below follows, which is what makes results independent of which
// thread ran which task.
struct TaskUnit {
  uint32_t shard = 0;
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

// Splits each shard's routed slice [offsets[s], offsets[s+1]) into
// sub-range tasks sized off the slice widths (empty and index-less shards
// get no tasks — their points are guaranteed misses, handled at merge
// time). A hot shard simply yields more tasks, which is exactly what lets
// every thread in the budget converge on it.
std::vector<TaskUnit> DecomposeBatch(const ShardedIndex& index,
                                     const std::vector<uint64_t>& offsets,
                                     uint64_t n, int budget) {
  const uint64_t target_tasks =
      static_cast<uint64_t>(std::max(1, budget)) * kTasksPerThread;
  const uint64_t task_points =
      std::max(kMinTaskPoints, (n + target_tasks - 1) / target_tasks);
  std::vector<TaskUnit> tasks;
  for (int s = 0; s < index.num_shards(); ++s) {
    if (index.shard_index(s) == nullptr) continue;
    for (uint64_t b = offsets[s]; b < offsets[s + 1]; b += task_points) {
      tasks.push_back({static_cast<uint32_t>(s), b,
                       std::min(b + task_points, offsets[s + 1])});
    }
  }
  return tasks;
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
  std::vector<uint64_t> offsets, cells;
  std::vector<geom::Point> points;
  RouteBatch(*this, input, &offsets, &cells, &points, nullptr);

  // Work-stealing executor: the routed batch becomes (shard, sub-range)
  // task units and the whole thread budget drains whichever shard is hot
  // — a static per-shard split would under-width hot shards on exactly
  // the skewed batches the paper targets. Each task probes at width 1;
  // parallelism comes only from the task fan-out, so nothing nests.
  const int budget = util::EffectiveWidth(pool, opts.threads);
  std::vector<TaskUnit> tasks = DecomposeBatch(*this, offsets, n, budget);
  const util::StageSplit route = lap.Lap();
  std::vector<act::JoinStats> task_stats(tasks.size());
  act::JoinOptions task_opts = opts;
  task_opts.threads = 1;
  util::RunTasks(pool, budget, tasks.size(), [&](uint64_t t) {
    const TaskUnit& u = tasks[t];
    const uint64_t count = u.end - u.begin;
    act::JoinInput sub{std::span(cells).subspan(u.begin, count),
                       std::span(points).subspan(u.begin, count)};
    task_stats[t] = shards_[u.shard].index->Join(sub, task_opts);
  });
  const util::StageSplit probe = lap.Lap();

  // Deterministic merge: task order is shard-major/range-minor by
  // construction and JoinStats fields are exact integer counters, so the
  // execution interleaving cannot leak into the result.
  for (size_t t = 0; t < tasks.size(); ++t) {
    const Shard& shard = shards_[tasks[t].shard];
    const act::JoinStats& st = task_stats[t];
    out.AccumulateCounters(st);
    for (size_t k = 0; k < st.counts.size(); ++k) {
      out.counts[shard.global_ids[k]] += st.counts[k];
    }
  }
  for (int s = 0; s < num_shards(); ++s) {
    if (shards_[s].index != nullptr) continue;
    // No polygons reach this shard: every point here is a guaranteed
    // miss (the sharded analog of the sentinel probe).
    out.sth_points += offsets[s + 1] - offsets[s];
  }
  const util::StageSplit merge = lap.Lap();
  if (phases != nullptr) {
    *phases = {route.us,       probe.us,       merge.us, lap.counting(),
               route.counters, probe.counters, merge.counters};
  }
  out.seconds = timer.ElapsedSeconds();  // includes routing, fair total
  return out;
}

std::vector<std::pair<uint64_t, uint32_t>> ShardedIndex::JoinPairs(
    const act::JoinInput& input, act::JoinMode mode, int threads,
    util::WorkStealingPool* pool) const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  if (input.size() == 0) return out;

  std::vector<uint64_t> offsets, cells, orig;
  std::vector<geom::Point> points;
  RouteBatch(*this, input, &offsets, &cells, &points, &orig);

  // Same (shard, sub-range) decomposition as Join; each task remaps its
  // shard-local pairs to (original point index, global polygon id).
  const int budget = util::EffectiveWidth(pool, threads);
  std::vector<TaskUnit> tasks =
      DecomposeBatch(*this, offsets, input.size(), budget);
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> task_pairs(
      tasks.size());
  util::RunTasks(pool, budget, tasks.size(), [&](uint64_t t) {
    const TaskUnit& u = tasks[t];
    const uint64_t count = u.end - u.begin;
    const Shard& shard = shards_[u.shard];
    act::JoinInput sub{std::span(cells).subspan(u.begin, count),
                       std::span(points).subspan(u.begin, count)};
    std::vector<std::pair<uint64_t, uint32_t>>& local = task_pairs[t];
    for (const auto& [local_point, local_pid] :
         shard.index->JoinPairs(sub, mode)) {
      local.emplace_back(orig[u.begin + local_point],
                         shard.global_ids[local_pid]);
    }
  });

  // Concatenate in fixed task order, then sort: every width produces the
  // same multiset of pairs, so the sorted vector is byte-identical to the
  // serial path's — the determinism contract service_test pins.
  size_t total = 0;
  for (const auto& local : task_pairs) total += local.size();
  out.reserve(total);
  for (const auto& local : task_pairs) {
    out.insert(out.end(), local.begin(), local.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t ShardedIndex::MemoryBytes() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    if (shard.index != nullptr) total += shard.index->MemoryBytes();
  }
  return total;
}

}  // namespace actjoin::service
