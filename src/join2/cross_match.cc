#include "join2/cross_match.h"

#include <algorithm>
#include <atomic>
#include <deque>

#include "act/polygon_ref.h"
#include "geometry/poly_poly.h"
#include "util/check.h"
#include "util/parallel_for.h"
#include "util/stage_trace.h"
#include "util/timer.h"

namespace actjoin::join2 {

const char* ToString(CrossMatchMode mode) {
  switch (mode) {
    case CrossMatchMode::kIntersects:
      return "intersects";
    case CrossMatchMode::kContains:
      return "contains";
  }
  return "?";
}

IntervalView IntervalView::FromIndex(const service::ShardedIndex& index,
                                     uint32_t cells_per_polygon) {
  IntervalView v;
  v.index_ = index.index();
  v.num_polygons_ = index.num_polygons();
  if (v.index_ == nullptr) return v;
  // A super covering is sorted and its cells are pairwise disjoint, so
  // each cell's leaf-id range is one interval of the view as it stands.
  const act::SuperCovering& sc = v.index_->covering();
  for (size_t i = 0; i < sc.size(); ++i) {
    const act::RefList& refs = sc.refs(i);
    if (refs.empty()) continue;
    const geo::CellId& cell = sc.cell(i);
    const uint32_t rb = static_cast<uint32_t>(v.refs_.size());
    for (const act::PolygonRef& r : refs) {
      v.refs_.push_back({r.polygon_id, r.interior});
    }
    v.intervals_.push_back({cell.range_min().id(), cell.range_max().id(), rb,
                            static_cast<uint32_t>(v.refs_.size())});
  }
  v.Coarsen(cells_per_polygon);
  return v;
}

void IntervalView::Coarsen(uint32_t cells_per_polygon) {
  if (cells_per_polygon == 0) return;
  // The floor keeps tiny datasets from collapsing into one bucket whose
  // ref cross-products defeat the descent entirely.
  const uint64_t target =
      std::max<uint64_t>(num_polygons_ * cells_per_polygon, 64);
  if (intervals_.size() <= target) return;

  // An interval fits a bucket iff lo and hi share the top (64 - shift)
  // bits. Source intervals are aligned quadtree cells, so a cell at
  // depth >= the bucket depth always fits; a shallower cell spans whole
  // buckets and passes through unmerged — it is already coarse, and
  // splitting it would *grow* the list. Pass-throughs keep
  // disjointness: intervals are sorted and disjoint, members of one
  // bucket are consecutive, and a merged span never reaches past its last
  // member's hi, so output ranges stay sorted and disjoint.
  auto count_at = [&](int shift) {
    size_t count = 0;
    uint64_t cur_bucket = 0;
    bool in_run = false;
    for (const Interval& iv : intervals_) {
      if ((iv.lo >> shift) != (iv.hi >> shift)) {  // spans buckets
        ++count;
        in_run = false;
        continue;
      }
      const uint64_t bucket = iv.lo >> shift;
      if (!in_run || bucket != cur_bucket) {
        ++count;
        cur_bucket = bucket;
        in_run = true;
      }
    }
    return count;
  };
  // Finest bucket depth (smallest shift) that meets the budget; two bits
  // per quadtree level. 62 caps the scan (shifting u64 by 64 is UB).
  int shift = 2;
  while (shift < 62 && count_at(shift) > target) shift += 2;

  std::vector<Interval> out_intervals;
  std::vector<Ref> out_refs;
  out_refs.reserve(refs_.size());
  // One member of a merged bucket, flattened to (gid, interior, leaves).
  // Lengths count *leaf cells*: ids are S2-style (leaves are the odd ids,
  // a cell's inclusive range is [id - (lsb-1), id + (lsb-1)]), so two
  // spatially adjacent cells' ranges are separated by one even id and
  // range arithmetic in raw ids would declare every tiling "gapped".
  struct Piece {
    uint32_t gid = 0;
    bool interior = false;
    uint64_t leaves = 0;
  };
  auto leaves_in = [](uint64_t lo, uint64_t hi) {
    return ((hi - lo) >> 1) + 1;
  };
  std::vector<Piece> pieces;
  auto flush = [&](size_t begin, size_t end) {
    if (begin == end) return;
    if (end - begin == 1) {  // single member: keep verbatim
      const Interval& iv = intervals_[begin];
      const uint32_t rb = static_cast<uint32_t>(out_refs.size());
      for (uint32_t r = iv.refs_begin; r < iv.refs_end; ++r) {
        out_refs.push_back(refs_[r]);
      }
      out_intervals.push_back(
          {iv.lo, iv.hi, rb, static_cast<uint32_t>(out_refs.size())});
      return;
    }
    const uint64_t lo = intervals_[begin].lo;
    const uint64_t hi = intervals_[end - 1].hi;
    const uint64_t span_leaves = leaves_in(lo, hi);
    pieces.clear();
    for (size_t i = begin; i < end; ++i) {
      const Interval& iv = intervals_[i];
      const uint64_t leaves = leaves_in(iv.lo, iv.hi);
      for (uint32_t r = iv.refs_begin; r < iv.refs_end; ++r) {
        pieces.push_back({refs_[r].gid, refs_[r].interior, leaves});
      }
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) { return a.gid < b.gid; });
    const uint32_t rb = static_cast<uint32_t>(out_refs.size());
    for (size_t i = 0; i < pieces.size();) {
      const uint32_t gid = pieces[i].gid;
      // The merged ref may claim "interior over [lo, hi]" only if this
      // polygon's interior pieces tile the merged span exactly: pieces
      // are globally disjoint, so their leaf counts summing to the span's
      // proves every leaf in it lies inside the polygon. Anything weaker
      // must drop the flag — a false interior2 would let a candidate skip
      // refinement on an unproven overlap.
      bool interior = true;
      uint64_t covered = 0;
      for (; i < pieces.size() && pieces[i].gid == gid; ++i) {
        interior = interior && pieces[i].interior;
        covered += pieces[i].leaves;
      }
      out_refs.push_back({gid, interior && covered == span_leaves});
    }
    out_intervals.push_back(
        {lo, hi, rb, static_cast<uint32_t>(out_refs.size())});
  };

  size_t run_begin = 0;
  uint64_t cur_bucket = 0;
  bool in_run = false;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    const Interval& iv = intervals_[i];
    if ((iv.lo >> shift) != (iv.hi >> shift)) {
      flush(run_begin, i);
      flush(i, i + 1);  // pass the bucket-spanning interval through
      run_begin = i + 1;
      in_run = false;
      continue;
    }
    const uint64_t bucket = iv.lo >> shift;
    if (in_run && bucket == cur_bucket) continue;
    flush(run_begin, i);
    run_begin = i;
    cur_bucket = bucket;
    in_run = true;
  }
  flush(run_begin, intervals_.size());
  intervals_ = std::move(out_intervals);
  refs_ = std::move(out_refs);
}

namespace {

// A contiguous run of one view's intervals plus its bounding leaf-id
// range. Intervals are sorted and disjoint, so the bounds are just the
// endpoints of the first and last interval.
struct Span {
  uint32_t begin = 0;  // [begin, end) into IntervalView::intervals_
  uint32_t end = 0;
  uint64_t lo = 0;  // = interval(begin).lo
  uint64_t hi = 0;  // = interval(end - 1).hi
};

Span MakeSpan(const IntervalView& v, uint32_t begin, uint32_t end) {
  return {begin, end, v.interval(begin).lo, v.interval(end - 1).hi};
}

struct SpanPair {
  Span a, b;
  uint32_t depth = 0;
};

// Below this many intervals on both sides a span-pair merge-scans instead
// of splitting further. Small enough that the scan stays cache-resident,
// large enough that the worklist doesn't degenerate into per-interval
// items.
constexpr uint32_t kLeafSpan = 16;

// A candidate pair: interior2 records whether *both* meeting cells were
// interior cells — in intersects mode such a pair is a proven hit (the
// overlapping cell region lies inside both polygons) and skips
// refinement.
struct Candidate {
  uint32_t a = 0;
  uint32_t b = 0;
  bool interior2 = false;
};

bool CandidateOrder(const Candidate& x, const Candidate& y) {
  // interior2 = true sorts first within a pair so unique() keeps the
  // strongest fact, mirroring act::MergeRef.
  if (x.a != y.a) return x.a < y.a;
  if (x.b != y.b) return x.b < y.b;
  return x.interior2 && !y.interior2;
}

bool CandidateSamePair(const Candidate& x, const Candidate& y) {
  return x.a == y.a && x.b == y.b;
}

// Per-task descent output.
struct TaskResult {
  std::vector<Candidate> candidates;
  uint64_t pruned_pairs = 0;
  uint32_t max_depth = 0;
};

// Merge-scans a leaf span-pair: walks both interval runs in id order and
// emits the ref cross-product of every overlapping interval pair.
// Intervals within one view are disjoint, so two cursors suffice.
void ScanLeaf(const IntervalView& va, const IntervalView& vb, const Span& sa,
              const Span& sb, std::vector<Candidate>* out) {
  uint32_t ia = sa.begin, ib = sb.begin;
  while (ia < sa.end && ib < sb.end) {
    const IntervalView::Interval& a = va.interval(ia);
    const IntervalView::Interval& b = vb.interval(ib);
    if (a.hi < b.lo) {
      ++ia;
    } else if (b.hi < a.lo) {
      ++ib;
    } else {
      for (const IntervalView::Ref& ra : va.refs(a)) {
        for (const IntervalView::Ref& rb : vb.refs(b)) {
          out->push_back({ra.gid, rb.gid, ra.interior && rb.interior});
        }
      }
      // Advance whichever interval ends first; on a tie both are done.
      if (a.hi < b.hi) {
        ++ia;
      } else if (b.hi < a.hi) {
        ++ib;
      } else {
        ++ia;
        ++ib;
      }
    }
  }
}

// Processes one worklist item: prune, scan, or split. Children go back on
// `work`; processing order does not affect the result (candidates are
// canonicalized later), only the depth accounting, which tracks the
// maximum and is order-independent too.
void Step(const IntervalView& va, const IntervalView& vb, const SpanPair& p,
          std::deque<SpanPair>* work, TaskResult* r) {
  r->max_depth = std::max(r->max_depth, p.depth);
  if (p.a.hi < p.b.lo || p.b.hi < p.a.lo) {
    ++r->pruned_pairs;
    return;
  }
  const uint32_t na = p.a.end - p.a.begin;
  const uint32_t nb = p.b.end - p.b.begin;
  if (na <= kLeafSpan && nb <= kLeafSpan) {
    ScanLeaf(va, vb, p.a, p.b, &r->candidates);
    return;
  }
  // Split the larger side at its midpoint; the two children inherit the
  // other side unchanged. Bounds tighten to the actual child endpoints,
  // which is what gives the disjointness prune its power.
  if (na >= nb) {
    const uint32_t mid = p.a.begin + na / 2;
    work->push_back({MakeSpan(va, p.a.begin, mid), p.b, p.depth + 1});
    work->push_back({MakeSpan(va, mid, p.a.end), p.b, p.depth + 1});
  } else {
    const uint32_t mid = p.b.begin + nb / 2;
    work->push_back({p.a, MakeSpan(vb, p.b.begin, mid), p.depth + 1});
    work->push_back({p.a, MakeSpan(vb, mid, p.b.end), p.depth + 1});
  }
}

// Runs a full descent from `root`, returning every candidate beneath it.
TaskResult Descend(const IntervalView& va, const IntervalView& vb,
                   const SpanPair& root) {
  TaskResult r;
  std::deque<SpanPair> work;
  work.push_back(root);
  while (!work.empty()) {
    SpanPair p = work.front();
    work.pop_front();
    Step(va, vb, p, &work, &r);
  }
  // Canonicalize per task so slot merges stay cheap and deterministic.
  std::sort(r.candidates.begin(), r.candidates.end(), CandidateOrder);
  r.candidates.erase(std::unique(r.candidates.begin(), r.candidates.end(),
                                 CandidateSamePair),
                     r.candidates.end());
  return r;
}

}  // namespace

std::vector<std::pair<uint32_t, uint32_t>> CrossMatch(
    const IntervalView& a, const IntervalView& b,
    const CrossMatchOptions& opts, util::WorkStealingPool* pool,
    CrossMatchStats* stats, CrossMatchPhaseTimes* phases,
    const util::StagePerfCounters* stage_perf) {
  util::WallTimer timer;
  util::StageLap lap(phases != nullptr ? stage_perf : nullptr);
  CrossMatchStats local;
  std::vector<std::pair<uint32_t, uint32_t>> out;
  if (a.size() != 0 && b.size() != 0) {
    const int width = util::EffectiveWidth(pool, opts.threads);

    // Phase 1 (serial): breadth-first expansion of the root span-pair
    // until there are enough top-level tasks to keep `width` threads fed.
    // The expansion is serial and depth-ordered, so the task list — and
    // with it every downstream merge — is a pure function of the inputs.
    const size_t target_tasks = static_cast<size_t>(width) * 8;
    std::deque<SpanPair> tasks;
    tasks.push_back({MakeSpan(a, 0, static_cast<uint32_t>(a.size())),
                     MakeSpan(b, 0, static_cast<uint32_t>(b.size())), 0});
    TaskResult expansion;  // prunes + depth seen during expansion
    while (tasks.size() < target_tasks) {
      const SpanPair p = tasks.front();
      const uint32_t na = p.a.end - p.a.begin;
      const uint32_t nb = p.b.end - p.b.begin;
      if (na <= kLeafSpan && nb <= kLeafSpan) break;  // nothing splittable
      tasks.pop_front();
      const size_t before = tasks.size();
      Step(a, b, p, &tasks, &expansion);
      if (tasks.size() == before && tasks.empty()) break;  // all pruned
    }

    // Phase 2 (parallel): each task descends into its own slot.
    std::vector<TaskResult> slots(tasks.size());
    auto run_task = [&](uint64_t t) {
      slots[t] = Descend(a, b, tasks[t]);
    };
    util::RunTasks(pool, width, tasks.size(), run_task);

    // Phase 3 (serial): merge slots in task order, canonicalize globally.
    local.pruned_pairs = expansion.pruned_pairs;
    local.max_depth = expansion.max_depth;
    size_t total = 0;
    for (const TaskResult& r : slots) total += r.candidates.size();
    std::vector<Candidate> candidates;
    candidates.reserve(total);
    for (const TaskResult& r : slots) {
      local.pruned_pairs += r.pruned_pairs;
      local.max_depth = std::max(local.max_depth, r.max_depth);
      candidates.insert(candidates.end(), r.candidates.begin(),
                        r.candidates.end());
    }
    std::sort(candidates.begin(), candidates.end(), CandidateOrder);
    candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                 CandidateSamePair),
                     candidates.end());
    local.candidate_pairs = candidates.size();
    // Descend = expansion + parallel descent + dedup (phases 1-3): the
    // filter half of the join; refinement below is the predicate half.
    const util::StageSplit descend = lap.Lap();
    if (phases != nullptr) {
      phases->descend_us = descend.us;
      phases->descend_counters = descend.counters;
    }

    // Phase 4 (parallel): refine candidates in fixed chunks; chunk outputs
    // concatenate in chunk order, and the input is sorted, so the output
    // is sorted unique pairs without a final sort.
    const bool contains = opts.mode == CrossMatchMode::kContains;
    std::vector<uint8_t> keep(candidates.size(), 0);
    std::atomic<uint64_t> refined{0};
    auto refine = [&](uint64_t i) {
      const Candidate& c = candidates[i];
      if (!contains && c.interior2) {
        keep[i] = 1;  // two overlapping interior cells witness a hit
        return;
      }
      const geom::Polygon* pa = a.polygon(c.a);
      const geom::Polygon* pb = b.polygon(c.b);
      ACT_CHECK(pa != nullptr && pb != nullptr);
      refined.fetch_add(1, std::memory_order_relaxed);
      const bool hit = contains
                           ? geom::PolygonCovers(*pa, *pb, a.edge_grid(c.a),
                                                 b.edge_grid(c.b))
                           : geom::PolygonsIntersect(*pa, *pb,
                                                     a.edge_grid(c.a),
                                                     b.edge_grid(c.b));
      keep[i] = hit ? 1 : 0;
    };
    constexpr uint64_t kRefineChunk = 64;
    const uint64_t n = candidates.size();
    const uint64_t num_chunks = (n + kRefineChunk - 1) / kRefineChunk;
    auto run_chunk = [&](uint64_t chunk) {
      const uint64_t lo = chunk * kRefineChunk;
      const uint64_t hi = std::min(n, lo + kRefineChunk);
      for (uint64_t i = lo; i < hi; ++i) refine(i);
    };
    util::RunTasks(pool, width, num_chunks, run_chunk);
    local.refined_pairs = refined.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < n; ++i) {
      if (keep[i]) out.emplace_back(candidates[i].a, candidates[i].b);
    }
  }
  local.result_pairs = out.size();
  local.seconds = timer.ElapsedSeconds();
  const util::StageSplit refine = lap.Lap();
  if (phases != nullptr) {
    phases->refine_us = refine.us;
    phases->refine_counters = refine.counters;
    phases->counters_valid = lap.counting();
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> CrossMatchIndexes(
    const service::ShardedIndex& a, const service::ShardedIndex& b,
    const CrossMatchOptions& opts, util::WorkStealingPool* pool,
    CrossMatchStats* stats, CrossMatchPhaseTimes* phases,
    const util::StagePerfCounters* stage_perf) {
  util::StageLap lap(phases != nullptr ? stage_perf : nullptr);
  IntervalView view_a = IntervalView::FromIndex(a);
  IntervalView view_b = IntervalView::FromIndex(b);
  const util::StageSplit pin = lap.Lap();
  if (phases != nullptr) {
    phases->pin_us = pin.us;
    phases->pin_counters = pin.counters;
  }
  return CrossMatch(view_a, view_b, opts, pool, stats, phases, stage_perf);
}

std::vector<std::pair<uint32_t, uint32_t>> BruteForceCrossMatch(
    const std::vector<geom::Polygon>& a, const std::vector<geom::Polygon>& b,
    CrossMatchMode mode, std::span<const uint32_t> skip_a,
    std::span<const uint32_t> skip_b) {
  std::vector<uint8_t> dead_a(a.size(), 0), dead_b(b.size(), 0);
  for (uint32_t id : skip_a) dead_a[id] = 1;
  for (uint32_t id : skip_b) dead_b[id] = 1;
  std::vector<std::pair<uint32_t, uint32_t>> out;
  const bool contains = mode == CrossMatchMode::kContains;
  for (uint32_t i = 0; i < a.size(); ++i) {
    if (dead_a[i]) continue;
    for (uint32_t j = 0; j < b.size(); ++j) {
      if (dead_b[j]) continue;
      const bool hit = contains ? geom::PolygonCovers(a[i], b[j])
                                : geom::PolygonsIntersect(a[i], b[j]);
      if (hit) out.emplace_back(i, j);
    }
  }
  return out;  // (i, j) loop order is already sorted unique
}

}  // namespace actjoin::join2
