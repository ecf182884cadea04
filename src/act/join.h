// Point-polygon join drivers (paper Listing 3 and Sec. 3.2/3.3).
//
// The join is an index nested loop: probe the cell index with each point's
// leaf cell id, walk the returned polygon references, and
//   * approximate mode: treat candidate hits as hits (no PIP test; the
//     distance of any false positive to its polygon is bounded by the
//     diagonal of the largest boundary cell), or
//   * exact mode: refine candidate hits with the O(edges) ray-tracing PIP
//     test, read from the polygons' geom::PolygonSlab records.
//
// ExecuteJoin and ExecuteJoinPairs run one blocked kernel. Each block of
// kJoinBlock points goes through three passes:
//   1. descend: one Index::ProbeBatch call over the block's cell ids (the
//      trie walks them in lockstep groups, so the cache misses of
//      independent descents are in flight together);
//   2. visit: each entry's references are walked; true hits (and, in
//      approximate mode, candidates) are results, exact-mode candidates
//      are gathered as (polygon id, point) pairs;
//   3. refine: every gathered candidate's slab record is prefetched, then
//      PolygonSlab::Contains (the MBR reject, then the division-free
//      geom::RingCrossings per ring over the record's contiguous vertices)
//      runs over the gathered pairs.
//
// ExecuteJoin is templated over the index so ACT and the B-tree /
// sorted-vector baselines run byte-identical join code; only the probe
// differs. Multi-threading follows the paper's scheme with the block as the
// unit: worker threads fetch one block of kJoinBlock points at a time via
// an atomic counter and keep thread-local per-polygon counters that are
// aggregated at the end.

#ifndef ACTJOIN_ACT_JOIN_H_
#define ACTJOIN_ACT_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "act/lookup_table.h"
#include "act/tagged_entry.h"
#include "geometry/polygon.h"
#include "geometry/polygon_slab.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace actjoin::act {

enum class JoinMode {
  kApproximate,  // paper Sec. 3.2 (__APPROX branch of Listing 3)
  kExact,        // paper Sec. 3.3
};

struct JoinOptions {
  JoinMode mode = JoinMode::kExact;
  /// Library-wide thread convention (same as BuildOptions.threads):
  /// 0 => util::DefaultThreadCount() (hardware concurrency), positive
  /// values are taken literally. Benchmarks that need a clean
  /// single-threaded measurement pass 1 explicitly.
  int threads = 0;
};

/// Join input: parallel arrays of leaf cell ids and planar coordinates
/// (x = lng, y = lat). Cell ids are precomputed at load time, exactly like
/// the paper's experimental setup.
struct JoinInput {
  std::span<const uint64_t> cell_ids;
  std::span<const geom::Point> points;

  uint64_t size() const { return cell_ids.size(); }
};

struct JoinStats {
  uint64_t num_points = 0;
  uint64_t matched_points = 0;   // points with >= 1 output pair
  uint64_t result_pairs = 0;
  uint64_t true_hit_refs = 0;    // refs answered by true-hit filtering
  uint64_t candidate_refs = 0;   // refs needing refinement (or approx emit)
  uint64_t pip_tests = 0;        // exact mode only
  uint64_t pip_hits = 0;
  uint64_t sth_points = 0;       // points that skipped refinement entirely
  double seconds = 0;
  std::vector<uint64_t> counts;  // per-polygon result counts

  /// Adds `other`'s scalar probe counters into this one — every field
  /// except num_points, seconds, and counts. The shared merge step of
  /// ExecuteJoin's threads and of the service executor; per-polygon counts
  /// are summed by the caller.
  void AccumulateCounters(const JoinStats& other) {
    matched_points += other.matched_points;
    result_pairs += other.result_pairs;
    true_hit_refs += other.true_hit_refs;
    candidate_refs += other.candidate_refs;
    pip_tests += other.pip_tests;
    pip_hits += other.pip_hits;
    sth_points += other.sth_points;
  }

  double ThroughputMps() const {
    return seconds > 0 ? num_points / seconds / 1e6 : 0;
  }
  /// Paper Table 7 metric: % of points with no candidate hits.
  double SthPercent() const {
    return num_points == 0 ? 0 : 100.0 * sth_points / num_points;
  }
};

/// Points per block of the join kernel; also ParallelFor's fetch unit for
/// ExecuteJoin.
inline constexpr uint64_t kJoinBlock = 256;

namespace internal {

/// An exact-mode candidate awaiting refinement: the polygon and the
/// point's offset within its block.
struct RefineCandidate {
  uint32_t polygon_id;
  uint32_t point;
};

/// The join kernel over points [begin, end), end - begin <= kJoinBlock.
/// Calls emit(point index, polygon id) once per result pair and adds to
/// the probe counters of `c` (AccumulateCounters' fields). `candidates` is
/// the calling thread's reusable refine buffer.
template <typename Index, typename Emit>
void JoinBlock(const Index& index, const LookupTable& table,
               const JoinInput& input, const geom::PolygonSlab& slab,
               bool exact, uint64_t begin, uint64_t end,
               std::vector<RefineCandidate>* candidates, JoinStats* c,
               Emit&& emit) {
  const uint32_t m = static_cast<uint32_t>(end - begin);
  TaggedEntry entries[kJoinBlock];
  bool matched[kJoinBlock] = {};
  auto hit = [&](uint32_t k, uint32_t pid) {
    ++c->result_pairs;
    matched[k] = true;
    emit(begin + k, pid);
  };

  // 1. Descend.
  index.ProbeBatch(input.cell_ids.data() + begin, m, entries);

  // 2. Visit.
  candidates->clear();
  for (uint32_t k = 0; k < m; ++k) {
    bool had_candidate = false;
    auto visit = [&](uint32_t pid, bool true_hit) {
      if (true_hit) {
        ++c->true_hit_refs;
        hit(k, pid);
        return;
      }
      ++c->candidate_refs;
      had_candidate = true;
      if (exact) {
        candidates->push_back({pid, k});
      } else {
        hit(k, pid);  // approximate: the candidate is a hit
      }
    };
    VisitRefs(entries[k], table, visit);  // none for the sentinel
    if (!had_candidate) ++c->sth_points;  // no refinement needed
  }

  // 3. Refine. The prefetches overlap the misses on the candidates'
  // records.
  for (const RefineCandidate& cand : *candidates) {
    slab.Prefetch(cand.polygon_id);
  }
  c->pip_tests += candidates->size();
  for (const RefineCandidate& cand : *candidates) {
    if (slab.Contains(cand.polygon_id, input.points[begin + cand.point])) {
      ++c->pip_hits;
      hit(cand.point, cand.polygon_id);
    }
  }
  for (uint32_t k = 0; k < m; ++k) c->matched_points += matched[k];
}

}  // namespace internal

/// Runs the join. `Index` must provide
///   void ProbeBatch(const uint64_t* leaf_cell_ids, uint64_t n,
///                   TaggedEntry* out) const;
/// writing the same entries a per-id Probe would. `slab` holds one record
/// per polygon id the index references; per-polygon counts have
/// slab.size() entries.
template <typename Index>
JoinStats ExecuteJoin(const Index& index, const LookupTable& table,
                      const JoinInput& input, const geom::PolygonSlab& slab,
                      const JoinOptions& opts) {
  int threads = opts.threads <= 0 ? util::DefaultThreadCount() : opts.threads;
  const bool exact = opts.mode == JoinMode::kExact;
  const uint64_t n = input.size();

  // Cache-line aligned so neighbouring threads' counters never share one.
  struct alignas(64) ThreadState {
    std::vector<uint64_t> counts;
    std::vector<internal::RefineCandidate> candidates;
    JoinStats probe;  // counters only
  };
  std::vector<ThreadState> states(threads);
  for (auto& s : states) s.counts.assign(slab.size(), 0);

  util::WallTimer timer;
  util::ParallelFor(
      n, threads, kJoinBlock, [&](uint64_t begin, uint64_t end, int tid) {
        ThreadState& st = states[tid];
        internal::JoinBlock(index, table, input, slab, exact, begin, end,
                            &st.candidates, &st.probe,
                            [&](uint64_t, uint32_t pid) { ++st.counts[pid]; });
      });

  JoinStats out;
  out.seconds = timer.ElapsedSeconds();
  out.num_points = n;
  out.counts.assign(slab.size(), 0);
  for (const ThreadState& st : states) {
    out.AccumulateCounters(st.probe);
    for (size_t k = 0; k < out.counts.size(); ++k) {
      out.counts[k] += st.counts[k];
    }
  }
  return out;
}

/// Materializing variant used by tests and examples: returns (point
/// index, polygon id) pairs instead of counts. Single-threaded; runs the
/// same kernel as ExecuteJoin.
///
/// Ordering contract: the output is sorted ascending by (point index,
/// polygon id) and duplicate-free. This is a stable API guarantee, not an
/// implementation detail — ShardedIndex::JoinPairs and the join2 pair
/// producers promise the same shape, so any two producers of the same
/// predicate can be compared byte-for-byte (memcmp of the vectors).
template <typename Index>
std::vector<std::pair<uint64_t, uint32_t>> ExecuteJoinPairs(
    const Index& index, const LookupTable& table, const JoinInput& input,
    const geom::PolygonSlab& slab, JoinMode mode) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  std::vector<internal::RefineCandidate> candidates;
  JoinStats counters;  // the kernel's tally; pairs are the result here
  util::ParallelFor(
      input.size(), 1, kJoinBlock, [&](uint64_t begin, uint64_t end, int) {
        internal::JoinBlock(
            index, table, input, slab, mode == JoinMode::kExact, begin,
            end, &candidates, &counters,
            [&](uint64_t p, uint32_t pid) { out.emplace_back(p, pid); });
      });
  std::sort(out.begin(), out.end());
  return out;
}

/// Reference (index-free) nested-loop join through geom::ContainsPoint on
/// the Polygon objects; the oracle for all tests.
std::vector<std::pair<uint64_t, uint32_t>> BruteForceJoinPairs(
    const JoinInput& input, const std::vector<geom::Polygon>& polygons);

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_JOIN_H_
