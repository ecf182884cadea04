// Polygon×polygon crossmatch A/B: the dual-trie synchronized descent
// (src/join2/) versus the classic R-tree spatial join on the paper's
// containment-rich NYC pairing — boroughs (few, very complex boundaries)
// × census blocks (many, simple). Both engines refine with the shared
// predicates in geometry/poly_poly.h, so their outputs are byte-identical
// by construction; every rep asserts that before its timing counts.
//
// The comparable number is effective cross-product throughput: both arms
// answer the same |A|·|B| question, so (|A|·|B| / seconds) ratios equal
// speed ratios — candidate counts do not (an engine with worse filter
// recall "processes" more candidate pairs while being slower).
//
// --smoke alternates the arms rep by rep (both see the same ambient
// contention under parallel ctest) and *gates* the best per-rep ratio of
// combined both-modes wall time, rtree/dual >= 1: the dual-trie
// crossmatch must not lose to the baseline it exists to beat. Per-mode
// series land in the smoke report for the perf trajectory.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/rtree.h"
#include "bench/bench_common.h"
#include "join2/cross_match.h"
#include "service/sharded_index.h"
#include "util/timer.h"
#include "util/work_stealing_pool.h"

namespace actjoin::bench {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  BenchEnv env = ParseEnv(argc, argv, &flags);
  if (env.smoke) {
    env.threads = 4;
    env.reps = 3;
  }

  // Boroughs stay at the paper's five complex polygons (they are the
  // expensive-refinement side); census scales.
  wl::PolygonDataset ds_a = wl::Boroughs(1.0);
  wl::PolygonDataset ds_b = wl::Census(env.scale);
  const double cross_product =
      static_cast<double>(ds_a.polygons.size()) *
      static_cast<double>(ds_b.polygons.size());

  service::ShardingOptions sharding;
  sharding.build.precision_bound_m = 60.0;
  sharding.build.threads = env.threads;

  util::WallTimer build_timer;
  service::ShardedIndex index_a =
      service::ShardedIndex::Build(ds_a.polygons, env.grid, sharding);
  service::ShardedIndex index_b =
      service::ShardedIndex::Build(ds_b.polygons, env.grid, sharding);
  join2::IntervalView view_a = join2::IntervalView::FromIndex(index_a);
  join2::IntervalView view_b = join2::IntervalView::FromIndex(index_b);
  double trie_build_s = build_timer.ElapsedSeconds();

  build_timer = util::WallTimer();
  baselines::RTree rtree_a = baselines::BuildPolygonRTree(ds_a.polygons);
  baselines::RTree rtree_b = baselines::BuildPolygonRTree(ds_b.polygons);
  double rtree_build_s = build_timer.ElapsedSeconds();

  std::printf(
      "Crossmatch %s (%zu polys, avg %.0f vertices) x %s (%zu polys, "
      "avg %.0f vertices): %d threads, scale=%.3g\n"
      "  probe surfaces: %zu + %zu intervals (coarsened); build: "
      "dual-trie %.3f s, r-tree %.3f s\n\n",
      ds_a.name.c_str(), ds_a.polygons.size(), ds_a.AvgVertices(),
      ds_b.name.c_str(), ds_b.polygons.size(), ds_b.AvgVertices(),
      env.threads, env.scale, view_a.size(), view_b.size(), trie_build_s,
      rtree_build_s);

  util::TablePrinter table({"mode", "engine", "candidates", "result pairs",
                            "wall [ms]", "x-product [Mpairs/s]"});

  const join2::CrossMatchMode kModes[2] = {join2::CrossMatchMode::kIntersects,
                                           join2::CrossMatchMode::kContains};
  util::WorkStealingPool pool(std::max(0, env.threads - 1));
  double dual_best_s[2] = {-1, -1}, rtree_best_s[2] = {-1, -1};
  join2::CrossMatchStats dual_stats[2];
  baselines::RTreeCrossMatchStats rtree_stats[2];
  double best_pair_ratio = 0;  // best per-rep combined rtree/dual ratio
  // Arms and modes interleave within each rep and each keeps its own best
  // time, so the gated ratio compares temporally adjacent runs under the
  // same ambient load.
  for (int r = 0; r < env.reps; ++r) {
    double dual_rep_s = 0, rtree_rep_s = 0;
    for (int m = 0; m < 2; ++m) {
      const bool contains = kModes[m] == join2::CrossMatchMode::kContains;
      join2::CrossMatchOptions opts;
      opts.mode = kModes[m];
      opts.threads = env.threads;
      join2::CrossMatchStats dstats;
      std::vector<std::pair<uint32_t, uint32_t>> dual =
          join2::CrossMatch(view_a, view_b, opts, &pool, &dstats);
      baselines::RTreeCrossMatchStats rstats;
      std::vector<std::pair<uint32_t, uint32_t>> base =
          baselines::RTreeCrossMatch(rtree_a, ds_a.polygons, rtree_b,
                                     ds_b.polygons, contains, &rstats);
      if (dual != base) {
        std::fprintf(stderr,
                     "FAIL: %s crossmatch disagrees with the r-tree "
                     "baseline (%zu vs %zu pairs)\n",
                     join2::ToString(kModes[m]), dual.size(), base.size());
        return 1;
      }
      if (dual_best_s[m] < 0 || dstats.seconds < dual_best_s[m]) {
        dual_best_s[m] = dstats.seconds;
        dual_stats[m] = dstats;
      }
      if (rtree_best_s[m] < 0 || rstats.seconds < rtree_best_s[m]) {
        rtree_best_s[m] = rstats.seconds;
        rtree_stats[m] = rstats;
      }
      dual_rep_s += dstats.seconds;
      rtree_rep_s += rstats.seconds;
    }
    if (dual_rep_s > 0 && rtree_rep_s > 0) {
      best_pair_ratio = std::max(best_pair_ratio, rtree_rep_s / dual_rep_s);
    }
  }

  double dual_mpairs_s[2], rtree_mpairs_s[2];
  for (int m = 0; m < 2; ++m) {
    dual_mpairs_s[m] =
        dual_best_s[m] > 0 ? cross_product / dual_best_s[m] / 1e6 : 0;
    rtree_mpairs_s[m] =
        rtree_best_s[m] > 0 ? cross_product / rtree_best_s[m] / 1e6 : 0;
    table.AddRow({join2::ToString(kModes[m]), "dual-trie",
                  std::to_string(dual_stats[m].candidate_pairs),
                  std::to_string(dual_stats[m].result_pairs),
                  util::TablePrinter::Fmt(dual_best_s[m] * 1e3, 2),
                  util::TablePrinter::Fmt(dual_mpairs_s[m], 2)});
    table.AddRow({join2::ToString(kModes[m]), "r-tree x r-tree",
                  std::to_string(rtree_stats[m].candidate_pairs),
                  std::to_string(rtree_stats[m].result_pairs),
                  util::TablePrinter::Fmt(rtree_best_s[m] * 1e3, 2),
                  util::TablePrinter::Fmt(rtree_mpairs_s[m], 2)});
  }

  Emit(env, table);
  std::printf("best same-rep combined speed ratio (dual-trie over "
              "r-tree): %.2fx\n",
              best_pair_ratio);
  NoteThroughput(std::max(dual_mpairs_s[0], dual_mpairs_s[1]));
  if (!SmokeReportPath().empty()) {
    AppendSmokeReport(SmokeReportPath(), "spatial_join/dual_trie_intersects",
                      dual_mpairs_s[0], dual_best_s[0] * 1e3);
    AppendSmokeReport(SmokeReportPath(), "spatial_join/dual_trie_contains",
                      dual_mpairs_s[1], dual_best_s[1] * 1e3);
    AppendSmokeReport(SmokeReportPath(), "spatial_join/rtree_intersects",
                      rtree_mpairs_s[0], rtree_best_s[0] * 1e3);
    AppendSmokeReport(SmokeReportPath(), "spatial_join/rtree_contains",
                      rtree_mpairs_s[1], rtree_best_s[1] * 1e3);
  }
  if (env.smoke && best_pair_ratio < 1.0) {
    std::fprintf(stderr,
                 "FAIL: dual-trie crossmatch lost to the r-tree baseline "
                 "in every rep (best combined ratio %.3f)\n",
                 best_pair_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "spatial_join",
                                   actjoin::bench::Run);
}
