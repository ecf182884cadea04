// Delta-update benchmark (src/service/ + src/store/): applying a live
// mutation copy-on-write versus rebuilding the whole index, and restarting
// from a full+delta chain versus a compacted full snapshot.
//
// Live mutation's reason to exist is the apply path: a full rebuild re-runs
// the covering pipeline over every polygon, while ApplyDelta recomputes
// coverings only for the added batch and re-derives the trie from the
// cloned covering.
// This bench measures exactly that delta, per NYC dataset and in total, and
// verifies both correctness halves before trusting any timing:
//
//   * the delta-applied index answers exact-mode joins byte-identically to
//     a fresh build over the same final polygon set;
//   * a store restart replaying full -> delta(add) -> delta(remove) serves
//     byte-identically to a restart from one compacted full snapshot of the
//     same mutated index.
//
// --smoke appends `delta_update_apply` / `delta_update_rebuild` lines to
// bench_smoke.json (wall_ms carries the signal; throughput_mps is polygons
// mutated per second, in millions) and *fails* unless the apply beats the
// rebuild — the mutation path's acceptance criterion.
//
// Extra flags: --churn (fraction of each dataset arriving as the
// live add batch), --store_dir.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "service/mutation_journal.h"
#include "service/sharded_index.h"
#include "store/snapshot_store.h"
#include "util/timer.h"

namespace actjoin::bench {
namespace {

bool SameJoin(const act::JoinStats& a, const act::JoinStats& b) {
  return a.counts == b.counts && a.result_pairs == b.result_pairs &&
         a.matched_points == b.matched_points;
}

int Run(int argc, char** argv) {
  util::Flags flags;
  flags.AddDouble("churn", 0.1,
                  "fraction of each dataset arriving as the live add batch");
  flags.AddString("store_dir", "delta_update_store",
                  "snapshot store directory (created if missing)");
  BenchEnv env = ParseEnv(argc, argv, &flags);
  const double churn =
      std::clamp(flags.GetDouble("churn"), 0.01, 0.9);

  store::SnapshotStore store;
  std::string error;
  if (!store.Open({.dir = flags.GetString("store_dir")}, &error)) {
    std::fprintf(stderr, "delta_update: cannot open store: %s\n",
                 error.c_str());
    return 1;
  }

  std::vector<wl::PolygonDataset> datasets = NycDatasets(env);
  std::printf(
      "Delta update: copy-on-write apply vs full rebuild, churn=%.2f, "
      "%d rep(s) (scale=%.3g)\n\n",
      churn, env.reps, env.scale);
  util::TablePrinter table({"dataset", "base", "added", "rebuild [ms]",
                            "apply [ms]", "speedup"});

  service::ShardingOptions sharding;
  sharding.build.threads = env.threads;

  double total_rebuild_s = 0, total_apply_s = 0;
  uint64_t total_added = 0;
  for (const wl::PolygonDataset& ds : datasets) {
    if (ds.polygons.size() < 4) continue;
    // Split: the head is the standing index, the tail arrives live.
    const size_t n_add = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(ds.polygons.size()) *
                               churn));
    const size_t n_base = ds.polygons.size() - n_add;
    std::vector<geom::Polygon> base_polys(ds.polygons.begin(),
                                          ds.polygons.begin() +
                                              static_cast<ptrdiff_t>(n_base));
    std::vector<geom::Polygon> add_polys(ds.polygons.begin() +
                                             static_cast<ptrdiff_t>(n_base),
                                         ds.polygons.end());

    auto base = std::make_shared<const service::ShardedIndex>(
        service::ShardedIndex::Build(base_polys, env.grid, sharding));

    // Rebuild path: what an update without ApplyDelta pays — the whole
    // covering pipeline over base + batch. Best-of-reps.
    double rebuild_s = 0;
    std::shared_ptr<const service::ShardedIndex> rebuilt;
    for (int r = 0; r < env.reps; ++r) {
      util::WallTimer timer;
      auto index = std::make_shared<const service::ShardedIndex>(
          service::ShardedIndex::Build(ds.polygons, env.grid, sharding));
      double seconds = timer.ElapsedSeconds();
      if (rebuilt == nullptr || seconds < rebuild_s) rebuild_s = seconds;
      rebuilt = std::move(index);
    }

    // Apply path: coverings computed for the batch only, the rest of the
    // covering cloned.
    double apply_s = 0;
    std::shared_ptr<const service::ShardedIndex> applied;
    for (int r = 0; r < env.reps; ++r) {
      service::ShardedIndex::Delta delta;
      delta.add = add_polys;
      util::WallTimer timer;
      service::ShardedIndex::DeltaResult res =
          service::ShardedIndex::ApplyDelta(*base, delta);
      double seconds = timer.ElapsedSeconds();
      if (applied == nullptr || seconds < apply_s) apply_s = seconds;
      applied = std::move(res.index);
    }

    // Timings mean nothing unless the applied index *is* the rebuilt one:
    // exact-mode joins must agree byte for byte.
    wl::PointSet pts = wl::TaxiPoints(
        ds.mbr, std::min<uint64_t>(env.points, 50'000), env.grid, 91);
    act::JoinStats want =
        rebuilt->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    act::JoinStats got =
        applied->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    if (!SameJoin(want, got)) {
      std::fprintf(stderr,
                   "delta_update: applied index diverged from rebuilt "
                   "index (%s)\n",
                   ds.name.c_str());
      return 1;
    }

    // Restart equivalence: full(base) -> delta(add) -> delta(remove)
    // replayed by the store must serve exactly like one compacted full
    // snapshot of the same mutated index.
    std::vector<uint32_t> remove_ids;
    for (uint32_t gid = 0; gid < static_cast<uint32_t>(n_base);
         gid += 7) {
      remove_ids.push_back(gid);
    }
    service::ShardedIndex::Delta remove_delta;
    remove_delta.remove = remove_ids;
    std::shared_ptr<const service::ShardedIndex> final_index =
        service::ShardedIndex::ApplyDelta(*applied, remove_delta).index;

    const std::string chain_name = "delta-" + ds.name;
    const std::string compact_name = "compact-" + ds.name;
    service::MutationRecord add_rec;
    add_rec.kind = service::MutationRecord::Kind::kAdd;
    add_rec.added = add_polys;
    service::MutationRecord remove_rec;
    remove_rec.kind = service::MutationRecord::Kind::kRemove;
    remove_rec.removed = remove_ids;
    if (!store.Put(chain_name, *base, nullptr, &error) ||
        !store.PutDelta(chain_name, {add_rec}, nullptr, &error) ||
        !store.PutDelta(chain_name, {remove_rec}, nullptr, &error) ||
        !store.Put(compact_name, *final_index, nullptr, &error)) {
      std::fprintf(stderr, "delta_update: persist failed: %s\n",
                   error.c_str());
      return 1;
    }
    store::LoadReport chain_report, compact_report;
    auto from_chain = store.Load(chain_name, &chain_report);
    auto from_compact = store.Load(compact_name, &compact_report);
    if (from_chain == nullptr || from_compact == nullptr ||
        chain_report.deltas_applied != 2) {
      std::fprintf(stderr,
                   "delta_update: restart failed (%s / %s; deltas=%u)\n",
                   chain_report.detail.c_str(),
                   compact_report.detail.c_str(),
                   chain_report.deltas_applied);
      return 1;
    }
    act::JoinStats chain_join =
        from_chain->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    act::JoinStats compact_join =
        from_compact->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    act::JoinStats live_join =
        final_index->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    if (!SameJoin(chain_join, live_join) ||
        !SameJoin(chain_join, compact_join)) {
      std::fprintf(stderr,
                   "delta_update: restart-from-chain diverged from "
                   "restart-from-compacted (%s)\n",
                   ds.name.c_str());
      return 1;
    }

    total_rebuild_s += rebuild_s;
    total_apply_s += apply_s;
    total_added += n_add;
    table.AddRow({ds.name, std::to_string(n_base), std::to_string(n_add),
                  util::TablePrinter::Fmt(rebuild_s * 1e3, 2),
                  util::TablePrinter::Fmt(apply_s * 1e3, 2),
                  util::TablePrinter::Fmt(
                      apply_s > 0 ? rebuild_s / apply_s : 0, 1)});
  }
  table.AddRow({"TOTAL", "", std::to_string(total_added),
                util::TablePrinter::Fmt(total_rebuild_s * 1e3, 2),
                util::TablePrinter::Fmt(total_apply_s * 1e3, 2),
                util::TablePrinter::Fmt(
                    total_apply_s > 0 ? total_rebuild_s / total_apply_s : 0,
                    1)});
  Emit(env, table);
  store.GarbageCollect();

  // Mutation throughput (polygons added per second) drives the summary.
  if (total_apply_s > 0) {
    NoteThroughput(static_cast<double>(total_added) / total_apply_s / 1e6);
  }
  if (!SmokeReportPath().empty()) {
    AppendSmokeReport(SmokeReportPath(), "delta_update_rebuild",
                      total_rebuild_s > 0
                          ? static_cast<double>(total_added) /
                                total_rebuild_s / 1e6
                          : 0,
                      total_rebuild_s * 1e3);
    AppendSmokeReport(SmokeReportPath(), "delta_update_apply",
                      total_apply_s > 0
                          ? static_cast<double>(total_added) /
                                total_apply_s / 1e6
                          : 0,
                      total_apply_s * 1e3);
  }

  if (env.smoke && total_apply_s >= total_rebuild_s) {
    // The acceptance gate: if applying a delta is not faster than
    // rebuilding from scratch, live mutation lost its reason to exist.
    std::fprintf(stderr,
                 "delta_update: delta apply (%.2f ms) did not beat rebuild "
                 "(%.2f ms)\n",
                 total_apply_s * 1e3, total_rebuild_s * 1e3);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "delta_update",
                                   actjoin::bench::Run);
}
