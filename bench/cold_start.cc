// Cold-start benchmark (src/store/): loading a served index from the
// snapshot store versus rebuilding it from raw polygons.
//
// The store's reason to exist is the restart path: a rebuild re-runs the
// whole covering pipeline (per-polygon coverings, super-covering merge),
// while a load is a sequential file read
// plus the classifier/encoding/trie re-derivation both paths share. This
// bench measures exactly that delta, per NYC dataset and in total, and
// verifies the loaded index answers joins byte-identically to the rebuilt
// one before trusting any timing.
//
// --smoke appends `cold_start_load` / `cold_start_rebuild` lines to
// bench_smoke.json (wall_ms carries the signal; throughput_mps is
// polygons restored per second, in millions) and *fails* unless the load
// beats the rebuild — the store's acceptance criterion.
//
// Extra flags: --store_dir.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "service/sharded_index.h"
#include "store/snapshot_store.h"
#include "util/timer.h"

namespace actjoin::bench {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  flags.AddString("store_dir", "cold_start_store",
                  "snapshot store directory (created if missing)");
  BenchEnv env = ParseEnv(argc, argv, &flags);

  store::SnapshotStore store;
  std::string error;
  if (!store.Open({.dir = flags.GetString("store_dir")}, &error)) {
    std::fprintf(stderr, "cold_start: cannot open store: %s\n", error.c_str());
    return 1;
  }

  std::vector<wl::PolygonDataset> datasets = NycDatasets(env);
  std::printf(
      "Cold start: store load vs full rebuild, %d rep(s) (scale=%.3g)\n\n",
      env.reps, env.scale);
  util::TablePrinter table({"dataset", "polygons", "rebuild [ms]",
                            "load [ms]", "speedup"});

  service::ShardingOptions sharding;
  sharding.build.threads = env.threads;

  double total_rebuild_s = 0, total_load_s = 0;
  uint64_t total_polygons = 0;
  double load_polygons_mps = 0;
  for (const wl::PolygonDataset& ds : datasets) {
    const std::string name = "cold-" + ds.name;

    // Rebuild path: what a storeless restart pays. Best-of-reps, like
    // every throughput number in this suite.
    double rebuild_s = 0;
    std::shared_ptr<const service::ShardedIndex> built;
    for (int r = 0; r < env.reps; ++r) {
      util::WallTimer timer;
      auto index = std::make_shared<const service::ShardedIndex>(
          service::ShardedIndex::Build(ds.polygons, env.grid, sharding));
      double seconds = timer.ElapsedSeconds();
      if (built == nullptr || seconds < rebuild_s) rebuild_s = seconds;
      built = std::move(index);
    }

    // Persist once (a checkpoint is off the restart path), then measure
    // the load path a restart actually runs.
    if (!store.Put(name, *built, nullptr, &error)) {
      std::fprintf(stderr, "cold_start: put failed: %s\n", error.c_str());
      return 1;
    }
    double load_s = 0;
    std::shared_ptr<const service::ShardedIndex> loaded;
    for (int r = 0; r < env.reps; ++r) {
      util::WallTimer timer;
      store::LoadReport report;
      auto index = store.Load(name, &report);
      double seconds = timer.ElapsedSeconds();
      if (index == nullptr) {
        std::fprintf(stderr, "cold_start: load failed: %s\n",
                     report.detail.c_str());
        return 1;
      }
      if (loaded == nullptr || seconds < load_s) load_s = seconds;
      loaded = std::move(index);
    }

    // Timings mean nothing unless the loaded index is the built index:
    // exact-mode joins must agree byte for byte.
    wl::PointSet pts = wl::TaxiPoints(
        ds.mbr, std::min<uint64_t>(env.points, 50'000), env.grid, 91);
    act::JoinStats want =
        built->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    act::JoinStats got =
        loaded->Join(pts.AsJoinInput(), {act::JoinMode::kExact, 1});
    if (got.counts != want.counts || got.result_pairs != want.result_pairs ||
        got.matched_points != want.matched_points) {
      std::fprintf(stderr,
                   "cold_start: loaded index diverged from rebuilt index "
                   "(%s)\n",
                   ds.name.c_str());
      return 1;
    }

    total_rebuild_s += rebuild_s;
    total_load_s += load_s;
    total_polygons += ds.polygons.size();
    if (load_s > 0) {
      load_polygons_mps = std::max(
          load_polygons_mps,
          static_cast<double>(ds.polygons.size()) / load_s / 1e6);
    }
    table.AddRow({ds.name, std::to_string(ds.polygons.size()),
                  util::TablePrinter::Fmt(rebuild_s * 1e3, 2),
                  util::TablePrinter::Fmt(load_s * 1e3, 2),
                  util::TablePrinter::Fmt(
                      load_s > 0 ? rebuild_s / load_s : 0, 1)});
  }
  table.AddRow({"TOTAL", std::to_string(total_polygons),
                util::TablePrinter::Fmt(total_rebuild_s * 1e3, 2),
                util::TablePrinter::Fmt(total_load_s * 1e3, 2),
                util::TablePrinter::Fmt(
                    total_load_s > 0 ? total_rebuild_s / total_load_s : 0,
                    1)});
  Emit(env, table);
  store.GarbageCollect();

  // The restore rate drives this binary's summary line.
  if (total_load_s > 0) {
    NoteThroughput(static_cast<double>(total_polygons) / total_load_s / 1e6);
  }
  if (!SmokeReportPath().empty()) {
    AppendSmokeReport(SmokeReportPath(), "cold_start_rebuild",
                      total_rebuild_s > 0
                          ? static_cast<double>(total_polygons) /
                                total_rebuild_s / 1e6
                          : 0,
                      total_rebuild_s * 1e3);
    AppendSmokeReport(SmokeReportPath(), "cold_start_load",
                      total_load_s > 0
                          ? static_cast<double>(total_polygons) /
                                total_load_s / 1e6
                          : 0,
                      total_load_s * 1e3);
  }

  if (env.smoke && total_load_s >= total_rebuild_s) {
    // The acceptance gate: if loading the store is not faster than
    // rebuilding from polygons, the store lost its reason to exist.
    std::fprintf(stderr,
                 "cold_start: store load (%.2f ms) did not beat rebuild "
                 "(%.2f ms)\n",
                 total_load_s * 1e3, total_rebuild_s * 1e3);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "cold_start",
                                   actjoin::bench::Run);
}
