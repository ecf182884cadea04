#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>

#include "act/act.h"
#include "act/join.h"
#include "util/timer.h"

namespace actjoin::bench {

namespace {

// Smoke-report state shared between ParseEnv (which learns the report path
// from the flags), NoteThroughput (called from measurement loops), and
// BenchMain (which writes the line). One bench binary = one process, so
// plain globals are sufficient.
std::string g_smoke_report_path;
double g_best_mpoints_s = 0;

}  // namespace

BenchEnv ParseEnv(int argc, char** argv, util::Flags* flags,
                  double default_scale, uint64_t default_points) {
  flags->AddDouble("scale", default_scale,
                   "dataset scale factor (1.0 = paper-sized polygon sets)");
  flags->AddInt("points", static_cast<int64_t>(default_points),
                "number of join points");
  flags->AddInt("threads", 1, "worker threads");
  flags->AddInt("reps", 2, "measurement repetitions (max reported)");
  flags->AddBool("csv", false, "also print CSV rows");
  flags->AddBool("full", false, "paper-scale run (scale=1, 20M points)");
  flags->AddBool("smoke", false,
                 "tiny verification run, seconds (overrides --full)");
  flags->AddString("smoke_report", "",
                   "append a JSON result line to this file after the run");
  flags->Parse(argc, argv);

  BenchEnv env;
  env.scale = flags->GetDouble("scale");
  env.points = static_cast<uint64_t>(flags->GetInt("points"));
  env.threads = static_cast<int>(flags->GetInt("threads"));
  env.reps = std::max(1, static_cast<int>(flags->GetInt("reps")));
  env.csv = flags->GetBool("csv");
  if (flags->GetBool("full")) {
    env.scale = 1.0;
    env.points = std::max<uint64_t>(env.points, 20'000'000);
  }
  if (flags->GetBool("smoke")) {
    env.smoke = true;
    env.scale = std::min(env.scale, 0.02);
    env.points = std::min<uint64_t>(env.points, 50'000);
    env.reps = 1;
  }
  g_smoke_report_path = flags->GetString("smoke_report");
  return env;
}

std::vector<wl::PolygonDataset> NycDatasets(const BenchEnv& env) {
  // Boroughs stay at their paper count (5 complex polygons) — they are
  // cheap; neighborhoods/census shrink with the scale.
  return {wl::Boroughs(1.0), wl::Neighborhoods(env.scale),
          wl::Census(env.scale)};
}

wl::PointSet Taxi(const BenchEnv& env, const geom::Rect& mbr, uint64_t seed) {
  return wl::TaxiPoints(mbr, env.points, env.grid, seed);
}

wl::PointSet Uniform(const BenchEnv& env, const geom::Rect& mbr,
                     uint64_t seed) {
  return wl::SyntheticUniformPoints(mbr, env.points, env.grid, seed);
}

namespace {

template <typename Index>
StructureRun MeasureJoin(const std::string& name, const Index& index,
                         const act::LookupTable& table,
                         const geom::PolygonSlab& slab,
                         const act::JoinInput& input,
                         const act::JoinOptions& opts, int reps) {
  StructureRun run;
  run.name = name;
  for (int r = 0; r < reps; ++r) {
    act::JoinStats stats = act::ExecuteJoin(index, table, input, slab, opts);
    if (stats.ThroughputMps() > run.mpoints_s) {
      run.mpoints_s = stats.ThroughputMps();
      run.stats = stats;
    }
  }
  NoteThroughput(run.mpoints_s);
  return run;
}

}  // namespace

std::vector<StructureRun> RunAllStructures(
    const act::EncodedCovering& enc,
    const std::vector<geom::Polygon>& polygons, const act::JoinInput& input,
    const act::JoinOptions& opts, int reps) {
  std::vector<StructureRun> out;
  const geom::PolygonSlab slab(polygons);
  util::WallTimer timer;

  for (int bits : {2, 4, 8}) {
    timer.Restart();
    act::AdaptiveCellTrie trie(enc, {.bits_per_level = bits});
    double build_s = timer.ElapsedSeconds();
    StructureRun run = MeasureJoin("ACT" + std::to_string(bits / 2),
                                   trie, enc.table, slab, input, opts,
                                   reps);
    run.build_s = build_s;
    run.bytes = trie.stats().memory_bytes;
    out.push_back(std::move(run));
  }

  timer.Restart();
  baselines::BTreeCellIndex gbt(enc);
  double gbt_build = timer.ElapsedSeconds();
  StructureRun gbt_run =
      MeasureJoin("GBT", gbt, enc.table, slab, input, opts, reps);
  gbt_run.build_s = gbt_build;
  gbt_run.bytes = gbt.MemoryBytes();
  out.push_back(std::move(gbt_run));

  baselines::SortedVectorIndex lb(enc);
  StructureRun lb_run =
      MeasureJoin("LB", lb, enc.table, slab, input, opts, reps);
  lb_run.build_s = 0;  // covering is already sorted (paper Sec. 4.1)
  lb_run.bytes = lb.MemoryBytes();
  out.push_back(std::move(lb_run));

  return out;
}

act::SuperCovering BuildCovering(const wl::PolygonDataset& ds,
                                 const BenchEnv& env,
                                 const act::PolygonClassifier& classifier,
                                 std::optional<double> precision_bound_m,
                                 act::BuildTimings* timings) {
  act::BuildOptions opts;
  opts.precision_bound_m = precision_bound_m;
  opts.threads = env.threads;
  return act::BuildSuperCovering(ds.polygons, env.grid, classifier, opts,
                                 timings);
}

std::string Mib(uint64_t bytes) {
  return util::TablePrinter::Fmt(static_cast<double>(bytes) / (1024.0 * 1024),
                                 2);
}

void Emit(const BenchEnv& env, const util::TablePrinter& table) {
  table.Print();
  if (env.csv) {
    std::printf("\n");
    table.PrintCsv();
  }
  std::printf("\n");
}

void NoteThroughput(double mpoints_s) {
  g_best_mpoints_s = std::max(g_best_mpoints_s, mpoints_s);
}

const std::string& SmokeReportPath() { return g_smoke_report_path; }

void AppendSmokeReport(const std::string& path, const char* name,
                       double throughput_mps, double wall_ms) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "smoke_report: cannot open %s\n", path.c_str());
    return;
  }
  // One fprintf -> one write on a line-sized buffer: concurrent appenders
  // (ctest -j) cannot interleave mid-line.
  std::fprintf(
      f, "{\"name\":\"%s\",\"throughput_mps\":%.4f,\"wall_ms\":%.1f}\n",
      name, throughput_mps, wall_ms);
  std::fclose(f);
}

int BenchMain(int argc, char** argv, const char* name,
              int (*run)(int argc, char** argv)) {
  util::WallTimer timer;
  int rc = run(argc, argv);
  double wall_ms = timer.ElapsedMillis();
  if (rc == 0 && !g_smoke_report_path.empty()) {
    AppendSmokeReport(g_smoke_report_path, name, g_best_mpoints_s, wall_ms);
  }
  return rc;
}

}  // namespace actjoin::bench
