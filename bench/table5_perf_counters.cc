// Reproduces paper Table 5: performance counters per probed point
// (neighborhoods, 4 m) for uniform vs taxi-analog points across the five
// data structures. Counters come from perf_event_open when the kernel
// permits; otherwise cycles fall back to the TSC and the other counters are
// reported as n/a (the *relative ordering* across structures, which is the
// table's point, survives the substitution).

#include <cstdio>

#include "act/act.h"
#include "bench/bench_common.h"
#include "util/perf_counters.h"

namespace actjoin::bench {
namespace {

struct CounterRow {
  double cycles = -1, instructions = -1, branch_misses = -1,
         cache_misses = -1;
};

template <typename Index>
CounterRow MeasureCounters(const Index& index, const act::LookupTable& table,
                           const act::JoinInput& input,
                           const geom::PolygonSlab& slab) {
  util::PerfCounterGroup group;
  group.Start();
  act::JoinStats stats = act::ExecuteJoin(
      index, table, input, slab, {act::JoinMode::kApproximate, 1});
  util::PerfSample sample = group.Stop();
  NoteThroughput(stats.ThroughputMps());
  CounterRow row;
  double n = static_cast<double>(input.size());
  if (sample.cycles.valid) row.cycles = sample.cycles.value / n;
  if (sample.instructions.valid) {
    row.instructions = sample.instructions.value / n;
  }
  if (sample.branch_misses.valid) {
    row.branch_misses = sample.branch_misses.value / n;
  }
  if (sample.cache_misses.valid) {
    row.cache_misses = sample.cache_misses.value / n;
  }
  return row;
}

std::string FmtCounter(double v, int precision) {
  if (v < 0) return "n/a";
  return util::TablePrinter::Fmt(v, precision);
}

int Run(int argc, char** argv) {
  util::Flags flags;
  BenchEnv env = ParseEnv(argc, argv, &flags, 0.1, 1'000'000);

  util::PerfCounterGroup probe_group;
  std::printf("Table 5: counters per point (neighborhoods, 4 m, scale=%.3g)"
              " — %s\n\n",
              env.scale,
              probe_group.UsingHardwareEvents()
                  ? "hardware perf events"
                  : "TSC fallback (perf_event_open unavailable)");

  wl::PolygonDataset ds = wl::Neighborhoods(env.scale);
  act::PolygonClassifier classifier(ds.polygons, env.grid, env.threads);
  act::SuperCovering sc = BuildCovering(ds, env, classifier, 4.0, nullptr);
  act::EncodedCovering enc = act::Encode(sc);
  const geom::PolygonSlab slab(ds.polygons);

  util::TablePrinter table({"points", "index", "cycles", "instructions",
                            "branch misses", "cache misses"});
  for (bool uniform : {true, false}) {
    wl::PointSet pts = uniform ? Uniform(env, ds.mbr) : Taxi(env, ds.mbr);
    act::JoinInput input = pts.AsJoinInput();
    const char* kind = uniform ? "uniform" : "taxi";

    for (int bits : {2, 4, 8}) {
      act::AdaptiveCellTrie trie(enc, {.bits_per_level = bits});
      CounterRow row = MeasureCounters(trie, enc.table, input, slab);
      table.AddRow({kind, "ACT" + std::to_string(bits / 2),
                    FmtCounter(row.cycles, 1), FmtCounter(row.instructions, 1),
                    FmtCounter(row.branch_misses, 2),
                    FmtCounter(row.cache_misses, 2)});
    }
    baselines::BTreeCellIndex gbt(enc);
    CounterRow gbt_row = MeasureCounters(gbt, enc.table, input, slab);
    table.AddRow({kind, "GBT", FmtCounter(gbt_row.cycles, 1),
                  FmtCounter(gbt_row.instructions, 1),
                  FmtCounter(gbt_row.branch_misses, 2),
                  FmtCounter(gbt_row.cache_misses, 2)});
    baselines::SortedVectorIndex lb(enc);
    CounterRow lb_row = MeasureCounters(lb, enc.table, input, slab);
    table.AddRow({kind, "LB", FmtCounter(lb_row.cycles, 1),
                  FmtCounter(lb_row.instructions, 1),
                  FmtCounter(lb_row.branch_misses, 2),
                  FmtCounter(lb_row.cache_misses, 2)});
  }
  Emit(env, table);
  std::printf(
      "Paper shape (taxi): ACT4 56 cycles/point vs GBT 416 and LB 817;\n"
      "branch and cache misses follow the same ordering.\n");
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "table5_perf_counters",
                                   actjoin::bench::Run);
}
