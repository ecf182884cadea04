// Reproduces paper Figure 11: ACT4 (multi-threaded) against the GPU raster
// join, simulated on the CPU: Bounded Raster Join for 15 m / 4 m precision
// and Accurate Raster Join for exact results, across the three NYC polygon
// datasets. The simulation keeps the two effects Fig. 11 hinges on — the
// uniform grid's insensitivity to polygon count, and the multi-pass
// slowdown once the precision-mandated resolution exceeds the native
// limit. Absolute GPU numbers are out of scope (documented in DESIGN.md).

#include <cstdio>

#include "act/act.h"
#include "baselines/raster_join.h"
#include "bench/bench_common.h"

namespace actjoin::bench {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  flags.AddInt("native", 4096,
               "simulated native raster resolution per pass");
  BenchEnv env = ParseEnv(argc, argv, &flags);
  int native = static_cast<int>(flags.GetInt("native"));

  std::printf("Figure 11: ACT4 vs raster join (CPU-simulated GPU), "
              "threads=%d, scale=%.3g, native=%d\n\n",
              env.threads, env.scale, native);

  util::TablePrinter table({"polygons", "mode", "system",
                            "throughput [M points/s]", "passes"});
  for (const wl::PolygonDataset& ds : NycDatasets(env)) {
    act::PolygonClassifier classifier(ds.polygons, env.grid, env.threads);
    const geom::PolygonSlab slab(ds.polygons);
    wl::PointSet pts = Taxi(env, ds.mbr);
    act::JoinInput input = pts.AsJoinInput();

    struct Mode {
      const char* label;
      std::optional<double> bound;
    };
    for (Mode mode : {Mode{"15m", 15.0}, Mode{"4m", 4.0},
                      Mode{"exact", std::nullopt}}) {
      // ACT side: approximate index at the precision bound, or the coarse
      // covering + exact join.
      act::SuperCovering sc =
          BuildCovering(ds, env, classifier, mode.bound, nullptr);
      act::EncodedCovering enc = act::Encode(sc);
      act::AdaptiveCellTrie trie(enc, {.bits_per_level = 8});
      act::JoinOptions jopts{mode.bound.has_value()
                                 ? act::JoinMode::kApproximate
                                 : act::JoinMode::kExact,
                             env.threads};
      double act_best = 0;
      for (int r = 0; r < env.reps; ++r) {
        act::JoinStats stats =
            act::ExecuteJoin(trie, enc.table, input, slab, jopts);
        act_best = std::max(act_best, stats.ThroughputMps());
      }
      NoteThroughput(act_best);
      table.AddRow({ds.name, mode.label, "ACT4",
                    util::TablePrinter::Fmt(act_best, 2), "-"});

      // Raster side: BRJ at the bound, ARJ for exact.
      baselines::RasterJoinOptions ropts;
      ropts.native_resolution = native;
      if (mode.bound.has_value()) {
        ropts.precision_bound_m = *mode.bound;
        ropts.accurate = false;
      } else {
        ropts.precision_bound_m = 15.0;  // ARJ rasterizes at base resolution
        ropts.accurate = true;
      }
      baselines::RasterJoin raster(ds.polygons, ds.mbr, ropts);
      double raster_best = 0;
      for (int r = 0; r < env.reps; ++r) {
        act::JoinStats stats = raster.Execute(input, env.threads);
        raster_best = std::max(raster_best, stats.ThroughputMps());
      }
      NoteThroughput(raster_best);
      table.AddRow({ds.name, mode.label,
                    ropts.accurate ? "ARJ" : "BRJ",
                    util::TablePrinter::Fmt(raster_best, 2),
                    util::TablePrinter::FmtInt(raster.passes())});
    }
  }
  Emit(env, table);
  std::printf(
      "Paper shape: BRJ barely cares about the polygon dataset but drops\n"
      "sharply from 15 m to 4 m (scene splitting / more passes); ACT is the\n"
      "mirror image. Exact: ACT beats ARJ on boroughs, ARJ wins on\n"
      "neighborhoods/census.\n");
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "fig11_raster",
                                   actjoin::bench::Run);
}
