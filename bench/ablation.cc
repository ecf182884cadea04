// Ablation benchmarks for the design choices argued in paper Sec. 3.1.2:
//   * fanout (bits per radix level), including the ragged 6-bit variant
//   * root-prefix compression on/off ("we therefore only use a common
//     prefix at the root level")
//   * inlined polygon references vs forcing everything through the lookup
//     table ("avoids an unnecessary indirection")
//   * space-filling curve: Hilbert vs Morton (the approach is curve-
//     agnostic; locality differs)
//   * B-tree node byte budget (the paper picked 256 B as most efficient)

#include <cstdio>
#include <string>

#include "act/act.h"
#include "bench/bench_common.h"
#include "util/timer.h"

namespace actjoin::bench {
namespace {

double MeasureTrieThroughput(const act::EncodedCovering& enc,
                             const act::ActOptions& opts,
                             const geom::PolygonSlab& slab,
                             const act::JoinInput& input, int reps) {
  act::AdaptiveCellTrie trie(enc, opts);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    act::JoinStats stats = act::ExecuteJoin(
        trie, enc.table, input, slab, {act::JoinMode::kApproximate, 1});
    best = std::max(best, stats.ThroughputMps());
  }
  NoteThroughput(best);
  return best;
}

int Run(int argc, char** argv) {
  util::Flags flags;
  BenchEnv env = ParseEnv(argc, argv, &flags);

  wl::PolygonDataset ds = wl::Neighborhoods(env.scale);
  act::PolygonClassifier classifier(ds.polygons, env.grid, env.threads);
  act::SuperCovering sc = BuildCovering(ds, env, classifier, 15.0, nullptr);
  act::EncodedCovering enc = act::Encode(sc);
  act::EncodedCovering enc_no_inline = act::Encode(sc, /*inline_refs=*/false);
  const geom::PolygonSlab slab(ds.polygons);
  wl::PointSet pts = Taxi(env, ds.mbr);
  act::JoinInput input = pts.AsJoinInput();

  // ----- Fanout sweep -------------------------------------------------------
  std::printf("Ablation A: bits per radix level (neighborhoods, 15 m)\n\n");
  util::TablePrinter fanout({"bits/level", "quadtree levels/node",
                             "nodes", "size [MiB]",
                             "throughput [M points/s]"});
  for (int bits : {2, 3, 4, 6, 8}) {
    act::AdaptiveCellTrie trie(enc, {.bits_per_level = bits});
    double tput = MeasureTrieThroughput(enc, {.bits_per_level = bits},
                                        slab, input, env.reps);
    fanout.AddRow({util::TablePrinter::FmtInt(bits),
                   util::TablePrinter::Fmt(bits / 2.0, 1),
                   util::TablePrinter::FmtInt(trie.stats().node_count),
                   Mib(trie.stats().memory_bytes),
                   util::TablePrinter::Fmt(tput, 2)});
  }
  Emit(env, fanout);

  // ----- Root prefix --------------------------------------------------------
  std::printf("Ablation B: root prefix compression\n\n");
  util::TablePrinter prefix({"root prefix", "nodes",
                             "throughput [M points/s]"});
  for (bool use_prefix : {true, false}) {
    act::ActOptions opts{.bits_per_level = 8, .use_root_prefix = use_prefix};
    act::AdaptiveCellTrie trie(enc, opts);
    double tput =
        MeasureTrieThroughput(enc, opts, slab, input, env.reps);
    prefix.AddRow({use_prefix ? "on" : "off",
                   util::TablePrinter::FmtInt(trie.stats().node_count),
                   util::TablePrinter::Fmt(tput, 2)});
  }
  Emit(env, prefix);

  // ----- Inlined references -------------------------------------------------
  std::printf("Ablation C: inlined refs vs lookup-table-only\n\n");
  util::TablePrinter inlined({"encoding", "lookup table [MiB]",
                              "throughput [M points/s]"});
  inlined.AddRow({"inline <=2 refs", Mib(enc.table.SizeBytes()),
                  util::TablePrinter::Fmt(
                      MeasureTrieThroughput(enc, {.bits_per_level = 8},
                                            slab, input, env.reps),
                      2)});
  inlined.AddRow(
      {"table only", Mib(enc_no_inline.table.SizeBytes()),
       util::TablePrinter::Fmt(
           MeasureTrieThroughput(enc_no_inline, {.bits_per_level = 8},
                                 slab, input, env.reps),
           2)});
  Emit(env, inlined);

  // ----- Space-filling curve ------------------------------------------------
  std::printf("Ablation D: Hilbert vs Morton enumeration\n\n");
  util::TablePrinter curves({"curve", "# cells", "throughput [M points/s]"});
  for (geo::CurveType curve :
       {geo::CurveType::kHilbert, geo::CurveType::kMorton}) {
    geo::Grid grid(curve);
    act::PolygonClassifier cls(ds.polygons, grid, env.threads);
    act::BuildOptions bopts;
    bopts.threads = env.threads;
    bopts.precision_bound_m = 15.0;
    act::SuperCovering curve_sc =
        act::BuildSuperCovering(ds.polygons, grid, cls, bopts, nullptr);
    act::EncodedCovering curve_enc = act::Encode(curve_sc);
    wl::PointSet curve_pts = wl::TaxiPoints(ds.mbr, env.points, grid, 7);
    double tput = MeasureTrieThroughput(curve_enc, {.bits_per_level = 8},
                                        slab, curve_pts.AsJoinInput(),
                                        env.reps);
    curves.AddRow({geo::CurveName(curve),
                   util::TablePrinter::FmtInt(curve_sc.size()),
                   util::TablePrinter::Fmt(tput, 2)});
  }
  Emit(env, curves);

  // ----- Batched probing ------------------------------------------------------
  std::printf("Ablation F: scalar vs batched (latency-overlapping) probe\n\n");
  {
    act::AdaptiveCellTrie trie(enc, {.bits_per_level = 8});
    const auto& ids = pts.cell_ids();
    util::TablePrinter batch({"probe", "throughput [M probes/s]"});
    double scalar_best = 0, batch_best = 0;
    std::vector<act::TaggedEntry> sink(ids.size());
    for (int r = 0; r < env.reps; ++r) {
      util::WallTimer timer;
      for (size_t k = 0; k < ids.size(); ++k) sink[k] = trie.Probe(ids[k]);
      scalar_best = std::max(scalar_best,
                             ids.size() / timer.ElapsedSeconds() / 1e6);
      timer.Restart();
      trie.ProbeBatch(ids.data(), ids.size(), sink.data());
      batch_best = std::max(batch_best,
                            ids.size() / timer.ElapsedSeconds() / 1e6);
    }
    batch.AddRow({"scalar", util::TablePrinter::Fmt(scalar_best, 2)});
    batch.AddRow({"batched x" +
                      std::to_string(act::AdaptiveCellTrie::kProbeGroup),
                  util::TablePrinter::Fmt(batch_best, 2)});
    Emit(env, batch);
  }

  // ----- B-tree node size ---------------------------------------------------
  std::printf("Ablation E: B-tree node byte budget (GBT)\n\n");
  util::TablePrinter nodes({"node bytes", "height", "size [MiB]",
                            "throughput [M points/s]"});
  for (size_t bytes : {64, 128, 256, 512, 1024, 4096}) {
    baselines::BTreeCellIndex gbt(enc, bytes);
    double best = 0;
    for (int r = 0; r < env.reps; ++r) {
      act::JoinStats stats =
          act::ExecuteJoin(gbt, enc.table, input, slab,
                           {act::JoinMode::kApproximate, 1});
      best = std::max(best, stats.ThroughputMps());
    }
    NoteThroughput(best);
    nodes.AddRow({util::TablePrinter::FmtInt(bytes),
                  util::TablePrinter::FmtInt(gbt.tree().height()),
                  Mib(gbt.MemoryBytes()),
                  util::TablePrinter::Fmt(best, 2)});
  }
  Emit(env, nodes);
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "ablation",
                                   actjoin::bench::Run);
}
