// Tests for the persistence layer (src/store/): snapshot round trips that
// keep joins byte-identical, the manifest's temp+fsync+rename atomicity
// under simulated crashes and corruption (truncations at every offset,
// flipped bits per CRC section), generation fallback, garbage collection,
// the background checkpointer, and the subsystem's acceptance contract —
// a warm restart from the store serves every dataset over the wire with
// results byte-identical to the pre-restart in-process service, for both
// join modes. Suites are named Store* so the TSan CI job's
// ^(Service|Net|Store) filter runs the concurrent ones under
// ThreadSanitizer.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "act/join.h"
#include "act/serialization.h"
#include "geo/grid.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/service_catalog.h"
#include "service/sharded_index.h"
#include "store/checkpointer.h"
#include "join2/cross_match.h"
#include "store/snapshot_store.h"
#include "workloads/datasets.h"
#include "workloads/point_gen.h"
#include "workloads/polygon_gen.h"

namespace actjoin::store {
namespace {

using act::JoinMode;
using act::LoadError;
using geo::Grid;
using service::JoinService;
using service::QueryBatch;
using service::ServiceCatalog;
using service::ServiceOptions;
using service::ShardedIndex;
using service::ShardingOptions;

/// Fresh, empty store directory per test (removes leftovers from a
/// previous run of the same test binary).
std::string FreshDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/store_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

std::shared_ptr<const ShardedIndex> BuildIndex(
    const std::vector<geom::Polygon>& polygons, const Grid& grid) {
  act::BuildOptions bopts;
  bopts.threads = 1;
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, {.build = bopts}));
}

/// Everything in JoinStats is deterministic for a fixed input and index
/// except the wall-clock `seconds`.
void ExpectStatsEqual(const act::JoinStats& got, const act::JoinStats& want) {
  EXPECT_EQ(got.num_points, want.num_points);
  EXPECT_EQ(got.matched_points, want.matched_points);
  EXPECT_EQ(got.result_pairs, want.result_pairs);
  EXPECT_EQ(got.true_hit_refs, want.true_hit_refs);
  EXPECT_EQ(got.candidate_refs, want.candidate_refs);
  EXPECT_EQ(got.pip_tests, want.pip_tests);
  EXPECT_EQ(got.pip_hits, want.pip_hits);
  EXPECT_EQ(got.sth_points, want.sth_points);
  EXPECT_EQ(got.counts, want.counts);
}

// --- Round trips -----------------------------------------------------------

TEST(StoreSnapshot, PutLoadRoundTripIsByteIdenticalBothModes) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  auto index = BuildIndex(ds.polygons, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 71);

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("roundtrip")}, &error)) << error;
  uint64_t generation = 0;
  ASSERT_TRUE(store.Put("zones", *index, &generation, &error)) << error;
  EXPECT_EQ(generation, 1u);

  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  EXPECT_EQ(report.error, LoadError::kNone);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_FALSE(report.fell_back);

  EXPECT_EQ(loaded->num_polygons(), index->num_polygons());
  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    act::JoinStats want = index->Join(pts.AsJoinInput(), {mode, 1});
    act::JoinStats got = loaded->Join(pts.AsJoinInput(), {mode, 1});
    ExpectStatsEqual(got, want);
    EXPECT_GT(got.result_pairs, 0u);
    EXPECT_EQ(loaded->JoinPairs(pts.AsJoinInput(), mode),
              index->JoinPairs(pts.AsJoinInput(), mode));
  }
}

TEST(StoreSnapshot, FaceStraddlingDatasetJoinsCrossMatchesAndRoundTrips) {
  // The grid's faces are 120 x 90 degrees and meet at lng -60 and lat 0.
  // A 3x3 partition centred there puts one polygon on four faces and its
  // neighbours on two: the one trie indexes cells of every face, and the
  // executor's tasks, the crossmatch's interval view and the store must
  // all carry that across the face boundaries.
  Grid grid;
  const geom::Rect extent = geom::Rect::Of(-61, -1, -59, 1);
  std::vector<geom::Polygon> zones = wl::JitteredPartition(
      {.mbr = extent, .nx = 3, .ny = 3, .edge_depth = 2, .seed = 1717});
  std::vector<geom::Polygon> blocks = wl::JitteredPartition(
      {.mbr = geom::Rect::Of(-60.7, -0.6, -59.4, 0.7),
       .nx = 4,
       .ny = 3,
       .edge_depth = 1,
       .seed = 1818,
       .overlap_dilation = 0.3});
  auto index = BuildIndex(zones, grid);
  auto other = BuildIndex(blocks, grid);

  std::vector<uint32_t> faces_of(zones.size(), 0);  // bit per face
  const act::SuperCovering& sc = index->index()->covering();
  for (size_t i = 0; i < sc.size(); ++i) {
    for (const act::PolygonRef& r : sc.refs(i)) {
      faces_of[r.polygon_id] |= 1u << sc.cell(i).face();
    }
  }
  int most_faces = 0;
  for (uint32_t faces : faces_of) {
    most_faces = std::max(most_faces, std::popcount(faces));
  }
  ASSERT_EQ(most_faces, 4);

  wl::PointSet pts = wl::UniformPoints(geom::Rect::Of(-61.2, -1.2, -58.8, 1.2),
                                       6000, 1919, grid);
  const act::JoinInput input = pts.AsJoinInput();
  const auto truth = act::BruteForceJoinPairs(input, zones);
  ASSERT_FALSE(truth.empty());
  std::vector<uint64_t> truth_counts(zones.size(), 0);
  for (const auto& pair : truth) ++truth_counts[pair.second];
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(index->JoinPairs(input, JoinMode::kExact, threads), truth)
        << threads << " threads";
    act::JoinStats st = index->Join(input, {JoinMode::kExact, threads});
    EXPECT_EQ(st.counts, truth_counts) << threads << " threads";
    EXPECT_EQ(st.result_pairs, truth.size());
  }

  for (join2::CrossMatchMode mode :
       {join2::CrossMatchMode::kIntersects, join2::CrossMatchMode::kContains}) {
    EXPECT_EQ(join2::CrossMatchIndexes(*index, *other, {.mode = mode}),
              join2::BruteForceCrossMatch(zones, blocks, mode))
        << join2::ToString(mode);
  }

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("face_straddling")}, &error))
      << error;
  ASSERT_TRUE(store.Put("zones", *index, nullptr, &error)) << error;
  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  EXPECT_EQ(loaded->JoinPairs(input, JoinMode::kExact), truth);
  ExpectStatsEqual(loaded->Join(input, {JoinMode::kExact, 1}),
                   index->Join(input, {JoinMode::kExact, 1}));
}

TEST(StoreSnapshot, PreviousFormatIsTypedBadVersion) {
  // Format v1 held one section per Hilbert-range shard. A file stamped v1
  // loads as the typed kBadVersion, and a warm start over a store holding
  // only such a file takes that dataset offline without shifting ids.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  auto index = BuildIndex(ds.polygons, grid);

  std::string dir = FreshDir("previous_format");
  {
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    ASSERT_TRUE(store.Put("old", *index, nullptr, &error)) << error;
    const std::string path = store.SnapshotPath("old", 1);
    std::string bytes = ReadFile(path);
    ASSERT_GE(bytes.size(), 8u);
    const std::string v1("\x01\x00\x00\x00", 4);  // u32 version, LE
    bytes.replace(4, 4, v1);
    WriteFile(path, bytes);

    LoadReport report;
    EXPECT_EQ(store.Load("old", &report), nullptr);
    EXPECT_EQ(report.error, LoadError::kBadVersion);
    EXPECT_EQ(report.generation, 0u);
  }

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(sopts);
  std::vector<std::string> failed;
  EXPECT_EQ(WarmStart(store, &service.catalog(), &failed), 0u);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].substr(0, 4), "old:");
  EXPECT_EQ(service.catalog().IdOf("old"), std::optional<uint16_t>(0));
  EXPECT_FALSE(service.catalog().Servable(0));
  EXPECT_EQ(service.catalog().Add("fresh", index), std::optional<uint16_t>(1));
  EXPECT_TRUE(service.catalog().Servable(1));
}

TEST(StoreSnapshot, MultipleDatasetsAndGenerations) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto index_a = BuildIndex(first, grid);
  auto index_b = BuildIndex(ds.polygons, grid);

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("multi")}, &error)) << error;
  uint64_t gen = 0;
  ASSERT_TRUE(store.Put("alpha", *index_a, &gen, &error)) << error;
  EXPECT_EQ(gen, 1u);
  ASSERT_TRUE(store.Put("beta", *index_b, &gen, &error)) << error;
  EXPECT_EQ(gen, 2u);  // one monotonic counter across datasets
  ASSERT_TRUE(store.Put("alpha", *index_b, &gen, &error)) << error;
  EXPECT_EQ(gen, 3u);

  // Manifest order is first-Put order; generations are current.
  std::vector<DatasetRecord> records = store.Datasets();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (DatasetRecord{"alpha", 3, 3, {}}));
  EXPECT_EQ(records[1], (DatasetRecord{"beta", 2, 2, {}}));

  // alpha serves its *new* snapshot (the full polygon set).
  std::shared_ptr<const ShardedIndex> alpha = store.Load("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->num_polygons(), ds.polygons.size());

  // Unknown dataset: typed missing, no crash.
  LoadReport report;
  EXPECT_EQ(store.Load("gamma", &report), nullptr);
  EXPECT_EQ(report.error, LoadError::kMissing);
}

TEST(StoreSnapshot, RejectsInvalidDatasetNames) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  auto index = BuildIndex(ds.polygons, grid);
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("names")}, &error)) << error;
  for (const char* bad : {"", "UPPER", "sp ace", "dot.dot", "a/b",
                          "0123456789012345678901234567890123456789"
                          "0123456789012345678901234567"}) {
    EXPECT_FALSE(store.Put(bad, *index, nullptr, &error)) << bad;
  }
  EXPECT_TRUE(store.Put("ok-name_2", *index, nullptr, &error)) << error;
}

TEST(StoreSnapshot, ReopenServesWhatWasPut) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  auto index = BuildIndex(ds.polygons, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 1500, grid, 72);
  act::JoinStats want = index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  std::string dir = FreshDir("reopen");
  {
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    ASSERT_TRUE(store.Put("zones", *index, nullptr, &error)) << error;
  }  // destroyed: everything must come back from disk

  SnapshotStore reopened;
  std::string error;
  ASSERT_TRUE(reopened.Open({.dir = dir}, &error)) << error;
  ASSERT_EQ(reopened.Datasets().size(), 1u);
  std::shared_ptr<const ShardedIndex> loaded = reopened.Load("zones");
  ASSERT_NE(loaded, nullptr);
  ExpectStatsEqual(loaded->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}),
                   want);
  // The next generation continues, never reuses.
  uint64_t gen = 0;
  ASSERT_TRUE(reopened.Put("zones", *index, &gen, &error)) << error;
  EXPECT_EQ(gen, 2u);
}

// --- Crash safety ----------------------------------------------------------

TEST(StoreCrash, OrphanSnapshotFromCrashBeforeManifestCommitIsInvisible) {
  // Simulated crash between snapshot write and manifest rename: a
  // generation-5 file exists, the manifest still says generation 1. The
  // orphan must be invisible to Load, survive nothing past GC, and its
  // generation number must be safely reissued by the next Put.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto committed = BuildIndex(first, grid);

  std::string dir = FreshDir("orphan");
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  ASSERT_TRUE(store.Put("zones", *committed, nullptr, &error)) << error;

  // The "crash": a snapshot file for a generation the manifest never
  // committed (contents arbitrary but valid-shaped — copy of gen 1).
  WriteFile(store.SnapshotPath("zones", 5),
            ReadFile(store.SnapshotPath("zones", 1)));

  // Invisible to Load (fresh open, like a restart).
  SnapshotStore reopened;
  ASSERT_TRUE(reopened.Open({.dir = dir}, &error)) << error;
  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded =
      reopened.Load("zones", &report);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(loaded->num_polygons(), first.size());

  // GC removes the orphan; the committed generation stays.
  EXPECT_GE(reopened.GarbageCollect(&error), 1) << error;
  EXPECT_FALSE(FileExists(reopened.SnapshotPath("zones", 5)));
  EXPECT_TRUE(FileExists(reopened.SnapshotPath("zones", 1)));
}

TEST(StoreCrash, ManifestTruncationAtEveryOffsetRecoversLastGeneration) {
  // Two committed generations, then the primary MANIFEST is truncated at
  // every byte offset. Every truncation must recover through MANIFEST.bak
  // to the *previous* complete catalog (generation 1) and serve it.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto gen1 = BuildIndex(first, grid);
  auto gen2 = BuildIndex(ds.polygons, grid);

  std::string dir = FreshDir("manifest_trunc");
  {
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    ASSERT_TRUE(store.Put("zones", *gen1, nullptr, &error)) << error;
    ASSERT_TRUE(store.Put("zones", *gen2, nullptr, &error)) << error;
  }
  const std::string manifest_path = dir + "/MANIFEST";
  const std::string pristine = ReadFile(manifest_path);
  ASSERT_GT(pristine.size(), 16u);

  for (size_t cut = 0; cut < pristine.size(); ++cut) {
    WriteFile(manifest_path, pristine.substr(0, cut));
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << "cut=" << cut << error;
    std::vector<DatasetRecord> records = store.Datasets();
    ASSERT_EQ(records.size(), 1u) << "cut=" << cut;
    // The .bak manifest is the generation-1 catalog.
    EXPECT_EQ(records[0], (DatasetRecord{"zones", 1, 1, {}})) << "cut=" << cut;
    std::shared_ptr<const ShardedIndex> loaded = store.Load("zones");
    ASSERT_NE(loaded, nullptr) << "cut=" << cut;
    EXPECT_EQ(loaded->num_polygons(), first.size()) << "cut=" << cut;
  }

  // Restored primary: the full generation-2 catalog is back.
  WriteFile(manifest_path, pristine);
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  ASSERT_EQ(store.Datasets().size(), 1u);
  EXPECT_EQ(store.Datasets()[0].generation, 2u);
}

TEST(StoreCrash, BothManifestsGoneRecoversByDirectoryScan) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  auto index = BuildIndex(ds.polygons, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 1000, grid, 73);
  act::JoinStats want = index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  std::string dir = FreshDir("scan");
  {
    SnapshotStore store;
    std::string error;
    // "zones" is registered before "alpha": scan recovery must restore
    // that first-Put order (via minimum surviving generation), not
    // alphabetical order — positional catalog ids depend on it.
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    ASSERT_TRUE(store.Put("zones", *index, nullptr, &error)) << error;
    ASSERT_TRUE(store.Put("alpha", *index, nullptr, &error)) << error;
    ASSERT_TRUE(store.Put("zones", *index, nullptr, &error)) << error;
  }
  std::remove((dir + "/MANIFEST").c_str());
  std::remove((dir + "/MANIFEST.bak").c_str());

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  std::vector<DatasetRecord> records = store.Datasets();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (DatasetRecord{"zones", 3, 3, {}}));  // newest on disk
  EXPECT_EQ(records[1], (DatasetRecord{"alpha", 2, 2, {}}));
  std::shared_ptr<const ShardedIndex> loaded = store.Load("zones");
  ASSERT_NE(loaded, nullptr);
  ExpectStatsEqual(loaded->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}),
                   want);
  // Generation numbering resumes past everything seen on disk.
  uint64_t gen = 0;
  ASSERT_TRUE(store.Put("zones", *index, &gen, &error)) << error;
  EXPECT_EQ(gen, 4u);
}

TEST(StoreCrash, SnapshotTruncationFallsBackToPreviousGeneration) {
  // Truncate the *current* snapshot file at every (strided) offset: Load
  // must type the failure and fall back to the previous generation, every
  // time — one bad block costs a generation, not the dataset.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto gen1 = BuildIndex(first, grid);
  auto gen2 = BuildIndex(ds.polygons, grid);

  std::string dir = FreshDir("snap_trunc");
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir, .keep_generations = 2}, &error))
      << error;
  ASSERT_TRUE(store.Put("zones", *gen1, nullptr, &error)) << error;
  ASSERT_TRUE(store.Put("zones", *gen2, nullptr, &error)) << error;

  const std::string current = store.SnapshotPath("zones", 2);
  const std::string pristine = ReadFile(current);
  ASSERT_GT(pristine.size(), 256u);
  size_t checked = 0;
  for (size_t cut = 0; cut < pristine.size();
       cut += (cut < 128 ? 1 : 1571)) {
    WriteFile(current, pristine.substr(0, cut));
    LoadReport report;
    std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
    ASSERT_NE(loaded, nullptr) << "cut=" << cut << " " << report.detail;
    EXPECT_TRUE(report.fell_back) << "cut=" << cut;
    EXPECT_EQ(report.generation, 1u) << "cut=" << cut;
    EXPECT_NE(report.error, LoadError::kNone) << "cut=" << cut;
    EXPECT_EQ(loaded->num_polygons(), first.size()) << "cut=" << cut;
    ++checked;
  }
  EXPECT_GT(checked, 128u);

  // Restored: the current generation serves again, no fallback.
  WriteFile(current, pristine);
  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(report.fell_back);
  EXPECT_EQ(report.generation, 2u);
}

TEST(StoreCrash, BitFlipInAnySectionIsTypedChecksumAndFallsBack) {
  // Flip one byte inside each CRC-framed region of the snapshot file
  // (header, shard metas, index bodies — strided across the whole file):
  // the load must fail kBadChecksum / kBadData (never a wrong answer) and
  // fall back to the intact previous generation.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto gen1 = BuildIndex(first, grid);
  auto gen2 = BuildIndex(ds.polygons, grid);

  std::string dir = FreshDir("bitflip");
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  ASSERT_TRUE(store.Put("zones", *gen1, nullptr, &error)) << error;
  ASSERT_TRUE(store.Put("zones", *gen2, nullptr, &error)) << error;

  const std::string current = store.SnapshotPath("zones", 2);
  const std::string pristine = ReadFile(current);
  for (size_t pos = 8; pos < pristine.size();
       pos += std::max<size_t>(1, pristine.size() / 64)) {
    std::string flipped = pristine;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    WriteFile(current, flipped);
    LoadReport report;
    std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
    ASSERT_NE(loaded, nullptr) << "pos=" << pos;
    EXPECT_TRUE(report.fell_back) << "pos=" << pos;
    EXPECT_EQ(report.generation, 1u) << "pos=" << pos;
    EXPECT_EQ(loaded->num_polygons(), first.size()) << "pos=" << pos;
  }
}

// --- Garbage collection ----------------------------------------------------

TEST(StoreGc, KeepsConfiguredGenerationsRemovesTmpAndStrays) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  auto index = BuildIndex(ds.polygons, grid);

  std::string dir = FreshDir("gc");
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir, .keep_generations = 2}, &error))
      << error;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Put("zones", *index, nullptr, &error)) << error;
  }
  // Crash leftovers: a stray tmp and a snapshot of a dataset the manifest
  // does not know.
  WriteFile(dir + "/zones-9.snap.tmp", "half-written");
  WriteFile(dir + "/ghost-1.snap", "no manifest entry");

  int removed = store.GarbageCollect(&error);
  EXPECT_EQ(removed, 4) << error;  // gens 1+2, the tmp, the ghost
  EXPECT_FALSE(FileExists(store.SnapshotPath("zones", 1)));
  EXPECT_FALSE(FileExists(store.SnapshotPath("zones", 2)));
  EXPECT_TRUE(FileExists(store.SnapshotPath("zones", 3)));   // fallback
  EXPECT_TRUE(FileExists(store.SnapshotPath("zones", 4)));   // current
  EXPECT_FALSE(FileExists(dir + "/zones-9.snap.tmp"));
  EXPECT_FALSE(FileExists(dir + "/ghost-1.snap"));
  EXPECT_EQ(store.GarbageCollect(&error), 0);  // idempotent
}

// --- Checkpointer ----------------------------------------------------------

TEST(StoreCheckpointer, PersistsEachSwapOnceAndGarbageCollects) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto small = BuildIndex(first, grid);
  auto big = BuildIndex(ds.polygons, grid);

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("ckpt"), .keep_generations = 1},
                         &error))
      << error;

  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(small, sopts);
  ASSERT_TRUE(service.catalog().Add("extra", big).has_value());

  CheckpointerOptions copts;
  copts.autostart = false;  // deterministic, manually driven sweeps
  Checkpointer ckpt(&store, &service, copts);

  // First sweep: both datasets are new to the store.
  EXPECT_EQ(ckpt.CheckpointNow(), 2u);
  EXPECT_EQ(store.Datasets().size(), 2u);
  // Nothing changed: a sweep persists nothing.
  EXPECT_EQ(ckpt.CheckpointNow(), 0u);

  // One dataset swaps; only it is re-persisted, and GC drops its old
  // generation (keep_generations = 1).
  service.SwapIndex(0, big);
  EXPECT_EQ(ckpt.CheckpointNow(), 1u);
  CheckpointerStats stats = ckpt.stats();
  EXPECT_EQ(stats.sweeps, 3u);
  EXPECT_EQ(stats.checkpoints, 3u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GE(stats.files_removed, 1u);

  // What the store now serves for "default" is the swapped-in snapshot.
  std::shared_ptr<const ShardedIndex> loaded = store.Load("default");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->num_polygons(), ds.polygons.size());
}

TEST(StoreCheckpointer, BackgroundThreadPersistsWithoutBlockingServing) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  auto index = BuildIndex(ds.polygons, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 500, grid, 74);

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("ckpt_bg")}, &error)) << error;

  ServiceOptions sopts;
  sopts.worker_threads = 2;
  JoinService service(index, sopts);
  {
    CheckpointerOptions copts;
    copts.interval_ms = 1;
    Checkpointer ckpt(&store, &service, copts);
    // Serve while the checkpointer writes; swaps race the sweeps (TSan
    // coverage for the pin-and-persist path).
    for (int i = 0; i < 20; ++i) {
      QueryBatch batch{pts.cell_ids(), pts.points(), JoinMode::kExact, 0};
      service::JoinResult result = service.Submit(std::move(batch)).get();
      EXPECT_GT(result.stats.result_pairs, 0u);
      if (i % 5 == 0) service.SwapIndex(index);
    }
  }  // ~Checkpointer: Stop() joins the thread; in-flight Put completes

  std::shared_ptr<const ShardedIndex> loaded = store.Load("default");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->num_polygons(), ds.polygons.size());
}

// --- Warm restart: the acceptance contract ---------------------------------

TEST(StoreWarmRestart, ServesEveryDatasetByteIdenticalOverTheWire) {
  // The full round-trip property: an in-process service with two datasets
  // answers batches; everything is persisted; the "process" is torn down;
  // a new service warm-starts from the store alone and a JoinServer
  // serves it over loopback. Every dataset must answer JOIN_BATCH with
  // results byte-identical to the pre-restart in-process results, for
  // both join modes — and the catalog must enumerate over the wire.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 75);

  std::string dir = FreshDir("warm");
  std::vector<service::JoinResult> want;  // [dataset][mode] flattened
  {
    auto zones = BuildIndex(first, grid);
    auto census = BuildIndex(ds.polygons, grid);
    ServiceOptions sopts;
    sopts.worker_threads = 2;
    JoinService service(sopts);  // empty catalog: the multi-dataset ctor
    ASSERT_TRUE(service.catalog().Add("zones", zones).has_value());
    ASSERT_TRUE(service.catalog().Add("census", census).has_value());

    for (uint16_t dataset : {0, 1}) {
      for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
        QueryBatch batch{pts.cell_ids(), pts.points(), mode, dataset};
        want.push_back(service.Submit(std::move(batch)).get());
        EXPECT_GT(want.back().stats.result_pairs, 0u);
      }
    }

    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    Checkpointer ckpt(&store, &service, {.autostart = false});
    EXPECT_EQ(ckpt.CheckpointNow(), 2u);
  }  // the old process is gone; only the store directory survives

  // --- Restart ---
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  JoinService service(sopts);
  std::vector<std::string> failed;
  ASSERT_EQ(WarmStart(store, &service.catalog(), &failed), 2u)
      << (failed.empty() ? "" : failed[0]);
  // Manifest order == Add order: ids reproduce.
  EXPECT_EQ(service.catalog().IdOf("zones"), std::optional<uint16_t>(0));
  EXPECT_EQ(service.catalog().IdOf("census"), std::optional<uint16_t>(1));

  net::JoinServer server(&service, net::ServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  net::JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;

  // LIST_DATASETS enumerates the warm-started catalog.
  std::vector<service::DatasetInfo> datasets;
  ASSERT_TRUE(client.ListDatasets(&datasets, &error)) << error;
  ASSERT_EQ(datasets.size(), 2u);
  EXPECT_EQ(datasets[0].name, "zones");
  EXPECT_EQ(datasets[0].num_polygons, first.size());
  EXPECT_EQ(datasets[1].name, "census");
  EXPECT_EQ(datasets[1].num_polygons, ds.polygons.size());

  size_t i = 0;
  for (uint16_t dataset : {0, 1}) {
    for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
      QueryBatch batch{pts.cell_ids(), pts.points(), mode, dataset};
      net::JoinClient::Reply reply = client.Join(batch);
      ASSERT_TRUE(reply.ok) << reply.message;
      ExpectStatsEqual(reply.result.stats, want[i].stats);
      ++i;
    }
  }

  // Unknown dataset over the wire: typed, connection intact.
  QueryBatch bogus{pts.cell_ids(), pts.points(), JoinMode::kExact, 7};
  net::JoinClient::Reply reply = client.Join(bogus);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, net::WireError::kUnknownDataset);
  ASSERT_TRUE(client.Ping(&error)) << error;
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected_unknown_dataset, 1u);
  EXPECT_EQ(stats.num_datasets, 2u);
  server.Stop();
}

TEST(StoreWarmRestart, UnloadableDatasetGoesOfflineWithoutShiftingIds) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  auto index = BuildIndex(ds.polygons, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 200, grid, 76);

  std::string dir = FreshDir("warm_partial");
  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
  ASSERT_TRUE(store.Put("bad", *index, nullptr, &error)) << error;
  ASSERT_TRUE(store.Put("good", *index, nullptr, &error)) << error;
  // Total loss of "bad": its only snapshot truncated to garbage.
  WriteFile(store.SnapshotPath("bad", 1), "ACTS");

  // "bad" registered first, so its id slot (0) must survive its death —
  // a client that cached id 1 for "good" must keep reaching "good", not
  // have every later dataset shift down onto the wrong data.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(sopts);
  std::vector<std::string> failed;
  EXPECT_EQ(WarmStart(store, &service.catalog(), &failed), 1u);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].substr(0, 4), "bad:");
  EXPECT_EQ(service.catalog().IdOf("bad"), std::optional<uint16_t>(0));
  EXPECT_EQ(service.catalog().IdOf("good"), std::optional<uint16_t>(1));
  EXPECT_FALSE(service.catalog().Servable(0));
  EXPECT_TRUE(service.catalog().Servable(1));

  // The offline slot rejects typed; the survivor serves.
  QueryBatch to_bad{pts.cell_ids(), pts.points(), JoinMode::kExact, 0};
  EXPECT_EQ(service.TrySubmit(std::move(to_bad), nullptr),
            service::SubmitStatus::kUnknownDataset);
  QueryBatch to_good{pts.cell_ids(), pts.points(), JoinMode::kExact, 1};
  EXPECT_GT(service.Submit(std::move(to_good)).get().stats.result_pairs, 0u);

  // Publishing a repaired snapshot brings the offline dataset back.
  service.SwapIndex(0, index);
  QueryBatch repaired{pts.cell_ids(), pts.points(), JoinMode::kExact, 0};
  EXPECT_GT(service.Submit(std::move(repaired)).get().stats.result_pairs, 0u);
}

// --- Delta chains: live-mutation persistence -------------------------------

TEST(DeltaStore, PutDeltaLoadReplaysChainByteIdenticalBothModes) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> base_polys(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> add_polys(ds.polygons.begin() + half,
                                       ds.polygons.end());
  auto base = BuildIndex(base_polys, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 81);

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("delta_chain")}, &error)) << error;

  // A delta with no base full snapshot is unreplayable: refused.
  service::MutationRecord add_rec;
  add_rec.kind = service::MutationRecord::Kind::kAdd;
  add_rec.added = add_polys;
  EXPECT_FALSE(store.PutDelta("zones", {add_rec}, nullptr, &error));

  ASSERT_TRUE(store.Put("zones", *base, nullptr, &error)) << error;
  uint64_t gen = 0;
  ASSERT_TRUE(store.PutDelta("zones", {add_rec}, &gen, &error)) << error;
  EXPECT_EQ(gen, 2u);
  service::MutationRecord remove_rec;
  remove_rec.kind = service::MutationRecord::Kind::kRemove;
  remove_rec.removed = {0, 3, 7};
  ASSERT_TRUE(store.PutDelta("zones", {remove_rec}, &gen, &error)) << error;
  EXPECT_EQ(gen, 3u);

  // The manifest records the chain: base full + ascending deltas.
  std::vector<DatasetRecord> records = store.Datasets();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0],
            (DatasetRecord{"zones", 3, 1, {2, 3}}));

  // The replayed chain is the live ApplyDelta result, byte for byte.
  service::ShardedIndex::Delta add_delta;
  add_delta.add = add_polys;
  auto applied = service::ShardedIndex::ApplyDelta(*base, add_delta).index;
  service::ShardedIndex::Delta remove_delta;
  remove_delta.remove = {0, 3, 7};
  auto want = service::ShardedIndex::ApplyDelta(*applied, remove_delta).index;

  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  EXPECT_EQ(report.error, LoadError::kNone);
  EXPECT_EQ(report.generation, 3u);
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_FALSE(report.fell_back);
  EXPECT_FALSE(report.dropped);
  EXPECT_EQ(loaded->num_polygons(), want->num_polygons());
  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    ExpectStatsEqual(loaded->Join(pts.AsJoinInput(), {mode, 1}),
                     want->Join(pts.AsJoinInput(), {mode, 1}));
    EXPECT_EQ(loaded->JoinPairs(pts.AsJoinInput(), mode),
              want->JoinPairs(pts.AsJoinInput(), mode));
  }

  // A full Put compacts: the chain resets and GC removes the deltas.
  ASSERT_TRUE(store.Put("zones", *want, &gen, &error)) << error;
  EXPECT_EQ(gen, 4u);
  records = store.Datasets();
  EXPECT_EQ(records[0], (DatasetRecord{"zones", 4, 4, {}}));
  EXPECT_GE(store.GarbageCollect(&error), 2) << error;
  EXPECT_FALSE(FileExists(store.DeltaPath("zones", 2)));
  EXPECT_FALSE(FileExists(store.DeltaPath("zones", 3)));
}

TEST(DeltaStore, CorruptMiddleDeltaFallsBackTypedToLastFullGeneration) {
  // One bad block in the middle of the chain must cost the *deltas*, not
  // the dataset: Load abandons the chain typed (kBadChecksum) and serves
  // the base full generation alone.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t third = ds.polygons.size() / 3;
  std::vector<geom::Polygon> base_polys(ds.polygons.begin(),
                                        ds.polygons.begin() + third);
  std::vector<geom::Polygon> add1(ds.polygons.begin() + third,
                                  ds.polygons.begin() + 2 * third);
  std::vector<geom::Polygon> add2(ds.polygons.begin() + 2 * third,
                                  ds.polygons.end());
  auto base = BuildIndex(base_polys, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 1000, grid, 82);
  act::JoinStats base_want =
      base->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("delta_corrupt")}, &error))
      << error;
  ASSERT_TRUE(store.Put("zones", *base, nullptr, &error)) << error;
  service::MutationRecord rec;
  rec.kind = service::MutationRecord::Kind::kAdd;
  rec.added = add1;
  ASSERT_TRUE(store.PutDelta("zones", {rec}, nullptr, &error)) << error;
  rec.added = add2;
  ASSERT_TRUE(store.PutDelta("zones", {rec}, nullptr, &error)) << error;

  // Flip one payload byte in the *middle* delta (generation 2); the last
  // delta (generation 3) is intact but unreplayable without its
  // predecessor.
  const std::string middle = store.DeltaPath("zones", 2);
  const std::string pristine = ReadFile(middle);
  ASSERT_GT(pristine.size(), 64u);
  std::string flipped = pristine;
  flipped[pristine.size() / 2] =
      static_cast<char>(flipped[pristine.size() / 2] ^ 0x20);
  WriteFile(middle, flipped);

  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  EXPECT_EQ(report.error, LoadError::kBadChecksum);
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.deltas_applied, 0u);
  EXPECT_EQ(loaded->num_polygons(), base_polys.size());
  ExpectStatsEqual(loaded->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}),
                   base_want);

  // A *missing* middle delta is the same story, typed kMissing.
  std::remove(middle.c_str());
  loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  EXPECT_EQ(report.error, LoadError::kMissing);
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(loaded->num_polygons(), base_polys.size());

  // Restored: the full chain replays again.
  WriteFile(middle, pristine);
  loaded = store.Load("zones", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  EXPECT_FALSE(report.fell_back);
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_EQ(loaded->num_polygons(), ds.polygons.size());
}

TEST(DeltaStore, CheckpointerWritesDeltasAndCompactsAtChainLimit) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> base_polys(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  auto base = BuildIndex(base_polys, grid);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 1000, grid, 83);

  SnapshotStore store;
  std::string error;
  ASSERT_TRUE(store.Open({.dir = FreshDir("delta_ckpt")}, &error)) << error;

  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(base, sopts);
  CheckpointerOptions copts;
  copts.autostart = false;
  copts.max_delta_chain = 2;
  Checkpointer ckpt(&store, &service, copts);

  // First checkpoint of a dataset is always a full snapshot.
  EXPECT_EQ(ckpt.CheckpointNow(), 1u);
  EXPECT_EQ(ckpt.stats().delta_checkpoints, 0u);

  // A live mutation whose journal span is covered persists as a delta.
  std::vector<geom::Polygon> add1(ds.polygons.begin() + half,
                                  ds.polygons.begin() + half + half / 2);
  ASSERT_EQ(service.AddPolygons(0, add1).status,
            service::MutationStatus::kApplied);
  EXPECT_EQ(ckpt.CheckpointNow(), 1u);
  EXPECT_EQ(ckpt.stats().delta_checkpoints, 1u);
  ASSERT_EQ(service.RemovePolygons(0, {1}).status,
            service::MutationStatus::kApplied);
  EXPECT_EQ(ckpt.CheckpointNow(), 1u);
  EXPECT_EQ(ckpt.stats().delta_checkpoints, 2u);
  std::vector<DatasetRecord> records = store.Datasets();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].base_generation, 1u);
  EXPECT_EQ(records[0].delta_generations.size(), 2u);

  // The chain is at max_delta_chain: the next checkpoint compacts to a
  // fresh full snapshot and resets the chain.
  std::vector<geom::Polygon> add2(ds.polygons.begin() + half + half / 2,
                                  ds.polygons.end());
  ASSERT_EQ(service.AddPolygons(0, add2).status,
            service::MutationStatus::kApplied);
  EXPECT_EQ(ckpt.CheckpointNow(), 1u);
  EXPECT_EQ(ckpt.stats().delta_checkpoints, 2u);  // unchanged: it was full
  records = store.Datasets();
  EXPECT_EQ(records[0].base_generation, records[0].generation);
  EXPECT_TRUE(records[0].delta_generations.empty());

  // What the store serves is what the service serves, at every point.
  LoadReport report;
  std::shared_ptr<const ShardedIndex> loaded =
      store.Load("default", &report);
  ASSERT_NE(loaded, nullptr) << report.detail;
  QueryBatch batch{pts.cell_ids(), pts.points(), JoinMode::kExact, 0};
  service::JoinResult live = service.Submit(std::move(batch)).get();
  ExpectStatsEqual(loaded->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}),
                   live.stats);
}

TEST(DeltaStore, StopQuiescesNeverStartedCheckpointerAndRacingSwaps) {
  // The shutdown race regression: an epoch published concurrently with
  // Stop — or under an autostart=false checkpointer that never ran — must
  // still be durable when Stop returns.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first(ds.polygons.begin(),
                                   ds.polygons.begin() + half);
  auto small = BuildIndex(first, grid);
  auto big = BuildIndex(ds.polygons, grid);

  {
    // Never started: Stop still owes the quiesce sweeps.
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = FreshDir("quiesce_cold")}, &error))
        << error;
    ServiceOptions sopts;
    sopts.worker_threads = 1;
    JoinService service(small, sopts);
    Checkpointer ckpt(&store, &service, {.autostart = false});
    service.SwapIndex(big);
    ckpt.Stop();
    std::shared_ptr<const ShardedIndex> loaded = store.Load("default");
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->num_polygons(), ds.polygons.size());
    ckpt.Stop();  // repeated Stop is a no-op
    EXPECT_GE(ckpt.stats().sweeps, 1u);
  }

  {
    // Swaps racing the background thread and Stop itself: whatever was
    // published before Stop returned must be on disk (TSan coverage for
    // the quiesce loop vs SwapIndex).
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = FreshDir("quiesce_race")}, &error))
        << error;
    ServiceOptions sopts;
    sopts.worker_threads = 1;
    JoinService service(small, sopts);
    CheckpointerOptions copts;
    copts.interval_ms = 1;
    Checkpointer ckpt(&store, &service, copts);
    std::thread swapper([&] {
      for (int i = 0; i < 10; ++i) {
        service.SwapIndex(i % 2 == 0 ? big : small);
      }
      service.SwapIndex(big);  // the state Stop must make durable
    });
    swapper.join();
    ckpt.Stop();
    std::shared_ptr<const ShardedIndex> loaded = store.Load("default");
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->num_polygons(), ds.polygons.size());
  }
}

TEST(DeltaStore, WarmRestartOverDeltaChainByteIdenticalOverTheWire) {
  // The live-mutation acceptance contract, end to end: a dataset mutated
  // over the wire, checkpointed as full -> delta -> delta, torn down, and
  // warm-started from the store must serve JOIN_BATCH byte-identical to
  // (a) the pre-restart live service and (b) a fresh full build of the
  // same final polygon set, in both join modes. Then: a corrupt middle
  // delta downgrades the restart — typed — to the last full generation,
  // and a persisted drop keeps rejecting typed after restart.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t third = ds.polygons.size() / 3;
  std::vector<geom::Polygon> base_polys(ds.polygons.begin(),
                                        ds.polygons.begin() + third);
  std::vector<geom::Polygon> add1(ds.polygons.begin() + third,
                                  ds.polygons.begin() + 2 * third);
  std::vector<geom::Polygon> add2(ds.polygons.begin() + 2 * third,
                                  ds.polygons.end());
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 84);

  std::string dir = FreshDir("warm_delta");
  std::vector<service::JoinResult> want;  // [mode] before the restart
  {
    auto base = BuildIndex(base_polys, grid);
    ServiceOptions sopts;
    sopts.worker_threads = 2;
    JoinService service(base, sopts);
    net::JoinServer server(&service, net::ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    net::JoinClient client;
    ASSERT_TRUE(client.Connect(server.host(), server.port(), &error))
        << error;

    SnapshotStore store;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    Checkpointer ckpt(&store, &service, {.autostart = false});
    EXPECT_EQ(ckpt.CheckpointNow(), 1u);  // full (generation 1)

    // Two streamed adds, each checkpointed as one O(churn) delta.
    ASSERT_TRUE(client.AddPolygons(0, add1).ok);
    EXPECT_EQ(ckpt.CheckpointNow(), 1u);
    ASSERT_TRUE(client.AddPolygons(0, add2).ok);
    EXPECT_EQ(ckpt.CheckpointNow(), 1u);
    EXPECT_EQ(ckpt.stats().delta_checkpoints, 2u);
    std::vector<DatasetRecord> records = store.Datasets();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].delta_generations.size(), 2u);

    for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
      QueryBatch batch{pts.cell_ids(), pts.points(), mode, 0};
      net::JoinClient::Reply reply = client.Join(batch);
      ASSERT_TRUE(reply.ok) << reply.message;
      want.push_back(reply.result);
    }
    server.Stop();
  }  // the process is gone; only the store directory survives

  // --- Restart from full + delta + delta ---
  auto fresh_full = BuildIndex(ds.polygons, grid);
  {
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    ServiceOptions sopts;
    sopts.worker_threads = 2;
    JoinService service(sopts);
    std::vector<std::string> failed;
    ASSERT_EQ(WarmStart(store, &service.catalog(), &failed), 1u)
        << (failed.empty() ? "" : failed[0]);
    net::JoinServer server(&service, net::ServerOptions{});
    ASSERT_TRUE(server.Start(&error)) << error;
    net::JoinClient client;
    ASSERT_TRUE(client.Connect(server.host(), server.port(), &error))
        << error;

    size_t i = 0;
    for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
      QueryBatch batch{pts.cell_ids(), pts.points(), mode, 0};
      net::JoinClient::Reply reply = client.Join(batch);
      ASSERT_TRUE(reply.ok) << reply.message;
      // Byte-identical to the pre-restart live service...
      ExpectStatsEqual(reply.result.stats, want[i].stats);
      // ...and to a fresh full rebuild of the final polygon set.
      ExpectStatsEqual(reply.result.stats,
                       fresh_full->Join(pts.AsJoinInput(), {mode, 1}));
      ++i;
    }

    // Drop the dataset live, checkpoint it, and keep the store.
    ASSERT_TRUE(client.DropDataset(0).ok);
    Checkpointer drop_ckpt(&store, &service, {.autostart = false});
    EXPECT_GE(drop_ckpt.CheckpointNow(), 1u);
    net::JoinClient::Reply dead = client.Join(
        QueryBatch{pts.cell_ids(), pts.points(), JoinMode::kExact, 0});
    EXPECT_FALSE(dead.ok);
    EXPECT_EQ(dead.error, net::WireError::kDatasetDropped);
    server.Stop();
  }

  // --- Restart again: the drop survived ---
  {
    SnapshotStore store;
    std::string error;
    ASSERT_TRUE(store.Open({.dir = dir}, &error)) << error;
    LoadReport report;
    std::shared_ptr<const ShardedIndex> loaded =
        store.Load("default", &report);
    ASSERT_NE(loaded, nullptr) << report.detail;
    EXPECT_TRUE(report.dropped);
    EXPECT_EQ(loaded->num_polygons(), 0u);
    ServiceOptions sopts;
    sopts.worker_threads = 1;
    JoinService service(sopts);
    EXPECT_EQ(WarmStart(store, &service.catalog(), nullptr), 1u);
    EXPECT_TRUE(service.catalog().IsDropped(0));
    EXPECT_FALSE(service.catalog().Servable(0));
  }
}

}  // namespace
}  // namespace actjoin::store
