// Tests for the serving layer (src/service/): executor joins must be
// byte-identical to the single-index join, snapshot swaps must never be
// observable as torn or missing state by concurrent readers, and the
// service's queue/lifecycle edges (full, never-started, shutdown) must be
// deterministic. The concurrency tests here are the workload the TSan CI
// preset exists for.
//
// Threading discipline: gtest assertions run only on the main thread;
// worker threads record observations into plain structs that are joined
// and then asserted.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "act/join.h"
#include "act/pipeline.h"
#include "geo/grid.h"
#include "service/index_registry.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/latency_histogram.h"
#include "util/mpmc_queue.h"
#include "util/work_stealing_pool.h"
#include "workloads/datasets.h"

namespace actjoin::service {
namespace {

using act::JoinMode;
using geo::Grid;

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid,
    ShardingOptions opts) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, opts));
}

// All deterministic JoinStats fields (everything but wall-clock seconds).
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

QueryBatch MakeBatch(const wl::PointSet& pts, JoinMode mode) {
  return {pts.cell_ids(), pts.points(), mode};
}

// The coarse Hilbert cell (face plus the first 10 levels) holding a leaf
// cell id: the unit of spatial skew below.
uint64_t CoarseCell(uint64_t leaf_cell_id) { return leaf_cell_id >> 41; }

// Builds a batch of `total` points where >= `frac` of them fall in the
// most-populated coarse cell of `pts` — the hot-spot shape the
// work-stealing executor exists for: the tasks over the hot spot's points
// refine more candidates than the rest. Points are recycled from `pts`.
QueryBatch MakeSkewedBatch(const wl::PointSet& pts, size_t total,
                           double frac, JoinMode mode) {
  std::map<uint64_t, size_t> per_cell;
  for (uint64_t id : pts.cell_ids()) ++per_cell[CoarseCell(id)];
  const uint64_t hot =
      std::max_element(per_cell.begin(), per_cell.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;

  std::vector<size_t> hot_points, cold_points;
  for (size_t i = 0; i < pts.size(); ++i) {
    (CoarseCell(pts.cell_ids()[i]) == hot ? hot_points : cold_points)
        .push_back(i);
  }
  // Tiny extents can put everything in one coarse cell; a hot-only batch
  // is still a valid (maximal) skew.
  if (cold_points.empty()) cold_points = hot_points;

  QueryBatch batch;
  batch.mode = mode;
  batch.cell_ids.reserve(total);
  batch.points.reserve(total);
  const size_t hot_count = static_cast<size_t>(total * frac);
  for (size_t k = 0; k < total; ++k) {
    const std::vector<size_t>& from =
        k < hot_count ? hot_points : cold_points;
    size_t i = from[k % from.size()];
    batch.cell_ids.push_back(pts.cell_ids()[i]);
    batch.points.push_back(pts.points()[i]);
  }
  return batch;
}

// --- ShardedIndex ----------------------------------------------------------
//
// A snapshot is one trie over every polygon; "unsharded" is the
// act::PolygonIndex over the same polygons, which the executor must match
// at every width.

TEST(ServiceSharding, ExactJoinByteIdenticalToUnsharded) {
  // At every width, exact results equal act::PolygonIndex over the same
  // polygons and the brute-force PIP ground truth, whether the trie was
  // built exact or with a precision bound. 9000 points give several tasks
  // per join at widths 2 and 4.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 9000, grid, 41);
  const act::JoinInput input = pts.AsJoinInput();
  const auto truth = act::BruteForceJoinPairs(input, ds.polygons);

  act::BuildOptions exact_opts;
  exact_opts.threads = 1;
  act::BuildOptions approx_opts = exact_opts;
  approx_opts.precision_bound_m = 100.0;
  for (const act::BuildOptions& bopts : {exact_opts, approx_opts}) {
    act::PolygonIndex single =
        act::PolygonIndex::Build(ds.polygons, grid, bopts);
    ShardedIndex index =
        ShardedIndex::Build(ds.polygons, grid, {.build = bopts});
    const auto want_pairs = single.JoinPairs(input, JoinMode::kExact);
    const act::JoinStats want = single.Join(input, {JoinMode::kExact, 1});
    EXPECT_EQ(want_pairs, truth);
    for (int threads : {1, 2, 4}) {
      EXPECT_EQ(index.JoinPairs(input, JoinMode::kExact, threads), want_pairs)
          << threads << " threads";
      ExpectStatsEqual(index.Join(input, {JoinMode::kExact, threads}), want);
    }
  }
}

TEST(ServiceSharding, ApproximateStaysWithinPrecisionBound) {
  // Approximate joins keep the paper's guarantee (every emitted pair within
  // bound_m of the polygon) and never miss a true hit; with one trie they
  // also equal act::PolygonIndex over the same polygons at every width.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 9000, grid, 42);
  const act::JoinInput input = pts.AsJoinInput();
  const auto truth = act::BruteForceJoinPairs(input, ds.polygons);
  const double bound_m = 100.0;

  act::BuildOptions bopts;
  bopts.threads = 1;
  bopts.precision_bound_m = bound_m;
  act::PolygonIndex single = act::PolygonIndex::Build(ds.polygons, grid, bopts);
  ShardedIndex index = ShardedIndex::Build(ds.polygons, grid, {.build = bopts});
  const auto want_pairs = single.JoinPairs(input, JoinMode::kApproximate);
  const act::JoinStats want = single.Join(input, {JoinMode::kApproximate, 1});

  for (int threads : {1, 2, 4}) {
    const auto approx = index.JoinPairs(input, JoinMode::kApproximate, threads);
    EXPECT_EQ(approx, want_pairs) << threads << " threads";
    ExpectStatsEqual(index.Join(input, {JoinMode::kApproximate, threads}),
                     want);
    ASSERT_TRUE(std::includes(approx.begin(), approx.end(), truth.begin(),
                              truth.end()));
    for (const auto& [pi, pid] : approx) {
      ASSERT_LE(geom::DistanceToPolygonMeters(ds.polygons[pid],
                                              pts.points()[pi]),
                bound_m * 1.01);
    }
  }
}

// --- Work-stealing executor ------------------------------------------------

TEST(ServiceExecutor, StealingAndStaticSplitByteIdentical) {
  // The executor's determinism contract: the work-stealing Join at every
  // thread count, its width-1 (inline, task-order) run, and the
  // single index all agree bit for bit, in both modes. The name dates from
  // when a second, static-split executor was held to the same contract.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 5000, grid, 71);

  act::BuildOptions bopts;
  bopts.threads = 1;
  act::PolygonIndex single = act::PolygonIndex::Build(ds.polygons, grid, bopts);
  ShardedIndex sharded =
      ShardedIndex::Build(ds.polygons, grid, {.build = bopts});

  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    act::JoinStats want_single =
        single.Join(pts.AsJoinInput(), {mode, /*threads=*/1});
    act::JoinStats serial =
        sharded.Join(pts.AsJoinInput(), {mode, /*threads=*/1});
    if (mode == JoinMode::kExact) {
      // Approximate equality with the single index is pinned in
      // ServiceSharding.ApproximateStaysWithinPrecisionBound.
      ExpectStatsEqual(serial, want_single);
    }
    for (int threads : {2, 4, 8}) {
      act::JoinStats stealing =
          sharded.Join(pts.AsJoinInput(), {mode, threads});
      ExpectStatsEqual(stealing, serial);
    }
  }
}

TEST(ServiceExecutor, JoinPairsParallelByteIdenticalToSerial) {
  // JoinPairs used to be hard-serial; it now honors a thread budget and an
  // external pool. Pin the contract: identical pairs at every width.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 5000, grid, 72);
  act::BuildOptions bopts;
  bopts.threads = 1;
  ShardedIndex sharded =
      ShardedIndex::Build(ds.polygons, grid, {.build = bopts});

  util::WorkStealingPool pool(3);
  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    auto serial = sharded.JoinPairs(pts.AsJoinInput(), mode);  // threads = 1
    for (int threads : {2, 8}) {
      EXPECT_EQ(sharded.JoinPairs(pts.AsJoinInput(), mode, threads), serial)
          << threads << " threads";
    }
    EXPECT_EQ(sharded.JoinPairs(pts.AsJoinInput(), mode, /*threads=*/1,
                                &pool),
              serial)
        << "shared pool";
  }
}

TEST(ServiceExecutor, SkewedBatchResultsExactAtFullWidth) {
  // >= 90% of the batch in one hot spot: the stealing executor runs it
  // with the whole budget. Results must still match the single index
  // exactly.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 6000, grid, 73);
  act::BuildOptions bopts;
  bopts.threads = 1;
  act::PolygonIndex single = act::PolygonIndex::Build(ds.polygons, grid, bopts);
  ShardedIndex sharded =
      ShardedIndex::Build(ds.polygons, grid, {.build = bopts});

  QueryBatch batch = MakeSkewedBatch(pts, 6000, 0.9, JoinMode::kExact);
  size_t hot_max = 0;
  std::map<uint64_t, size_t> per_cell;
  for (uint64_t id : batch.cell_ids) {
    hot_max = std::max(hot_max, ++per_cell[CoarseCell(id)]);
  }
  ASSERT_GE(hot_max, batch.cell_ids.size() * 9 / 10);

  act::JoinInput input{batch.cell_ids, batch.points};
  act::JoinStats want = single.Join(input, {JoinMode::kExact, 1});
  for (int threads : {1, 8}) {
    ExpectStatsEqual(sharded.Join(input, {JoinMode::kExact, threads}), want);
  }
}

TEST(ServiceExecutor, SkewedBatchStressAcrossHotSwapsUnderSharedPool) {
  // The TSan workload for the service pool: a service whose workers share
  // one WorkStealingPool (threads_per_join = 4 => 3 pool workers) serves
  // heavily skewed batches from concurrent clients while the writer
  // hot-swaps the index. Exercises concurrent Run() submitters, the steal
  // path (hot spot >= 90% of each batch), and epoch pinning, all at
  // once. Assertions run on the main thread only.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 74);
  QueryBatch batch = MakeSkewedBatch(pts, 3000, 0.92, JoinMode::kExact);
  act::JoinInput input{batch.cell_ids, batch.points};
  uint64_t want_half = half->Join(input, {JoinMode::kExact, 1}).result_pairs;
  uint64_t want_full = full->Join(input, {JoinMode::kExact, 1}).result_pairs;

  constexpr int kSwaps = 8;
  std::vector<uint64_t> want_by_epoch(kSwaps + 2);
  for (int e = 1; e <= kSwaps + 1; ++e) {
    want_by_epoch[e] = (e % 2 == 1) ? want_half : want_full;
  }

  ServiceOptions sopts;
  sopts.worker_threads = 3;
  sopts.queue_capacity = 16;
  sopts.threads_per_join = 4;
  JoinService service(half, sopts);

  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 12;
  struct ClientReport {
    uint64_t mismatches = 0;
    uint64_t completed = 0;
  };
  std::vector<ClientReport> reports(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        QueryBatch copy = batch;
        JoinResult result = service.Submit(std::move(copy)).get();
        if (result.epoch == 0 ||
            result.epoch > static_cast<uint64_t>(kSwaps) + 1 ||
            result.stats.result_pairs != want_by_epoch[result.epoch]) {
          ++reports[c].mismatches;
        }
        ++reports[c].completed;
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    service.SwapIndex(i % 2 == 0 ? full : half);
    std::this_thread::yield();
  }
  for (auto& t : clients) t.join();
  service.Shutdown();

  for (const ClientReport& report : reports) {
    EXPECT_EQ(report.mismatches, 0u);
    EXPECT_EQ(report.completed,
              static_cast<uint64_t>(kRequestsPerClient));
  }
  EXPECT_EQ(service.Stats().completed_requests,
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
}

TEST(ServiceExecutor, SharedPoolJoinByteIdenticalToSerialService) {
  // A threads_per_join = 4 service drains each join's task units across
  // its pool; results must stay byte-identical to a width-1 service (no
  // pool workers, every join inline), in both modes.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  act::BuildOptions bopts;
  bopts.threads = 1;
  bopts.precision_bound_m = 80.0;  // boundary cells => candidate refs exist
  auto index = BuildShared(ds.polygons, grid, {.build = bopts});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 75);

  ServiceOptions pooled_opts;
  pooled_opts.worker_threads = 1;
  pooled_opts.threads_per_join = 4;
  JoinService pooled(index, pooled_opts);
  ServiceOptions plain_opts;
  plain_opts.worker_threads = 1;
  JoinService plain(index, plain_opts);

  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    JoinResult want = plain.Submit(MakeBatch(pts, mode)).get();
    for (int round = 0; round < 2; ++round) {
      JoinResult got = pooled.Submit(MakeBatch(pts, mode)).get();
      ExpectStatsEqual(got.stats, want.stats);
    }
  }
}

// --- PolygonIndex snapshot hooks ------------------------------------------

TEST(ServiceRegistry, CloneIsIndependentOfOriginal) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());

  act::BuildOptions bopts;
  bopts.threads = 1;
  act::PolygonIndex original =
      act::PolygonIndex::Build(first_half, grid, bopts);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 44);
  auto before = original.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);

  // Mutating the clone (the updater's side of a snapshot swap) must not
  // disturb the original that readers are still probing.
  act::PolygonIndex clone = original.Clone();
  clone.AddPolygons(second_half);

  EXPECT_EQ(original.JoinPairs(pts.AsJoinInput(), JoinMode::kExact), before);
  EXPECT_EQ(clone.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            act::BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons));
}

TEST(ServiceRegistry, PublishBumpsEpochAndSwapsSnapshot) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  act::BuildOptions bopts;
  bopts.threads = 1;

  IndexRegistry registry;
  uint64_t epoch = 99;
  EXPECT_EQ(registry.Acquire(&epoch), nullptr);
  EXPECT_EQ(epoch, 0u);

  auto a = std::make_shared<const act::PolygonIndex>(
      act::PolygonIndex::Build(ds.polygons, grid, bopts));
  EXPECT_EQ(registry.Publish(a), 1u);
  EXPECT_EQ(registry.Acquire(&epoch), a);
  EXPECT_EQ(epoch, 1u);

  auto b = a->CloneShared();
  EXPECT_EQ(registry.Publish(b), 2u);
  EXPECT_EQ(registry.Acquire(&epoch), b);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(registry.epoch(), 2u);
}

TEST(ServiceRegistry, ReadersHammeredBySwaps) {
  // Reader threads continuously acquire snapshots and join against them
  // while the writer republishes; every acquired snapshot must be intact
  // (correct join result for whichever version was pinned) and epochs must
  // be monotone per reader. This is the core data-race workload for TSan.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);

  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = std::make_shared<const act::PolygonIndex>(
      act::PolygonIndex::Build(half_set, grid, bopts));
  auto full = std::make_shared<const act::PolygonIndex>(
      act::PolygonIndex::Build(ds.polygons, grid, bopts));

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 300, grid, 45);
  auto want_half = half->JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  auto want_full = full->JoinPairs(pts.AsJoinInput(), JoinMode::kExact);

  IndexRegistry registry;
  registry.Publish(half);

  struct ReaderReport {
    uint64_t iterations = 0;
    uint64_t wrong_results = 0;
    uint64_t null_snapshots = 0;
    uint64_t epoch_regressions = 0;
  };
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  // Iterations completed by all readers; the writer paces its swaps on it.
  std::atomic<uint64_t> shared_iterations{0};
  std::vector<ReaderReport> reports(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderReport& report = reports[r];
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t epoch = 0;
        auto snap = registry.Acquire(&epoch);
        if (snap == nullptr) {
          ++report.null_snapshots;
          continue;
        }
        if (epoch < last_epoch) ++report.epoch_regressions;
        last_epoch = epoch;
        auto got = snap->JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
        const auto& want =
            snap->polygons().size() == half_count ? want_half : want_full;
        if (got != want) ++report.wrong_results;
        ++report.iterations;
        shared_iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Before each swap the writer waits for some reader to finish a join
  // since the previous one, so swaps interleave with reads instead of
  // all landing before the first join completes (a yield-only writer
  // outruns the readers on a slow, e.g. sanitized, build).
  constexpr int kSwaps = 40;
  uint64_t seen = 0;
  for (int i = 0; i < kSwaps; ++i) {
    while (shared_iterations.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
    seen = shared_iterations.load(std::memory_order_relaxed);
    registry.Publish(i % 2 == 0 ? full : half);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  uint64_t total_iterations = 0;
  for (const ReaderReport& report : reports) {
    EXPECT_EQ(report.wrong_results, 0u);
    EXPECT_EQ(report.null_snapshots, 0u);
    EXPECT_EQ(report.epoch_regressions, 0u);
    total_iterations += report.iterations;
  }
  EXPECT_GT(total_iterations, 0u);
  EXPECT_EQ(registry.epoch(), static_cast<uint64_t>(kSwaps) + 1);
}

// --- util building blocks used by the service -----------------------------

TEST(ServiceQueue, FifoAndTryPushBounds) {
  util::MpmcQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  for (int v : {10, 11, 12}) {
    int item = v;
    EXPECT_TRUE(q.TryPush(item));
  }
  int overflow = 13;
  EXPECT_FALSE(q.TryPush(overflow));  // full
  EXPECT_EQ(overflow, 13);            // refused push leaves the item alone
  EXPECT_EQ(q.size(), 3u);

  EXPECT_EQ(q.Pop(), 10);  // FIFO
  EXPECT_EQ(q.Pop(), 11);

  q.Close();
  int after_close = 14;
  EXPECT_FALSE(q.TryPush(after_close));
  EXPECT_FALSE(q.Push(15));
  EXPECT_EQ(q.Pop(), 12);            // close still drains the backlog
  EXPECT_EQ(q.Pop(), std::nullopt);  // drained + closed
  EXPECT_TRUE(q.closed());
}

TEST(ServiceQueue, BlockingHandoffAcrossThreads) {
  // A tiny capacity forces the producer to block on backpressure; all
  // items must still arrive exactly once, in order.
  constexpr int kItems = 200;
  util::MpmcQueue<int> q(4);
  std::vector<int> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    while (auto item = q.Pop()) received.push_back(*item);
  });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(q.Push(i));
  }
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

TEST(ServiceStatsSuite, LatencyHistogramQuantiles) {
  util::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50Micros(), 0.0);

  for (int us = 1; us <= 1000; ++us) h.Record(us);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucketed: quantile edges over-report by at most one bucket
  // (2^(1/16) ~= 4.4%); the 1.1 factor leaves slack on top of that.
  EXPECT_GE(h.P50Micros(), 500.0);
  EXPECT_LE(h.P50Micros(), 500.0 * 1.1);
  EXPECT_GE(h.P99Micros(), 990.0);
  EXPECT_LE(h.P99Micros(), 990.0 * 1.1);
  EXPECT_NEAR(h.MeanMicros(), 500.5, 0.01);
  EXPECT_EQ(h.MaxMicros(), 1000.0);

  util::LatencyHistogram other;
  other.Record(5000.0);
  h.Merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_EQ(h.MaxMicros(), 5000.0);
  EXPECT_GE(h.QuantileMicros(1.0), 5000.0);
}

// --- JoinService lifecycle -------------------------------------------------

TEST(ServiceLifecycle, QueueFullThenStartDrains) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto index = BuildShared(ds.polygons, grid, {.build = bopts});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 500, grid, 46);
  act::JoinStats want = index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  ServiceOptions sopts;
  sopts.worker_threads = 2;
  sopts.queue_capacity = 4;
  sopts.autostart = false;
  JoinService service(index, sopts);

  // With no workers running the bounded queue fills deterministically.
  std::vector<std::future<JoinResult>> futures;
  for (int i = 0; i < 4; ++i) {
    std::future<JoinResult> f;
    ASSERT_EQ(service.TrySubmit(MakeBatch(pts, JoinMode::kExact), &f),
              SubmitStatus::kAccepted);
    futures.push_back(std::move(f));
  }
  EXPECT_EQ(service.QueueDepth(), 4u);
  std::future<JoinResult> rejected;
  EXPECT_EQ(service.TrySubmit(MakeBatch(pts, JoinMode::kExact), &rejected),
            SubmitStatus::kQueueFull);
  EXPECT_EQ(service.Stats().rejected_requests, 1u);
  EXPECT_EQ(service.Stats().rejected_queue_full, 1u);

  service.Start();
  for (auto& f : futures) {
    JoinResult result = f.get();
    EXPECT_EQ(result.stats.counts, want.counts);
    EXPECT_EQ(result.stats.result_pairs, want.result_pairs);
    EXPECT_EQ(result.epoch, 1u);
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed_requests, 4u);
  EXPECT_EQ(stats.points_served, 4u * pts.size());
  EXPECT_EQ(stats.queue_depth, 0u);

  service.Shutdown();
  service.Shutdown();  // idempotent
  auto dead = service.Submit(MakeBatch(pts, JoinMode::kExact));
  EXPECT_THROW(dead.get(), std::runtime_error);
}

TEST(ServiceLifecycle, ShutdownDrainsAcceptedRequestsWithoutStart) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto index = BuildShared(ds.polygons, grid, {.build = bopts});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 300, grid, 47);

  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.queue_capacity = 8;
  sopts.autostart = false;
  JoinService service(index, sopts);

  std::vector<std::future<JoinResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(MakeBatch(pts, JoinMode::kApproximate)));
  }
  // Accepted work is a promise: shutdown must complete it, started or not.
  service.Shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().stats.num_points, pts.size());
  }
}

TEST(ServiceLifecycle, ConcurrentClientsAcrossHotSwaps) {
  // Clients submit while the writer hot-swaps the index; every result must
  // be exactly right for the epoch that served it — the "safe index
  // replacement while queries are in flight" contract.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);

  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 800, grid, 48);
  uint64_t want_half =
      half->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}).result_pairs;
  uint64_t want_full =
      full->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}).result_pairs;

  constexpr int kSwaps = 12;
  // Epoch e serves `full` for even e, `half` for odd e (epoch 1 = initial
  // half index, each swap alternates). Precomputed so client threads can
  // validate without touching gtest.
  std::vector<uint64_t> want_by_epoch(kSwaps + 2);
  for (int e = 1; e <= kSwaps + 1; ++e) {
    want_by_epoch[e] = (e % 2 == 1) ? want_half : want_full;
  }

  ServiceOptions sopts;
  sopts.worker_threads = 3;
  sopts.queue_capacity = 16;
  JoinService service(half, sopts);

  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 25;
  struct ClientReport {
    uint64_t mismatches = 0;
    uint64_t completed = 0;
  };
  std::vector<ClientReport> reports(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        JoinResult result =
            service.Submit(MakeBatch(pts, JoinMode::kExact)).get();
        if (result.epoch == 0 ||
            result.epoch > static_cast<uint64_t>(kSwaps) + 1 ||
            result.stats.result_pairs != want_by_epoch[result.epoch]) {
          ++reports[c].mismatches;
        }
        ++reports[c].completed;
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    uint64_t epoch = service.SwapIndex(i % 2 == 0 ? full : half);
    EXPECT_EQ(epoch, static_cast<uint64_t>(i) + 2);
    std::this_thread::yield();
  }
  for (auto& t : clients) t.join();
  service.Shutdown();

  for (const ClientReport& report : reports) {
    EXPECT_EQ(report.mismatches, 0u);
    EXPECT_EQ(report.completed, static_cast<uint64_t>(kRequestsPerClient));
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed_requests,
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats.epoch, static_cast<uint64_t>(kSwaps) + 1);
  EXPECT_GT(stats.service_p50_ms, 0.0);
  EXPECT_GE(stats.service_p99_ms, stats.service_p50_ms);
}

TEST(ServiceLifecycle, SwapIsVisibleToTheNextRequest) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 800, grid, 63);
  act::JoinStats want_half =
      half->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});
  act::JoinStats want_full =
      full->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(half, sopts);

  // Serve epoch 1, swap, and verify epoch 2 results are the new index's:
  // the request after a swap must never see the old snapshot.
  EXPECT_EQ(service.Submit(MakeBatch(pts, JoinMode::kExact)).get().stats
                .counts,
            want_half.counts);
  service.SwapIndex(full);
  JoinResult after = service.Submit(MakeBatch(pts, JoinMode::kExact)).get();
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.stats.counts, want_full.counts);
  // And back again.
  service.SwapIndex(half);
  JoinResult back = service.Submit(MakeBatch(pts, JoinMode::kExact)).get();
  EXPECT_EQ(back.epoch, 3u);
  EXPECT_EQ(back.stats.counts, want_half.counts);
}

// --- Typed submit + async hook ---------------------------------------------

TEST(ServiceLifecycle, TrySubmitAsyncDeliversOnWorkerAndRejectsTyped) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto index = BuildShared(ds.polygons, grid, {.build = bopts});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 400, grid, 61);
  act::JoinStats want = index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.queue_capacity = 2;
  sopts.autostart = false;
  JoinService service(index, sopts);

  std::promise<JoinResult> delivered;
  ASSERT_EQ(service.TrySubmitAsync(
                MakeBatch(pts, JoinMode::kExact),
                [&](JoinResult r) { delivered.set_value(std::move(r)); }),
            SubmitStatus::kAccepted);
  // Fill the rest of the queue, then observe the typed queue-full verdict
  // (the hook must be dropped, not invoked).
  ASSERT_EQ(service.TrySubmitAsync(MakeBatch(pts, JoinMode::kExact),
                                   [](JoinResult) {}),
            SubmitStatus::kAccepted);
  bool rejected_hook_ran = false;
  EXPECT_EQ(service.TrySubmitAsync(
                MakeBatch(pts, JoinMode::kExact),
                [&](JoinResult) { rejected_hook_ran = true; }),
            SubmitStatus::kQueueFull);
  EXPECT_EQ(service.Stats().rejected_queue_full, 1u);

  service.Start();
  JoinResult result = delivered.get_future().get();
  EXPECT_EQ(result.stats.counts, want.counts);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_FALSE(rejected_hook_ran);

  service.Shutdown();
  EXPECT_EQ(service.TrySubmitAsync(MakeBatch(pts, JoinMode::kExact),
                                   [](JoinResult) {}),
            SubmitStatus::kShutDown);
  EXPECT_EQ(service.Stats().rejected_shutdown, 1u);
}

// --- Live mutation (delta apply, journal) ----------------------------------

TEST(DeltaService, ApplyDeltaAddByteIdenticalToFreshBuild) {
  // Incremental insertion and a fresh build produce the same covering, so
  // a delta-applied index and a from-scratch build over the final polygon
  // set must agree — byte-identical pairs in both modes, not merely
  // equivalent results.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> base_set(ds.polygons.begin(),
                                      ds.polygons.begin() +
                                          static_cast<ptrdiff_t>(half));
  std::vector<geom::Polygon> add_set(ds.polygons.begin() +
                                         static_cast<ptrdiff_t>(half),
                                     ds.polygons.end());

  act::BuildOptions bopts;
  bopts.threads = 1;
  bopts.precision_bound_m = 80.0;
  auto base = BuildShared(base_set, grid, {.build = bopts});
  auto fresh = BuildShared(ds.polygons, grid, {.build = bopts});

  ShardedIndex::Delta delta;
  delta.add = add_set;
  ShardedIndex::DeltaResult res = ShardedIndex::ApplyDelta(*base, delta);
  ASSERT_NE(res.index, nullptr);
  EXPECT_EQ(res.first_added_id, static_cast<uint32_t>(half));
  EXPECT_EQ(res.index->num_polygons(), ds.polygons.size());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 71);
  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    EXPECT_EQ(res.index->JoinPairs(pts.AsJoinInput(), mode),
              fresh->JoinPairs(pts.AsJoinInput(), mode));
  }
  ExpectStatsEqual(res.index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}),
                   fresh->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}));
}

TEST(DeltaService, RemoveKeepsIdSlotsAndFiltersPairs) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  std::vector<uint32_t> removed;
  for (uint32_t gid = 1; gid < ds.polygons.size(); gid += 3) {
    removed.push_back(gid);
  }
  ShardedIndex::Delta delta;
  delta.remove = removed;
  ShardedIndex::DeltaResult res = ShardedIndex::ApplyDelta(*full, delta);
  ASSERT_NE(res.index, nullptr);
  // Ids are assign-only: a remove never shrinks the id space (a survivor
  // keeps its global id; removed slots just count zero forever).
  EXPECT_EQ(res.index->num_polygons(), ds.polygons.size());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 72);
  auto all_pairs = full->JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  decltype(all_pairs) want_pairs;
  std::vector<bool> is_removed(ds.polygons.size(), false);
  for (uint32_t gid : removed) is_removed[gid] = true;
  for (const auto& pair : all_pairs) {
    if (!is_removed[pair.second]) want_pairs.push_back(pair);
  }
  EXPECT_EQ(res.index->JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            want_pairs);

  act::JoinStats stats =
      res.index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});
  ASSERT_EQ(stats.counts.size(), ds.polygons.size());
  for (uint32_t gid : removed) EXPECT_EQ(stats.counts[gid], 0u);
}

TEST(DeltaService, LiveMutationsTypedVerdictsAndDropLifecycle) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> base_set(ds.polygons.begin(),
                                      ds.polygons.begin() +
                                          static_cast<ptrdiff_t>(half));
  std::vector<geom::Polygon> add_set(ds.polygons.begin() +
                                         static_cast<ptrdiff_t>(half),
                                     ds.polygons.end());
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto base = BuildShared(base_set, grid, {.build = bopts});
  auto fresh = BuildShared(ds.polygons, grid, {.build = bopts});
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 800, grid, 73);
  act::JoinStats want_full =
      fresh->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  ServiceOptions sopts;
  sopts.worker_threads = 1;
  JoinService service(base, sopts);  // dataset 0 at epoch 1

  // Applied add: contiguous ids from the previous num_polygons, epoch
  // bumped, joins serve the union immediately.
  MutationResult add = service.AddPolygons(0, add_set);
  ASSERT_EQ(add.status, MutationStatus::kApplied);
  EXPECT_EQ(add.epoch, 2u);
  EXPECT_EQ(add.first_id, static_cast<uint32_t>(half));
  EXPECT_EQ(add.num_polygons, ds.polygons.size());
  JoinResult joined = service.Submit(MakeBatch(pts, JoinMode::kExact)).get();
  EXPECT_EQ(joined.epoch, 2u);
  EXPECT_EQ(joined.stats.counts, want_full.counts);

  // Typed rejections leave the dataset untouched: empty batches,
  // out-of-range removes, unassigned ids.
  EXPECT_EQ(service.AddPolygons(0, {}).status,
            MutationStatus::kInvalidMutation);
  EXPECT_EQ(service
                .RemovePolygons(
                    0, {static_cast<uint32_t>(ds.polygons.size())})
                .status,
            MutationStatus::kInvalidMutation);
  EXPECT_EQ(service.RemovePolygons(0, {}).status,
            MutationStatus::kInvalidMutation);
  EXPECT_EQ(service.AddPolygons(9, add_set).status,
            MutationStatus::kUnknownDataset);
  EXPECT_EQ(service.epoch(), 2u);

  // Applied remove: id slots survive (counts vector keeps its length).
  MutationResult rm = service.RemovePolygons(0, {0});
  ASSERT_EQ(rm.status, MutationStatus::kApplied);
  EXPECT_EQ(rm.epoch, 3u);
  EXPECT_EQ(rm.num_polygons, ds.polygons.size());
  JoinResult after_rm =
      service.Submit(MakeBatch(pts, JoinMode::kExact)).get();
  ASSERT_EQ(after_rm.stats.counts.size(), ds.polygons.size());
  EXPECT_EQ(after_rm.stats.counts[0], 0u);

  // Drop: tombstoned, joins and mutations reject typed, id stays assigned.
  MutationResult drop = service.DropDataset(0);
  ASSERT_EQ(drop.status, MutationStatus::kApplied);
  EXPECT_EQ(drop.epoch, 4u);
  EXPECT_EQ(drop.num_polygons, 0u);
  EXPECT_TRUE(service.catalog().IsDropped(0));
  EXPECT_FALSE(service.catalog().Servable(0));
  EXPECT_EQ(service.AddPolygons(0, add_set).status,
            MutationStatus::kDropped);
  EXPECT_EQ(service.DropDataset(0).status, MutationStatus::kDropped);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.mutations_applied, 3u);  // add, remove, drop
  EXPECT_EQ(stats.rejected_mutations, 6u);

  // A full publish resurrects the slot: tombstone cleared, joins serve.
  uint64_t epoch = service.SwapIndex(fresh);
  EXPECT_EQ(epoch, 5u);
  EXPECT_FALSE(service.catalog().IsDropped(0));
  JoinResult revived =
      service.Submit(MakeBatch(pts, JoinMode::kExact)).get();
  EXPECT_EQ(revived.stats.counts, want_full.counts);
  service.Shutdown();
}

}  // namespace
}  // namespace actjoin::service
