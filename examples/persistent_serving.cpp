// Persistent serving demo: build-once, serve-forever across restarts.
//
// Act 1 — first boot: two polygon datasets ("zones", "census") are built
// from raw polygons (the expensive covering pipeline), served by one
// JoinService, and checkpointed to a SnapshotStore while traffic runs. A
// zone swap mid-serve shows the checkpointer persisting the new epoch in
// the background.
//
// Act 2 — restart: the process state is thrown away and a fresh service
// warm-starts from the store alone — no covering work, just file reads
// and trie re-derivation — then a JoinServer answers JOIN_BATCH per
// dataset id over loopback, LIST_DATASETS enumerates the catalog, and a
// join against a bogus dataset id comes back as a typed UNKNOWN_DATASET
// error with the connection intact. The punchline is the timing line:
// rebuild cost vs warm-start cost.
//
//   $ ./examples/persistent_serving
//   $ ./examples/persistent_serving --zones=600 --pings=300000
//
// Flags: --zones (polygons in the bigger dataset), --pings (points per
// batch), --store_dir.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "store/checkpointer.h"
#include "store/snapshot_store.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workloads/datasets.h"

int main(int argc, char** argv) {
  using namespace actjoin;

  util::Flags flags;
  flags.AddInt("zones", 289, "polygons in the census-style dataset");
  flags.AddInt("pings", 100'000, "points per JOIN_BATCH");
  flags.AddString("store_dir", "persistent_serving_store",
                  "snapshot store directory");
  flags.Parse(argc, argv);

  geo::Grid grid;
  // Both datasets share the NYC extent so one ping workload probes both.
  const double n = static_cast<double>(flags.GetInt("zones"));
  wl::PolygonDataset zones = wl::Neighborhoods(n / 289.0);
  wl::PolygonDataset census = wl::Census(n / 39184.0 * 4);
  wl::PointSet pings = wl::TaxiPoints(
      zones.mbr, static_cast<uint64_t>(flags.GetInt("pings")), grid, 7);

  // ---- Act 1: first boot — build from raw polygons, serve, checkpoint.
  std::printf("=== first boot: building from raw polygons ===\n");
  util::WallTimer build_timer;
  service::ShardingOptions index_opts;
  auto zones_index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(zones.polygons, grid, index_opts));
  auto census_index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(census.polygons, grid, index_opts));
  const double build_s = build_timer.ElapsedSeconds();
  std::printf("built %zu + %zu polygons in %.1f ms\n", zones.polygons.size(),
              census.polygons.size(), build_s * 1e3);

  store::SnapshotStore store;
  std::string error;
  if (!store.Open({.dir = flags.GetString("store_dir")}, &error)) {
    std::fprintf(stderr, "store open failed: %s\n", error.c_str());
    return 1;
  }
  uint64_t first_boot_pairs = 0;
  {
    service::ServiceOptions service_opts;
    service_opts.worker_threads = 2;
    service::JoinService service(service_opts);  // empty catalog
    service.catalog().Add("zones", zones_index);
    service.catalog().Add("census", census_index);

    store::CheckpointerOptions ckpt_opts;
    ckpt_opts.interval_ms = 50;
    store::Checkpointer checkpointer(&store, &service, ckpt_opts);

    // Serve while checkpoints happen in the background; swap the zones
    // dataset mid-serve (the checkpointer persists the new epoch too).
    for (int i = 0; i < 6; ++i) {
      service::QueryBatch batch{pings.cell_ids(), pings.points(),
                                act::JoinMode::kExact,
                                static_cast<uint16_t>(i % 2)};
      first_boot_pairs +=
          service.Submit(std::move(batch)).get().stats.result_pairs;
      // Publishing (even the same snapshot) advances the epoch; the next
      // background sweep persists it as a fresh generation.
      if (i == 3) service.SwapIndex(0, zones_index);
    }
    checkpointer.Stop();
    store::CheckpointerStats cs = checkpointer.stats();
    std::printf(
        "served 6 batches (%llu pairs); checkpointer: %llu snapshots "
        "persisted, %llu old files GC'd\n",
        static_cast<unsigned long long>(first_boot_pairs),
        static_cast<unsigned long long>(cs.checkpoints),
        static_cast<unsigned long long>(cs.files_removed));
  }  // service torn down: the "process" exits

  // ---- Act 2: restart — no polygons, no covering work, just the store.
  std::printf("\n=== restart: warm start from %s ===\n",
              flags.GetString("store_dir").c_str());
  util::WallTimer warm_timer;
  store::SnapshotStore reopened;
  if (!reopened.Open({.dir = flags.GetString("store_dir")}, &error)) {
    std::fprintf(stderr, "store reopen failed: %s\n", error.c_str());
    return 1;
  }
  service::ServiceOptions service_opts;
  service_opts.worker_threads = 2;
  service::JoinService service(service_opts);
  std::vector<std::string> failed;
  const size_t served = store::WarmStart(reopened, &service.catalog(), &failed);
  const double warm_s = warm_timer.ElapsedSeconds();
  std::printf(
      "warm start: %zu dataset(s) in %.1f ms — vs %.1f ms to rebuild "
      "(%.1fx)\n",
      served, warm_s * 1e3, build_s * 1e3,
      warm_s > 0 ? build_s / warm_s : 0.0);
  for (const std::string& f : failed) {
    std::fprintf(stderr, "  failed: %s\n", f.c_str());
  }

  net::JoinServer server(&service, net::ServerOptions{});
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  net::JoinClient client;
  if (!client.Connect(server.host(), server.port(), &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }

  std::vector<service::DatasetInfo> datasets;
  client.ListDatasets(&datasets, &error);
  std::printf("\ncatalog over the wire (LIST_DATASETS):\n");
  for (const service::DatasetInfo& ds : datasets) {
    std::printf("  id %u  %-8s epoch %llu  %llu polygons\n", ds.id,
                ds.name.c_str(), static_cast<unsigned long long>(ds.epoch),
                static_cast<unsigned long long>(ds.num_polygons));
  }

  uint64_t restart_pairs = 0;
  for (const service::DatasetInfo& ds : datasets) {
    service::QueryBatch batch{pings.cell_ids(), pings.points(),
                              act::JoinMode::kExact, ds.id};
    net::JoinClient::Reply reply = client.Join(batch);
    if (!reply.ok) {
      std::fprintf(stderr, "join failed on '%s': %s\n", ds.name.c_str(),
                   reply.message.c_str());
      return 1;
    }
    restart_pairs += reply.result.stats.result_pairs;
    std::printf("JOIN_BATCH dataset %u -> %llu pairs in %.2f ms\n", ds.id,
                static_cast<unsigned long long>(reply.result.stats.result_pairs),
                reply.result.service_ms);
  }

  // A bogus dataset id: typed error, connection still usable.
  service::QueryBatch bogus{pings.cell_ids(), pings.points(),
                            act::JoinMode::kExact, 42};
  net::JoinClient::Reply reply = client.Join(bogus);
  std::printf("JOIN_BATCH dataset 42 -> %s (connection %s)\n",
              net::ToString(reply.error),
              client.Ping() ? "still alive" : "dead");

  server.Stop();
  if (served != 2 || restart_pairs == 0) {
    std::fprintf(stderr, "unexpected restart results\n");
    return 1;
  }
  std::printf("\nrestart served the same catalog without touching a single "
              "polygon file.\n");
  return 0;
}
