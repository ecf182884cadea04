// Live zone updates, served concurrently (src/service/).
//
// The original version of this example exercised runtime polygon updates
// with a stop-the-world pattern: AddPolygons / RemovePolygons mutate the
// one live PolygonIndex, so the operator could not serve queries while a
// rebuild ran. On top of service::JoinService the rebuild happens off to
// the side and goes live with one snapshot swap: a client thread keeps
// submitting ping batches the whole time, and the only "downtime" is the
// pointer swap itself. The example prints both numbers — rebuild seconds
// (the old unavailability window) vs swap milliseconds — plus the batches
// served *during* each rebuild.
//
//   $ ./examples/live_zone_updates

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "act/join.h"
#include "geo/grid.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/timer.h"
#include "workloads/datasets.h"

int main() {
  using namespace actjoin;

  geo::Grid grid;
  wl::PolygonDataset city = wl::Neighborhoods(0.3);
  const size_t initial_count = city.polygons.size() / 2;
  std::vector<geom::Polygon> initial(city.polygons.begin(),
                                     city.polygons.begin() + initial_count);

  service::ShardingOptions index_opts;
  index_opts.build.precision_bound_m = 20.0;
  auto build = [&](const std::vector<geom::Polygon>& zones) {
    return std::make_shared<const service::ShardedIndex>(
        service::ShardedIndex::Build(zones, grid, index_opts));
  };

  // Launch with the first half of the zones behind the serving layer.
  service::ServiceOptions server_opts;
  server_opts.worker_threads = 2;
  service::JoinService server(build(initial), server_opts);

  wl::PointSet pings = wl::TaxiPoints(city.mbr, 200'000, grid, 7);

  // A one-off synchronous probe of the current snapshot.
  auto serve = [&](const char* label) {
    service::JoinResult result =
        server
            .Submit({pings.cell_ids(), pings.points(),
                     act::JoinMode::kApproximate})
            .get();
    double mps = result.service_ms > 0
                     ? result.stats.num_points / result.service_ms / 1e3
                     : 0;
    std::printf(
        "%-28s epoch %llu  %3zu zones  %7.1f M pings/s  %5.1f%% matched\n",
        label, static_cast<unsigned long long>(result.epoch),
        server.CurrentIndex()->num_polygons(), mps,
        100.0 * result.stats.matched_points / result.stats.num_points);
  };

  // Background client hammering the service for the whole run: the point
  // of the serving layer is that this thread never notices a rebuild.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_served{0};
  std::thread client([&] {
    constexpr uint64_t kBatch = 10'000;
    uint64_t begin = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t end = std::min(begin + kBatch, pings.size());
      service::QueryBatch batch;
      batch.cell_ids.assign(pings.cell_ids().begin() + begin,
                            pings.cell_ids().begin() + end);
      batch.points.assign(pings.points().begin() + begin,
                          pings.points().begin() + end);
      batch.mode = act::JoinMode::kApproximate;
      server.Submit(std::move(batch)).get();
      batches_served.fetch_add(1, std::memory_order_relaxed);
      begin = end == pings.size() ? 0 : end;
    }
  });

  serve("launch (half the city)");

  // Expansion: rebuild with all zones off to the side, then go live with
  // one snapshot swap.
  uint64_t before_rebuild = batches_served.load();
  util::WallTimer rebuild_timer;
  auto expanded = build(city.polygons);
  double rebuild_s = rebuild_timer.ElapsedSeconds();
  util::WallTimer swap_timer;
  server.SwapIndex(expanded);
  double swap_ms = swap_timer.ElapsedMillis();
  std::printf(
      "expansion: rebuild %.2f s (served %llu batches meanwhile), "
      "swap %.3f ms\n",
      rebuild_s,
      static_cast<unsigned long long>(batches_served.load() - before_rebuild),
      swap_ms);
  serve("after expansion");

  // Contraction: retire every fifth zone the same way.
  std::vector<geom::Polygon> kept;
  for (size_t pid = 0; pid < city.polygons.size(); ++pid) {
    if (pid % 5 != 0) kept.push_back(city.polygons[pid]);
  }
  before_rebuild = batches_served.load();
  rebuild_timer.Restart();
  auto contracted = build(kept);
  rebuild_s = rebuild_timer.ElapsedSeconds();
  swap_timer.Restart();
  server.SwapIndex(contracted);
  swap_ms = swap_timer.ElapsedMillis();
  std::printf(
      "retirement: rebuild %.2f s (served %llu batches meanwhile), "
      "swap %.3f ms\n",
      rebuild_s,
      static_cast<unsigned long long>(batches_served.load() - before_rebuild),
      swap_ms);
  serve("after retirement");

  stop.store(true, std::memory_order_relaxed);
  client.join();

  service::ServiceStats stats = server.Stats();
  std::printf(
      "totals: %llu requests, %.0f qps, service p50/p99 %.2f/%.2f ms, "
      "queue-wait p50/p99 %.2f/%.2f ms\n",
      static_cast<unsigned long long>(stats.completed_requests), stats.qps,
      stats.service_p50_ms, stats.service_p99_ms, stats.queue_wait_p50_ms,
      stats.queue_wait_p99_ms);
  return 0;
}
