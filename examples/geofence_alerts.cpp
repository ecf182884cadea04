// Geofence alerts: a fleet of moving devices against the borough
// geofences, served as a wire v6 continuous query.
//
// One connection SUBSCRIBEs to every borough (selector: all polygons,
// both directions) and then just listens; a second connection plays the
// role of the position ingestion pipeline, reporting the whole fleet's
// coordinates once per dispatch cycle. The server folds each report
// through the subscription matcher and pushes delta-only EVENT frames —
// the subscriber never asks, alerts simply arrive.
//
// The number this example exists to print is alert latency: the time
// from handing a position report to the socket until the ENTER/LEAVE it
// caused is delivered to the subscriber's handler, reported as p50 /
// p99 / p99.9 over the whole run. It closes with the server's own stats
// (standing queries, events pushed, drops), one GET_METRICS report
// fetched over the same wire.
//
//   $ ./examples/geofence_alerts
//   $ ./examples/geofence_alerts --fleet=50000 --ticks=60
//
// Flags: --fleet (devices), --ticks (dispatch cycles), --scale
// (borough dataset scale).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "service/subscription_matcher.h"
#include "util/flags.h"
#include "util/latency_histogram.h"
#include "workloads/datasets.h"

int main(int argc, char** argv) {
  using namespace actjoin;
  using Clock = std::chrono::steady_clock;

  util::Flags flags;
  flags.AddInt("fleet", 20'000, "devices reporting positions");
  flags.AddInt("ticks", 30, "dispatch cycles (one fleet report each)");
  flags.AddDouble("scale", 0.5, "borough dataset scale factor");
  flags.Parse(argc, argv);
  const uint64_t fleet = std::max<int64_t>(1, flags.GetInt("fleet"));
  const int ticks = std::max(2, static_cast<int>(flags.GetInt("ticks")));

  geo::Grid grid;
  wl::PolygonDataset boroughs = wl::Boroughs(flags.GetDouble("scale"), 11);
  service::ShardingOptions index_opts;
  index_opts.build.precision_bound_m = 60.0;
  auto index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(boroughs.polygons, grid, index_opts));

  service::ServiceOptions service_opts;
  service_opts.worker_threads = 2;
  service::JoinService service(index, service_opts);
  net::JoinServer server(&service, net::ServerOptions{});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("JoinServer on %s:%u — %zu borough geofences, fleet of "
              "%llu, %d dispatch cycles\n\n",
              server.host().c_str(), server.port(),
              boroughs.polygons.size(),
              static_cast<unsigned long long>(fleet), ticks);

  // Fleet motion: every device has a home and an away position (two
  // clustered draws over the borough extent); each cycle one of eight
  // interleaved slices of the fleet commutes, so a steady ~12% of
  // devices cross boundaries per report while the rest hold position.
  constexpr int kSlices = 8;
  wl::PointSet home = wl::TaxiPoints(boroughs.mbr, fleet, grid, 41);
  wl::PointSet away = wl::TaxiPoints(boroughs.mbr, fleet, grid, 42);
  const act::JoinInput in_home = home.AsJoinInput();
  const act::JoinInput in_away = away.AsJoinInput();
  std::vector<service::QueryBatch> cycles(static_cast<size_t>(ticks));
  {
    std::vector<uint64_t> cells(in_home.cell_ids.begin(),
                                in_home.cell_ids.end());
    std::vector<geom::Point> points(in_home.points.begin(),
                                    in_home.points.end());
    std::vector<bool> commuted(kSlices, false);
    for (int t = 0; t < ticks; ++t) {
      const int slice = t % kSlices;
      commuted[slice] = !commuted[slice];
      const act::JoinInput& src = commuted[slice] ? in_away : in_home;
      for (uint64_t i = static_cast<uint64_t>(slice); i < fleet;
           i += kSlices) {
        cells[i] = src.cell_ids[i];
        points[i] = src.points[i];
      }
      cycles[static_cast<size_t>(t)].cell_ids = cells;
      cycles[static_cast<size_t>(t)].points = points;
      cycles[static_cast<size_t>(t)].mode = act::JoinMode::kApproximate;
    }
  }

  // The alert consumer: one standing subscription over every borough.
  // The handler runs on the client's reader thread the moment an EVENT
  // frame arrives; it timestamps against the current cycle's send time.
  net::JoinClient subscriber;
  if (!subscriber.Connect(server.host(), server.port(), &error)) {
    std::fprintf(stderr, "subscriber connect failed: %s\n", error.c_str());
    return 1;
  }
  std::atomic<int64_t> report_sent_ns{0};
  std::atomic<uint64_t> enters{0}, leaves{0}, gaps{0};
  std::mutex hist_mu;
  util::LatencyHistogram latency;
  service::SubscriptionSpec spec;  // defaults: all polygons, both ways
  auto reply = subscriber.Subscribe(
      0, spec,
      [&](const service::EventBatch& batch) {
        const int64_t now =
            Clock::now().time_since_epoch() / std::chrono::nanoseconds(1);
        const int64_t sent = report_sent_ns.load(std::memory_order_acquire);
        std::lock_guard<std::mutex> lock(hist_mu);
        for (const service::GeoEvent& ev : batch.events) {
          (ev.kind == service::GeoEventKind::kEnter ? enters : leaves)
              .fetch_add(1, std::memory_order_relaxed);
          latency.Record(static_cast<double>(now - sent) / 1e3);
        }
      },
      [&](const net::EventGap&) {
        gaps.fetch_add(1, std::memory_order_relaxed);
      });
  if (!reply.ok) {
    std::fprintf(stderr, "SUBSCRIBE failed: %s\n", reply.message.c_str());
    return 1;
  }
  std::printf("subscribed: id=%llu, watching %u polygons across %u "
              "coverage intervals\n",
              static_cast<unsigned long long>(reply.info.id),
              reply.info.watched_polygons, reply.info.coverage_intervals);

  // The ingestion pipeline: a second connection reports the fleet once
  // per cycle, then waits for the alerts that report caused to land
  // before starting the next cycle — so every alert's latency is
  // measured against the report that triggered it.
  net::JoinClient ingest;
  if (!ingest.Connect(server.host(), server.port(), &error)) {
    std::fprintf(stderr, "ingest connect failed: %s\n", error.c_str());
    return 1;
  }
  uint64_t delivered_target = 0;
  for (int t = 0; t < ticks; ++t) {
    report_sent_ns.store(
        Clock::now().time_since_epoch() / std::chrono::nanoseconds(1),
        std::memory_order_release);
    net::JoinClient::Reply r = ingest.Join(cycles[static_cast<size_t>(t)]);
    if (!r.ok) {
      std::fprintf(stderr, "cycle %d join failed: %s\n", t,
                   r.message.c_str());
      return 1;
    }
    // Emission is synchronous with the join; delivery is a push in
    // flight. Drain it before the next cycle re-stamps the send time.
    delivered_target = service.subscription_matcher()->events_emitted();
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (enters.load(std::memory_order_relaxed) +
                   leaves.load(std::memory_order_relaxed) <
               delivered_target &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  const uint64_t total = enters.load() + leaves.load();
  if (total < delivered_target) {
    std::fprintf(stderr, "alerts stalled: %llu of %llu delivered\n",
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(delivered_target));
    return 1;
  }
  if (total == 0) {
    std::fprintf(stderr, "no alerts fired — fleet never crossed a fence\n");
    return 1;
  }

  std::printf("\n%llu alerts over %d cycles (%llu ENTER, %llu LEAVE, "
              "%llu gap frames)\n",
              static_cast<unsigned long long>(total), ticks,
              static_cast<unsigned long long>(enters.load()),
              static_cast<unsigned long long>(leaves.load()),
              static_cast<unsigned long long>(gaps.load()));
  {
    std::lock_guard<std::mutex> lock(hist_mu);
    std::printf("alert latency (position report -> handler): "
                "p50 %.0f us, p99 %.0f us, p99.9 %.0f us\n",
                latency.P50Micros(), latency.P99Micros(),
                latency.P999Micros());
  }

  auto bye = subscriber.Unsubscribe(reply.info.id);
  if (!bye.ok) {
    std::fprintf(stderr, "UNSUBSCRIBE failed: %s\n", bye.message.c_str());
    return 1;
  }
  service::ServiceStats stats;
  if (subscriber.GetStats(&stats, &error)) {
    std::printf("\nserver stats: %llu events pushed, %llu dropped, %llu "
                "standing queries remain\n",
                static_cast<unsigned long long>(stats.events_pushed),
                static_cast<unsigned long long>(stats.events_dropped),
                static_cast<unsigned long long>(stats.active_subscriptions));
  }
  return 0;
}
