// Network join demo: a JoinServer on an ephemeral loopback port, driven by
// JoinClient — first politely, then deliberately over the admission
// controller's rate limit to show typed rejections doing their job.
//
// The server is configured with a token-bucket rate limit; the client
// fires requests as fast as the socket allows. Admitted requests report
// QPS and latency quantiles; over-rate requests come back as typed
// RATE_LIMITED errors on the same connection — no blocking, no dropped
// connections, and the reject counters show up in the server's stats
// (JoinClient::GetStats, mapped from a GET_METRICS report).
//
//   $ ./examples/net_join_demo
//   $ ./examples/net_join_demo --pings=200000 --rate_qps=50 --requests=400
//
// Flags: --pings (points in the workload), --batch (points per request),
// --rate_qps (admitted JOIN_BATCH/s), --requests (requests to fire).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workloads/datasets.h"

int main(int argc, char** argv) {
  using namespace actjoin;

  util::Flags flags;
  flags.AddInt("pings", 100'000, "points in the synthetic taxi workload");
  flags.AddInt("batch", 10'000, "points per JOIN_BATCH request");
  flags.AddDouble("rate_qps", 25.0, "admission rate limit, requests/s");
  flags.AddInt("requests", 200, "requests the client fires");
  flags.Parse(argc, argv);

  geo::Grid grid;
  wl::PolygonDataset city = wl::Neighborhoods(0.3);
  service::ShardingOptions index_opts;
  index_opts.build.precision_bound_m = 60.0;
  auto index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(city.polygons, grid, index_opts));

  service::ServiceOptions service_opts;
  service_opts.worker_threads = 2;
  service::JoinService service(index, service_opts);

  net::ServerOptions server_opts;  // port 0 => ephemeral
  server_opts.admission.rate_limit_qps = flags.GetDouble("rate_qps");
  server_opts.admission.rate_burst = 10;
  net::JoinServer server(&service, server_opts);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("JoinServer on %s:%u — %zu zones, rate limit "
              "%.0f req/s (burst 10)\n\n",
              server.host().c_str(), server.port(), city.polygons.size(),
              server_opts.admission.rate_limit_qps);

  wl::PointSet pings =
      wl::TaxiPoints(city.mbr, flags.GetInt("pings"), grid, 7);
  const uint64_t batch_points =
      std::max<int64_t>(1, flags.GetInt("batch"));

  net::JoinClient client;
  if (!client.Connect(server.host(), server.port(), &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }

  // Fire flat out: an over-rate client by construction. Batches cycle
  // through the workload; rejected requests are counted, not retried.
  const int total_requests = std::max<int64_t>(1, flags.GetInt("requests"));
  uint64_t ok = 0, rate_limited = 0, other_errors = 0, points_served = 0;
  util::WallTimer wall;
  uint64_t begin = 0;
  for (int i = 0; i < total_requests; ++i) {
    uint64_t end = std::min(begin + batch_points, pings.size());
    service::QueryBatch batch;
    batch.cell_ids.assign(pings.cell_ids().begin() + begin,
                          pings.cell_ids().begin() + end);
    batch.points.assign(pings.points().begin() + begin,
                        pings.points().begin() + end);
    batch.mode = act::JoinMode::kApproximate;
    begin = end < pings.size() ? end : 0;

    net::JoinClient::Reply reply = client.Join(batch);
    if (reply.ok) {
      ++ok;
      points_served += reply.result.stats.num_points;
    } else if (reply.error == net::WireError::kRateLimited) {
      ++rate_limited;
    } else {
      ++other_errors;
      std::fprintf(stderr, "unexpected error: %s\n", reply.message.c_str());
    }
  }
  double seconds = wall.ElapsedSeconds();

  service::ServiceStats stats;
  if (!client.GetStats(&stats, &error)) {
    std::fprintf(stderr, "stats failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("client fired %d requests in %.2f s (%.0f req/s offered)\n",
              total_requests, seconds, total_requests / seconds);
  std::printf("  admitted:      %llu (%.1f M points/s end to end)\n",
              static_cast<unsigned long long>(ok),
              seconds > 0 ? points_served / seconds / 1e6 : 0.0);
  std::printf("  rate limited:  %llu (typed wire error, connection kept)\n",
              static_cast<unsigned long long>(rate_limited));
  std::printf("server-side stats (GET_METRICS over the wire):\n");
  std::printf("  qps %.1f | service p50 %.2f ms p99 %.2f ms | queue-wait "
              "p50 %.2f ms\n",
              stats.qps, stats.service_p50_ms, stats.service_p99_ms,
              stats.queue_wait_p50_ms);
  std::printf("  rejects: rate=%llu bytes=%llu watermark=%llu "
              "queue-full=%llu | points served %llu\n",
              static_cast<unsigned long long>(stats.rejected_rate_limit),
              static_cast<unsigned long long>(stats.rejected_inflight_bytes),
              static_cast<unsigned long long>(
                  stats.rejected_queue_watermark),
              static_cast<unsigned long long>(stats.rejected_queue_full),
              static_cast<unsigned long long>(stats.points_served));

  bool sane = ok > 0 && other_errors == 0 &&
              stats.rejected_rate_limit == rate_limited &&
              stats.completed_requests == ok &&
              stats.points_served == points_served;
  if (!sane) {
    std::fprintf(stderr, "demo invariants violated\n");
    return 1;
  }
  std::printf("\nadmission control held: %llu over-rate requests bounced "
              "typed, every admitted one answered.\n",
              static_cast<unsigned long long>(rate_limited));
  server.Stop();
  return 0;
}
