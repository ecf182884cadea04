// Admin plane demo: a serving stack — JoinService + wire JoinServer —
// with the HTTP observability endpoint running beside it, plus a driver
// thread keeping the server warm so every route has something to show.
//
// While the demo serves, point any HTTP client at the admin port:
//
//   $ ./examples/admin_plane_demo --serve_seconds=30
//   $ curl http://127.0.0.1:<port>/healthz
//   $ curl http://127.0.0.1:<port>/metrics
//   $ curl http://127.0.0.1:<port>/statusz
//   $ curl "http://127.0.0.1:<port>/profilez?seconds=2" | flamegraph.pl > prof.svg
//
// The demo itself also scrapes every route once and prints a digest, so
// running it with no curl in hand still demonstrates the whole plane.
// CI runs it with --port_file and curls the live endpoint from the
// workflow (the admin-endpoint smoke step).
//
// Flags: --pings (workload points), --serve_seconds (how long to serve
// after the built-in scrapes; 0 = exit immediately), --admin_port
// (0 = ephemeral), --port_file (write the bound admin port there, for
// scripts that need to find the ephemeral port).

#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admin_server.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "net/socket.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workloads/datasets.h"

namespace {

std::string AdminGet(uint16_t port, const std::string& target) {
  using namespace actjoin::net;
  std::string error;
  UniqueFd fd = ConnectTcp("127.0.0.1", port, &error);
  if (!fd.valid()) return "GET failed: " + error;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!SendAll(fd.get(), reinterpret_cast<const uint8_t*>(request.data()),
               request.size(), &error)) {
    return "GET failed: " + error;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd.get(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace actjoin;

  util::Flags flags;
  flags.AddInt("pings", 100'000, "points in the synthetic taxi workload");
  flags.AddInt("serve_seconds", 0,
               "keep serving this long after the built-in scrapes");
  flags.AddInt("admin_port", 0, "admin HTTP port (0 = ephemeral)");
  flags.AddString("port_file", "",
                  "write the bound admin port to this file once listening");
  flags.Parse(argc, argv);

  geo::Grid grid;
  wl::PolygonDataset city = wl::Neighborhoods(0.3);
  service::ShardingOptions index_opts;
  index_opts.build.precision_bound_m = 60.0;
  auto index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(city.polygons, grid, index_opts));

  service::ServiceOptions service_opts;
  service_opts.worker_threads = 2;
  service_opts.stage_perf_counters = true;  // degrades typed if denied
  service::JoinService service(index, service_opts);

  net::JoinServer server(&service, net::ServerOptions{});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  net::AdminOptions admin_opts;
  admin_opts.port = static_cast<uint16_t>(flags.GetInt("admin_port"));
  net::AdminServer admin(&service, admin_opts, &server);
  if (!admin.Start(&error)) {
    std::fprintf(stderr, "admin start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("wire server on %s:%u, admin plane on http://127.0.0.1:%u\n",
              server.host().c_str(), server.port(), admin.port());

  const std::string port_file = flags.GetString("port_file");
  if (!port_file.empty()) {
    // The port is written only after both servers listen: a script that
    // sees the file may immediately connect to either plane.
    if (FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", admin.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  // Background load: one client cycling traced joins keeps every route's
  // numbers moving (stage counters, slow-query ring, histograms).
  wl::PointSet pings = wl::TaxiPoints(
      city.mbr, static_cast<uint64_t>(flags.GetInt("pings")), grid, 17);
  std::atomic<bool> stop{false};
  std::thread load([&] {
    net::JoinClient client;
    if (!client.Connect(server.host(), server.port())) return;
    service::QueryBatch batch{pings.cell_ids(), pings.points(),
                              act::JoinMode::kApproximate};
    batch.trace = true;
    while (!stop.load(std::memory_order_relaxed)) client.Join(batch);
  });

  // Let a little traffic accumulate, then walk the routes.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::string health = AdminGet(admin.port(), "/healthz");
  const std::string ready = AdminGet(admin.port(), "/readyz");
  const std::string metrics = AdminGet(admin.port(), "/metrics");
  const std::string statusz = AdminGet(admin.port(), "/statusz");
  const std::string tracez = AdminGet(admin.port(), "/tracez");
  std::printf("/healthz -> %s\n", health.substr(0, health.find("\r\n")).c_str());
  std::printf("/readyz  -> %s\n", ready.substr(0, ready.find("\r\n")).c_str());
  std::printf("/metrics -> %zu exposition lines\n", CountLines(metrics));
  std::printf("/statusz -> %zu lines\n", CountLines(statusz));
  std::printf("/tracez  -> %zu lines\n", CountLines(tracez));
  const std::string profile = AdminGet(admin.port(), "/profilez?seconds=1");
  std::printf("/profilez (1s) -> %zu collapsed stacks\n", CountLines(profile));

  const int serve_seconds = static_cast<int>(flags.GetInt("serve_seconds"));
  if (serve_seconds > 0) {
    std::printf("serving for %d more seconds; try the curls above\n",
                serve_seconds);
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  }

  stop.store(true, std::memory_order_relaxed);
  load.join();
  admin.Stop();
  server.Stop();
  const bool ok = health.rfind("HTTP/1.1 200", 0) == 0 &&
                  ready.rfind("HTTP/1.1 200", 0) == 0 &&
                  CountLines(metrics) > 0 && CountLines(statusz) > 0;
  std::printf("%s\n", ok ? "admin plane OK" : "admin plane FAILED");
  return ok ? 0 : 1;
}
