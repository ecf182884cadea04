// Tests for the HTTP admin plane (net/admin_server.h) and the sampling
// CPU profiler behind /profilez (util/cpu_profiler.h).
//
// AdminHttpTest drives the real socket path — connect, one GET, read to
// close — because the framing contract (Content-Length, Connection:
// close, status lines) is exactly what Prometheus and load balancers
// depend on; route logic alone is additionally covered through
// HandleRequest. ProfilerTest pins the profiler's contract: a busy,
// exported frame shows up by name in collapsed output, and concurrent
// profile requests serialize instead of double-arming the timer.
//
// Suites are named AdminHttp* / Profiler* so the TSan CI filter runs the
// concurrent-scrape and concurrent-profile cases under the race detector.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exposition_test_util.h"
#include "geo/grid.h"
#include "net/admin_server.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "net/socket.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/cpu_profiler.h"
#include "workloads/datasets.h"

namespace actjoin {

/// External linkage + noinline on purpose: -rdynamic only exports
/// non-static symbols, and the profiler test asserts this frame resolves
/// by name in collapsed stacks.
__attribute__((noinline)) uint64_t AdminTestBusyLoop(
    const std::atomic<bool>& stop) {
  volatile uint64_t acc = 1;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) acc = acc * 6364136223846793005ULL + 1442;
  }
  return acc;
}

namespace net {
namespace {

using service::JoinService;
using service::QueryBatch;
using service::ShardedIndex;

std::shared_ptr<const ShardedIndex> SmallSnapshot() {
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.15);
  service::ShardingOptions opts;
  opts.build.threads = 1;
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(ds.polygons, grid, opts));
}

QueryBatch SmallBatch(bool trace = false) {
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.15);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 400, grid, 7);
  QueryBatch batch{pts.cell_ids(), pts.points(), act::JoinMode::kExact};
  batch.trace = trace;
  batch.trace_id = 42;
  return batch;
}

/// One blocking HTTP GET: send the request, read to connection close,
/// return the raw response (status line + headers + body).
std::string HttpGet(uint16_t port, const std::string& target) {
  std::string error;
  UniqueFd fd = ConnectTcp("127.0.0.1", port, &error);
  if (!fd.valid()) return "connect failed: " + error;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!SendAll(fd.get(), reinterpret_cast<const uint8_t*>(request.data()),
               request.size(), &error)) {
    return "send failed: " + error;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd.get(), buf, sizeof(buf), 0);
    if (n <= 0) break;  // close (the framing contract) or error
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

TEST(AdminHttpTest, HealthzAndReadyzOverRealSockets) {
  JoinService service(SmallSnapshot());
  service.Start();
  AdminServer admin(&service);
  std::string error;
  ASSERT_TRUE(admin.Start(&error)) << error;
  ASSERT_NE(admin.port(), 0);

  const std::string health = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(StatusLine(health), "HTTP/1.1 200 OK");
  EXPECT_EQ(Body(health), "ok\n");
  EXPECT_NE(health.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(health.find("Content-Length: 3\r\n"), std::string::npos);

  const std::string ready = HttpGet(admin.port(), "/readyz");
  EXPECT_EQ(StatusLine(ready), "HTTP/1.1 200 OK");
  EXPECT_EQ(Body(ready), "ready\n");

  admin.Stop();
  service.Shutdown();
}

TEST(AdminHttpTest, ReadyzReports503WithNoServableDataset) {
  // The catalog-less boot path: ids may exist but nothing is published.
  JoinService service{service::ServiceOptions{}};
  service.Start();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  const std::string ready = HttpGet(admin.port(), "/readyz");
  EXPECT_EQ(StatusLine(ready), "HTTP/1.1 503 Service Unavailable");
  EXPECT_EQ(Body(ready), "no servable dataset\n");
  // Liveness is orthogonal to readiness.
  EXPECT_EQ(StatusLine(HttpGet(admin.port(), "/healthz")), "HTTP/1.1 200 OK");

  admin.Stop();
  service.Shutdown();
}

TEST(AdminHttpTest, MetricsScrapeParsesAsExposition) {
  JoinService service(SmallSnapshot());
  service.Start();
  for (int i = 0; i < 3; ++i) service.Submit(SmallBatch()).get();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  const std::string response = HttpGet(admin.port(), "/metrics");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  const std::string body = Body(response);
  testutil::ExpectParsesAsExposition(body);
  EXPECT_NE(body.find("actjoin_dataset_requests_completed_total"),
            std::string::npos);

  admin.Stop();
  service.Shutdown();
}

TEST(AdminHttpTest, StatuszShowsDatasetsStagesAndWireCounters) {
  JoinService service(SmallSnapshot());
  service.Start();
  service.Submit(SmallBatch(/*trace=*/true)).get();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  const std::string body = Body(HttpGet(admin.port(), "/statusz"));
  EXPECT_NE(body.find("actjoin statusz"), std::string::npos);
  EXPECT_NE(body.find("[service]"), std::string::npos);
  EXPECT_NE(body.find("completed_requests: 1"), std::string::npos);
  EXPECT_NE(body.find("[datasets]"), std::string::npos);
  EXPECT_NE(body.find("default epoch=1"), std::string::npos);
  EXPECT_NE(body.find("[stage_perf_counters]"), std::string::npos);
  // No JoinServer attached: the wire section is absent.
  EXPECT_EQ(body.find("[wire]"), std::string::npos);

  admin.Stop();
  service.Shutdown();
}

/// The line of `text` that starts with `prefix` ("" when there is none).
std::string LineStartingWith(const std::string& text,
                             const std::string& prefix) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (text.compare(start, prefix.size(), prefix) == 0) {
      return text.substr(start, end - start);
    }
    start = end + 1;
  }
  return {};
}

TEST(AdminHttpTest, StatuszWireBlockEqualsItsMetricsSeries) {
  JoinService service(SmallSnapshot());
  JoinServer server(&service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;
  ASSERT_TRUE(client.Join(SmallBatch()).ok);
  // The reply can reach the client before the server counts the flush or
  // retires the request; wait for both so the two scrapes below see the
  // same numbers. The client stays connected, so nothing moves after.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.counters().responses_sent < 1 ||
          service.Stats().outstanding_requests != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  AdminServer admin(&service, AdminOptions{}, &server);
  ASSERT_TRUE(admin.Start());

  const std::string statusz = Body(HttpGet(admin.port(), "/statusz"));
  const std::string metrics = Body(HttpGet(admin.port(), "/metrics"));
  const size_t wire_at = statusz.find("\n[wire]\n");
  ASSERT_NE(wire_at, std::string::npos) << statusz;
  const std::string wire = statusz.substr(wire_at);
  auto series = [&metrics](const std::string& name) {
    return testutil::ExpositionValue(metrics, "actjoin_" + name);
  };

  unsigned long long a = 0, b = 0, c = 0, d = 0, e = 0;
  ASSERT_EQ(std::sscanf(
                LineStartingWith(wire, "connections accepted/closed:").c_str(),
                "connections accepted/closed: %llu / %llu", &a, &b),
            2);
  EXPECT_EQ(a, series("server_connections_accepted_total"));
  EXPECT_EQ(b, series("server_connections_closed_total"));
  EXPECT_EQ(a, 1u);

  ASSERT_EQ(std::sscanf(LineStartingWith(wire, "frames_received:").c_str(),
                        "frames_received: %llu  responses_sent: %llu", &a,
                        &b),
            2);
  EXPECT_EQ(a, series("server_frames_received_total"));
  EXPECT_EQ(b, series("server_responses_sent_total"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 1u);

  ASSERT_EQ(std::sscanf(LineStartingWith(wire, "protocol_errors:").c_str(),
                        "protocol_errors: %llu", &a),
            1);
  EXPECT_EQ(a, series("server_protocol_errors_total"));

  ASSERT_EQ(std::sscanf(
                LineStartingWith(wire, "events pushed/dropped:").c_str(),
                "events pushed/dropped: %llu / %llu  gap_frames: %llu", &a,
                &b, &c),
            3);
  EXPECT_EQ(a, series("server_events_pushed_total"));
  EXPECT_EQ(b, series("server_events_dropped_total"));
  EXPECT_EQ(c, series("server_event_gap_frames_total"));

  ASSERT_EQ(std::sscanf(LineStartingWith(wire, "admission admitted:").c_str(),
                        "admission admitted: %llu  rejected "
                        "rate/bytes/watermark: %llu / %llu / %llu  "
                        "refunded: %llu",
                        &a, &b, &c, &d, &e),
            5);
  EXPECT_EQ(a, series("admission_admitted_total"));
  EXPECT_EQ(b, series("admission_rejected_total{reason=\"rate_limit\"}"));
  EXPECT_EQ(c,
            series("admission_rejected_total{reason=\"inflight_bytes\"}"));
  EXPECT_EQ(d,
            series("admission_rejected_total{reason=\"queue_watermark\"}"));
  EXPECT_EQ(e, series("admission_refunded_total"));
  EXPECT_EQ(a, 1u);

  ASSERT_EQ(std::sscanf(
                LineStartingWith(wire, "active_subscriptions:").c_str(),
                "active_subscriptions: %llu  outstanding_requests: %llu", &a,
                &b),
            2);
  EXPECT_EQ(a, series("active_subscriptions"));
  EXPECT_EQ(b, series("server_outstanding_requests"));

  admin.Stop();
  client.Close();
  server.Stop();
  service.Shutdown();
}

TEST(AdminHttpTest, TracezListsSlowQueriesAndEvents) {
  JoinService service(SmallSnapshot());
  service.Start();
  for (int i = 0; i < 2; ++i) service.Submit(SmallBatch()).get();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  const std::string body = Body(HttpGet(admin.port(), "/tracez"));
  EXPECT_NE(body.find("[slow_queries]"), std::string::npos);
  // Every completed request qualifies while the top-K ring is filling.
  EXPECT_NE(body.find("req="), std::string::npos);
  EXPECT_NE(body.find("[events]"), std::string::npos);

  admin.Stop();
  service.Shutdown();
}

TEST(AdminHttpTest, UnknownRouteAndBadMethod) {
  JoinService service(SmallSnapshot());
  service.Start();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  EXPECT_EQ(StatusLine(HttpGet(admin.port(), "/nope")),
            "HTTP/1.1 404 Not Found");

  // Route dispatch directly: non-GET must 405 and advertise the allowed
  // method.
  const std::string post = admin.HandleRequest("POST", "/metrics");
  EXPECT_EQ(StatusLine(post), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_NE(post.find("Allow: GET\r\n"), std::string::npos);

  admin.Stop();
  service.Shutdown();
}

TEST(AdminHttpTest, ConcurrentScrapesUnderLoad) {
  // Scrapes race live joins; TSan watches the snapshot-style reads.
  JoinService service(SmallSnapshot());
  service.Start();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  std::atomic<bool> stop{false};
  std::thread load([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      service.Submit(SmallBatch()).get();
    }
  });
  std::vector<std::thread> scrapers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      const char* target = t == 0 ? "/metrics" : t == 1 ? "/statusz" : "/tracez";
      for (int i = 0; i < 8; ++i) {
        if (StatusLine(HttpGet(admin.port(), target)) != "HTTP/1.1 200 OK") {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  load.join();
  EXPECT_EQ(bad.load(), 0);

  admin.Stop();
  service.Shutdown();
}

TEST(ProfilerTest, BusyFrameAppearsInCollapsedStacks) {
  if (!util::CpuProfiler::Supported()) {
    GTEST_SKIP() << "SIGPROF profiling unsupported on this platform";
  }
  std::atomic<bool> stop{false};
  std::thread busy([&] { AdminTestBusyLoop(stop); });
  util::CpuProfiler::Options opts;
  opts.hz = 400;  // short window, so sample densely
  const std::string collapsed = util::CpuProfiler::ProfileFor(0.3, opts);
  stop.store(true, std::memory_order_relaxed);
  busy.join();

  ASSERT_FALSE(collapsed.empty());
  EXPECT_GT(util::CpuProfiler::last_sample_count(), 0);
  // The exported busy frame must resolve by name, not as raw hex.
  EXPECT_NE(collapsed.find("AdminTestBusyLoop"), std::string::npos)
      << collapsed;
  // Collapsed-stack grammar: every line is "frame[;frame...] count".
  size_t start = 0;
  while (start < collapsed.size()) {
    size_t end = collapsed.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = collapsed.substr(start, end - start);
    start = end + 1;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u) << line;
  }
}

TEST(ProfilerTest, ProfilezEndpointServesProfileWhileSaturated) {
  JoinService service(SmallSnapshot());
  service.Start();
  AdminServer admin(&service);
  ASSERT_TRUE(admin.Start());

  std::atomic<bool> stop{false};
  std::thread busy([&] { AdminTestBusyLoop(stop); });
  const std::string response = HttpGet(admin.port(), "/profilez?seconds=0.2");
  stop.store(true, std::memory_order_relaxed);
  busy.join();

  if (!util::CpuProfiler::Supported()) {
    EXPECT_EQ(StatusLine(response), "HTTP/1.1 503 Service Unavailable");
  } else {
    EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
    EXPECT_NE(response.find("X-Profile-Samples: "), std::string::npos);
    EXPECT_FALSE(Body(response).empty());
  }

  admin.Stop();
  service.Shutdown();
}

TEST(ProfilerTest, ConcurrentProfileRequestsSerialize) {
  if (!util::CpuProfiler::Supported()) {
    GTEST_SKIP() << "SIGPROF profiling unsupported on this platform";
  }
  // Two simultaneous ProfileFor calls must queue on the internal mutex —
  // never double-arm ITIMER_PROF, never crash — and both complete.
  std::atomic<bool> stop{false};
  std::thread busy([&] { AdminTestBusyLoop(stop); });
  std::atomic<int> done{0};
  std::vector<std::thread> profilers;
  for (int i = 0; i < 2; ++i) {
    profilers.emplace_back([&] {
      util::CpuProfiler::ProfileFor(0.1);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : profilers) t.join();
  stop.store(true, std::memory_order_relaxed);
  busy.join();
  EXPECT_EQ(done.load(), 2);
}

}  // namespace
}  // namespace net
}  // namespace actjoin
