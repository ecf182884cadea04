// Tests for the observability layer (util/metrics.h, service/trace.h,
// service/slow_query_log.h): the registry's owned and callback instruments
// must collect exact values, the atomic Histogram must stay
// sample-for-sample identical to its LatencyHistogram twin, the Prometheus
// rendering must parse as text exposition format, the event ring and
// slow-query log must evict correctly — and all of the lock-free recording
// must hold up under ThreadSanitizer. Suites are named Metrics* / Trace* /
// Observability* so the TSan CI filter runs the concurrent ones.
//
// Threading discipline: gtest assertions run only on the main thread;
// worker threads record into the instruments and are joined before any
// assertion reads them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exposition_test_util.h"
#include "geo/grid.h"
#include "join2/cross_match_stage.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/slow_query_log.h"
#include "service/trace.h"
#include "util/latency_histogram.h"
#include "util/metrics.h"
#include "workloads/datasets.h"

namespace actjoin::util {
namespace {

// --- Registry instruments --------------------------------------------------

TEST(Metrics, OwnedAndCallbackInstrumentsCollectExactValues) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests_total", "help text");
  c->Inc();
  c->Inc(41);
  Gauge* g = registry.GetGauge("depth", "", "");
  g->Set(2.5);
  std::atomic<uint64_t> external{7};
  registry.RegisterCounterFn("external_total", "", "kind=\"x\"",
                             [&] { return external.load(); });
  registry.RegisterGaugeFamilyFn("per_thing", "one series per thing", [] {
    return MetricsRegistry::FamilySeries{{"thing=\"a\"", 1.0},
                                         {"thing=\"b\"", 2.0}};
  });

  // Create-or-get: the same (name, labels) pair is the same instrument.
  EXPECT_EQ(registry.GetCounter("requests_total"), c);

  std::vector<CollectedMetric> metrics = registry.Collect();
  ASSERT_EQ(metrics.size(), 4u);  // registration order
  EXPECT_EQ(metrics[0].name, "requests_total");
  EXPECT_EQ(metrics[0].kind, MetricKind::kCounter);
  ASSERT_EQ(metrics[0].series.size(), 1u);
  EXPECT_EQ(metrics[0].series[0].value, 42.0);
  EXPECT_EQ(metrics[1].series[0].value, 2.5);
  EXPECT_EQ(metrics[2].series[0].labels, "kind=\"x\"");
  EXPECT_EQ(metrics[2].series[0].value, 7.0);
  ASSERT_EQ(metrics[3].series.size(), 2u);
  EXPECT_EQ(metrics[3].series[0].labels, "thing=\"a\"");
  EXPECT_EQ(metrics[3].series[1].value, 2.0);
}

TEST(Metrics, HistogramMatchesLatencyHistogramGeometry) {
  // The atomic Histogram shares LatencyHistogram's bucket geometry and
  // sanitation; recording the same samples must produce the same counts,
  // quantile edges, and max. Sums use values exact in integer nanoseconds
  // (the atomic twin stores nanos) so they compare exactly.
  Histogram atomic_h;
  LatencyHistogram plain;
  const double samples[] = {0.0,  0.5,    1.0,     12.5,          901.25,
                            4096, 7777.5, 123456.0, 1e9 /* clamps */, -3.0};
  for (double s : samples) {
    atomic_h.Record(s);
    plain.Record(s);
  }
  LatencyHistogram snap = atomic_h.Snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.MaxMicros(), plain.MaxMicros());
  EXPECT_NEAR(snap.sum_micros(), plain.sum_micros(), 1e-3);
  EXPECT_EQ(snap.P50Micros(), plain.P50Micros());
  EXPECT_EQ(snap.P99Micros(), plain.P99Micros());
  EXPECT_EQ(snap.P999Micros(), plain.P999Micros());
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    ASSERT_EQ(snap.bucket_count(b), plain.bucket_count(b)) << "bucket " << b;
  }
}

// The exposition-format grammar check lives in exposition_test_util.h so
// the admin endpoint's /metrics test validates scrapes with the same
// parser.
using actjoin::testutil::ExpectParsesAsExposition;

TEST(Metrics, RenderPrometheusIsValidExposition) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "Requests served")->Inc(3);
  registry.GetGauge("queue_depth", "Queue depth", "shard=\"0\"")->Set(1.5);
  Histogram* h = registry.GetHistogram("service_seconds", "Service time");
  for (int i = 1; i <= 1000; ++i) h->Record(static_cast<double>(i));

  std::string text = registry.RenderPrometheus();
  ExpectParsesAsExposition(text);
  EXPECT_NE(text.find("# TYPE actjoin_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("actjoin_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("actjoin_queue_depth{shard=\"0\"} 1.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE actjoin_service_seconds histogram"),
            std::string::npos);
  // Histogram series: cumulative le buckets ending at +Inf == _count, with
  // the sum converted to seconds.
  EXPECT_NE(text.find("actjoin_service_seconds_bucket{le=\"+Inf\"} 1000"),
            std::string::npos);
  EXPECT_NE(text.find("actjoin_service_seconds_count 1000"),
            std::string::npos);
  // Sum of 1..1000 us = 500500 us = 0.5005 s.
  EXPECT_NE(text.find("actjoin_service_seconds_sum 0.5005"),
            std::string::npos);

  // Cumulative le buckets never decrease.
  uint64_t prev = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("actjoin_service_seconds_bucket{le=", pos)) !=
         std::string::npos) {
    size_t sp = text.rfind(' ', text.find('\n', pos));
    uint64_t v = std::strtoull(text.c_str() + sp + 1, nullptr, 10);
    EXPECT_GE(v, prev);
    prev = v;
    ++buckets_seen;
    pos = text.find('\n', pos);
  }
  EXPECT_EQ(buckets_seen, LatencyHistogram::kOctaves + 1);
}

TEST(Metrics, EventLogRingEvictsOldestAndKeepsSeq) {
  EventLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 1; i <= 10; ++i) {
    log.Append("kind" + std::to_string(i), "subject", "detail");
  }
  EXPECT_EQ(log.total_appended(), 10u);
  std::vector<MetricEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, the last four appended, seq contiguous 1-based.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 7 + i);
    EXPECT_EQ(events[i].kind, "kind" + std::to_string(7 + i));
    EXPECT_GE(events[i].uptime_s, 0.0);
    if (i > 0) {
      EXPECT_GE(events[i].uptime_s, events[i - 1].uptime_s);
    }
  }
}

TEST(Metrics, ConcurrentRecordingAndCollectionIsExact) {
  // The TSan target: threads hammer one counter, one gauge, and one
  // histogram through their lock-free paths while a collector snapshots
  // and renders concurrently. Totals must come out exact once joined.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("hits_total");
  Gauge* g = registry.GetGauge("level");
  Histogram* h = registry.GetHistogram("lat_seconds");
  registry.GetCounter("hits_total");  // concurrent create-or-get below too

  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_acquire)) {
      registry.Collect();
      registry.RenderPrometheus();
      registry.events().Append("tick", "", "");
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c->Inc();
        g->Set(static_cast<double>(t));
        h->Record(static_cast<double>(i % 1024));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  collector.join();

  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kOps);
  LatencyHistogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), static_cast<uint64_t>(kThreads) * kOps);
  double gv = g->value();
  EXPECT_GE(gv, 0.0);
  EXPECT_LT(gv, static_cast<double>(kThreads));
}

}  // namespace
}  // namespace actjoin::util

namespace actjoin::service {
namespace {

// --- Trace context and slow-query log --------------------------------------

TEST(Trace, ContextStageAccessorsAndTotal) {
  // One util::StageTrace serves every request kind: each kind's stage enum
  // indexes the same seven slots and keeps its own name table.
  auto check = [](auto probe, auto last, auto name, const char* last_name) {
    using Stage = decltype(probe);
    util::StageTrace trace;
    EXPECT_FALSE(trace.enabled);
    for (int s = 0; s < kNumTraceStages; ++s) {
      EXPECT_EQ(trace.stage_us[static_cast<size_t>(s)], 0.0);
      EXPECT_NE(std::string(name(static_cast<Stage>(s))), "");
    }
    trace.at(Stage::kAdmission) = 1.0;
    trace.at(probe) = 40.0;
    trace.at(last) = 2.0;
    EXPECT_EQ(trace.TotalMicros(), 43.0);
    EXPECT_EQ(std::string(name(Stage::kQueue)), "queue");
    EXPECT_EQ(std::string(name(last)), last_name);
    // Charge lands the lap's wall time, and its counters only once the
    // trace carries them.
    const util::StageSplit lap{.us = 3.0, .counters = {5, 6, 7}};
    trace.Charge(last, lap);
    EXPECT_EQ(trace.at(last), 3.0);
    EXPECT_EQ(trace.counters(last), util::StageCounterSample{});
    trace.counters_enabled = true;
    trace.Charge(last, lap);
    EXPECT_EQ(trace.counters(last), lap.counters);
  };
  check(TraceStage::kProbe, TraceStage::kRespond, TraceStageName, "respond");
  check(join2::CrossMatchStage::kDescend, join2::CrossMatchStage::kStream,
        join2::CrossMatchStageName, "stream");
}

TEST(Trace, SlowQueryLogKeepsTopKByServiceTime) {
  SlowQueryLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(SlowQueryLog(0).capacity(), 1u);  // clamp

  auto rec = [&](uint64_t id, double service_us) {
    SlowQuery q;
    q.request_id = id;
    q.service_us = service_us;
    log.Record(q);
  };
  rec(1, 10);
  rec(2, 30);
  rec(3, 20);
  // Full: the floor is the current minimum (10); at-or-below is rejected
  // on the lock-free fast path.
  rec(4, 5);
  rec(5, 10);
  std::vector<SlowQuery> top = log.TopK();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].request_id, 2u);
  EXPECT_EQ(top[1].request_id, 3u);
  EXPECT_EQ(top[2].request_id, 1u);

  // A slower query displaces the minimum.
  rec(6, 40);
  top = log.TopK();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].request_id, 6u);
  EXPECT_EQ(top[0].service_us, 40.0);
  EXPECT_EQ(top[2].request_id, 3u);
}

TEST(Trace, SlowQueryLogConcurrentRecordKeepsInvariants) {
  // TSan target for the floor fast path racing qualifying inserts.
  SlowQueryLog log(8);
  constexpr int kThreads = 4;
  constexpr int kOps = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        SlowQuery q;
        q.request_id = static_cast<uint64_t>(t) * kOps + i;
        // Deterministic spread; the global max is (kThreads*kOps - 1) * 7.
        q.service_us = static_cast<double>(q.request_id) * 7.0;
        log.Record(q);
        if (i % 512 == 0) log.TopK();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<SlowQuery> top = log.TopK();
  ASSERT_EQ(top.size(), 8u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].service_us, top[i].service_us);
  }
  // The slowest query ever recorded must have survived.
  EXPECT_EQ(top[0].service_us,
            static_cast<double>(kThreads * kOps - 1) * 7.0);
}

// --- Service-level integration ---------------------------------------------

std::shared_ptr<const ShardedIndex> BuildIndex(
    const std::vector<geom::Polygon>& polygons) {
  geo::Grid grid;
  act::BuildOptions bopts;
  bopts.threads = 1;
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, {.build = bopts}));
}

TEST(Observability, ServiceRegistersCoreSeriesTracksDatasetsAndEvents) {
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  auto index = BuildIndex(ds.polygons);

  ServiceOptions opts;
  opts.worker_threads = 2;
  JoinService service(index, opts);  // dataset 0 = "default"
  ASSERT_NE(service.metrics(), nullptr);
  ASSERT_TRUE(service.catalog().Add("census", index).has_value());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 400, grid, 91);
  QueryBatch batch{pts.cell_ids(), pts.points(), act::JoinMode::kExact};
  batch.trace_id = 77;
  service.Submit(batch).get();
  batch.dataset_id = 1;
  service.Submit(batch).get();
  service.SwapIndex(0, index);  // publishes epoch 2 for "default"

  // Per-dataset splits in ServiceStats (the epoch fix: dataset 1 keeps its
  // own epoch instead of reporting dataset 0's).
  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.dataset_splits.size(), 2u);
  EXPECT_EQ(stats.dataset_splits[0].name, "default");
  EXPECT_EQ(stats.dataset_splits[0].epoch, 2u);
  EXPECT_EQ(stats.dataset_splits[0].points_served, pts.size());
  EXPECT_EQ(stats.dataset_splits[0].completed_requests, 1u);
  EXPECT_EQ(stats.dataset_splits[1].name, "census");
  EXPECT_EQ(stats.dataset_splits[1].epoch, 1u);
  EXPECT_EQ(stats.dataset_splits[1].points_served, pts.size());

  // The registry collects the whole stack with per-dataset families.
  std::string text = service.metrics()->RenderPrometheus();
  for (const char* needle :
       {"actjoin_requests_completed_total 2", "actjoin_points_served_total",
        "actjoin_dataset_epoch{dataset=\"default\"} 2",
        "actjoin_dataset_epoch{dataset=\"census\"} 1",
        "actjoin_dataset_points_served_total{dataset=\"census\"}",
        "# TYPE actjoin_service_seconds histogram",
        "# TYPE actjoin_queue_wait_seconds histogram"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }

  // The swap landed in the event log, and both joins in the slow-query
  // ring (its floor starts at zero, so every completed request qualifies
  // until the ring fills).
  std::vector<util::MetricEvent> events =
      service.metrics()->events().Snapshot();
  bool saw_swap = false;
  for (const util::MetricEvent& e : events) {
    if (e.kind == "swap" && e.subject == "default") saw_swap = true;
  }
  EXPECT_TRUE(saw_swap);
  std::vector<SlowQuery> slow = service.slow_queries().TopK();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].num_points, pts.size());
  EXPECT_EQ(slow[0].request_id, 77u);
}

TEST(Observability, DisabledMetricsStillServesAndTraces) {
  // enable_metrics=false: no registry, no events — but tracing and the
  // slow-query log are independent of the registry and still work.
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  auto index = BuildIndex(ds.polygons);
  ServiceOptions opts;
  opts.worker_threads = 1;
  opts.enable_metrics = false;
  JoinService service(index, opts);
  EXPECT_EQ(service.metrics(), nullptr);

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 300, grid, 92);
  QueryBatch batch{pts.cell_ids(), pts.points(), act::JoinMode::kExact};
  batch.trace = true;
  batch.trace_id = 5;
  JoinResult result = service.Submit(batch).get();
  EXPECT_TRUE(result.trace.enabled);
  EXPECT_EQ(result.trace.request_id, 5u);
  EXPECT_GT(result.trace.at(TraceStage::kProbe) +
                result.trace.at(TraceStage::kDecompose) +
                result.trace.at(TraceStage::kMerge),
            0.0);
  EXPECT_EQ(service.slow_queries().TopK().size(), 1u);
}

TEST(Observability, TracedSubmitStagesTileServiceTime) {
  // The service-side contract behind the wire acceptance test: queue /
  // decompose / probe / merge are filled, non-negative, and decompose +
  // probe + merge sums exactly to the reported service time (the merge
  // stage absorbs untimed leftover so the stages tile it).
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  auto index = BuildIndex(ds.polygons);
  ServiceOptions opts;
  opts.worker_threads = 2;
  JoinService service(index, opts);

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 93);
  QueryBatch batch{pts.cell_ids(), pts.points(), act::JoinMode::kExact};
  batch.trace = true;
  JoinResult result = service.Submit(batch).get();
  ASSERT_TRUE(result.trace.enabled);
  for (int s = 0; s < kNumTraceStages; ++s) {
    EXPECT_GE(result.trace.stage_us[static_cast<size_t>(s)], 0.0)
        << TraceStageName(static_cast<TraceStage>(s));
  }
  // Admission / decode / respond belong to the network layer: zero here.
  EXPECT_EQ(result.trace.at(TraceStage::kAdmission), 0.0);
  EXPECT_EQ(result.trace.at(TraceStage::kDecode), 0.0);
  EXPECT_EQ(result.trace.at(TraceStage::kRespond), 0.0);
  const double service_us = result.trace.at(TraceStage::kDecompose) +
                            result.trace.at(TraceStage::kProbe) +
                            result.trace.at(TraceStage::kMerge);
  EXPECT_NEAR(service_us, result.service_ms * 1e3,
              1e-6 * std::max(1.0, result.service_ms * 1e3));
  EXPECT_NEAR(result.trace.at(TraceStage::kQueue),
              result.queue_wait_ms * 1e3, 1e-9);
  // An untraced submit carries a disabled, all-zero context.
  batch.trace = false;
  JoinResult untraced = service.Submit(batch).get();
  EXPECT_FALSE(untraced.trace.enabled);
  EXPECT_EQ(untraced.trace.TotalMicros(), 0.0);
}

// --- One stats source ------------------------------------------------------

// Every ServiceStats field but uptime_s and the two rates derived from it,
// which move between two reads.
void ExpectSameStats(const ServiceStats& a, const ServiceStats& b) {
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_EQ(a.rejected_queue_full, b.rejected_queue_full);
  EXPECT_EQ(a.rejected_shutdown, b.rejected_shutdown);
  EXPECT_EQ(a.rejected_unknown_dataset, b.rejected_unknown_dataset);
  EXPECT_EQ(a.rejected_rate_limit, b.rejected_rate_limit);
  EXPECT_EQ(a.rejected_inflight_bytes, b.rejected_inflight_bytes);
  EXPECT_EQ(a.rejected_queue_watermark, b.rejected_queue_watermark);
  EXPECT_EQ(a.mutations_applied, b.mutations_applied);
  EXPECT_EQ(a.rejected_mutations, b.rejected_mutations);
  EXPECT_EQ(a.points_served, b.points_served);
  EXPECT_EQ(a.queue_wait_p50_ms, b.queue_wait_p50_ms);
  EXPECT_EQ(a.queue_wait_p99_ms, b.queue_wait_p99_ms);
  EXPECT_EQ(a.queue_wait_p999_ms, b.queue_wait_p999_ms);
  EXPECT_EQ(a.service_p50_ms, b.service_p50_ms);
  EXPECT_EQ(a.service_p99_ms, b.service_p99_ms);
  EXPECT_EQ(a.service_p999_ms, b.service_p999_ms);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.num_datasets, b.num_datasets);
  EXPECT_EQ(a.active_subscriptions, b.active_subscriptions);
  EXPECT_EQ(a.outstanding_requests, b.outstanding_requests);
  EXPECT_EQ(a.events_pushed, b.events_pushed);
  EXPECT_EQ(a.events_dropped, b.events_dropped);
  EXPECT_EQ(a.peers, b.peers);
  EXPECT_EQ(a.dataset_splits, b.dataset_splits);
}

TEST(Observability, StatsAndExpositionAgreeOnEveryRejectReason) {
  // The stats a client fetches, the in-process view, and the /metrics
  // text must tell one story for every reject reason — rejects at the
  // front-end door included, and a mutation refused at the door counted
  // as a refused mutation, not a refused join.
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  auto index = BuildIndex(ds.polygons);
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.queue_capacity = 8;
  sopts.autostart = false;  // held back until the watermark reject
  JoinService service(index, sopts);  // dataset 0 = "default"
  ASSERT_TRUE(service.catalog().Add("doomed", index).has_value());
  net::ServerOptions nopts;
  nopts.admission.queue_watermark = 0.25;  // depth > 2 rejects
  nopts.admission.rate_limit_qps = 1e-6;   // refill negligible in-test
  nopts.admission.rate_burst = 2;
  nopts.peer_key = net::PeerKeyPolicy::kIpPort;  // one bucket per client
  net::JoinServer server(&service, nopts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 200, grid, 94);
  const QueryBatch batch{pts.cell_ids(), pts.points(), act::JoinMode::kExact};
  net::JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;
  auto expect_error = [](const net::JoinClient::Reply& reply,
                         net::WireError code) {
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, code) << reply.message;
  };

  // Queue watermark: three in-process submits fill the held-back queue.
  std::vector<std::future<JoinResult>> held;
  for (int i = 0; i < 3; ++i) held.push_back(service.Submit(batch));
  expect_error(client.Join(batch), net::WireError::kQueueWatermark);
  service.Start();
  for (auto& f : held) f.get();

  // Rate limit: a second client spends its burst of two, then bounces.
  net::JoinClient greedy;
  ASSERT_TRUE(greedy.Connect(server.host(), server.port(), &error)) << error;
  ASSERT_TRUE(greedy.Join(batch).ok);
  ASSERT_TRUE(greedy.Join(batch).ok);
  expect_error(greedy.Join(batch), net::WireError::kRateLimited);

  // Joins refused at the door: an unknown and a dropped dataset.
  ASSERT_EQ(service.DropDataset(1).status, MutationStatus::kApplied);
  QueryBatch unknown = batch;
  unknown.dataset_id = 9;
  expect_error(client.Join(unknown), net::WireError::kUnknownDataset);
  QueryBatch dropped = batch;
  dropped.dataset_id = 1;
  expect_error(client.Join(dropped), net::WireError::kDatasetDropped);

  // Mutations: one refused at the door, one refused by the service.
  expect_error(client.AddPolygons(9, {ds.polygons[0]}),
               net::WireError::kUnknownDataset);
  expect_error(client.AddPolygons(0, {}), net::WireError::kInvalidMutation);

  // The outstanding-requests gauge drops just after a reply is posted.
  ServiceStats local = server.StatsWithAdmission();
  for (int waited = 0; local.outstanding_requests != 0 && waited < 2000;
       waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    local = server.StatsWithAdmission();
  }
  ServiceStats remote;
  ASSERT_TRUE(client.GetStats(&remote, &error)) << error;
  local = server.StatsWithAdmission();
  ExpectSameStats(remote, local);
  EXPECT_LE(remote.uptime_s, local.uptime_s);

  EXPECT_EQ(local.completed_requests, 5u);  // 3 held + 2 greedy
  EXPECT_EQ(local.rejected_unknown_dataset, 2u);
  EXPECT_EQ(local.rejected_queue_watermark, 1u);
  EXPECT_EQ(local.rejected_rate_limit, 1u);
  EXPECT_EQ(local.rejected_requests, 4u);
  EXPECT_EQ(local.rejected_mutations, 2u);
  EXPECT_EQ(local.mutations_applied, 1u);  // the drop

  std::string text;
  ASSERT_TRUE(client.GetMetricsText(&text, &error)) << error;
  const std::pair<std::string, uint64_t> exported[] = {
      {"requests_completed_total", local.completed_requests},
      {"points_served_total", local.points_served},
      {"requests_rejected_total{reason=\"queue_full\"}",
       local.rejected_queue_full},
      {"requests_rejected_total{reason=\"shutdown\"}",
       local.rejected_shutdown},
      {"requests_rejected_total{reason=\"unknown_dataset\"}",
       local.rejected_unknown_dataset},
      {"admission_rejected_total{reason=\"rate_limit\"}",
       local.rejected_rate_limit},
      {"admission_rejected_total{reason=\"inflight_bytes\"}",
       local.rejected_inflight_bytes},
      {"admission_rejected_total{reason=\"queue_watermark\"}",
       local.rejected_queue_watermark},
      {"mutations_applied_total", local.mutations_applied},
      {"mutations_rejected_total", local.rejected_mutations},
  };
  for (const auto& [series, value] : exported) {
    EXPECT_EQ(testutil::ExpositionValue(text, "actjoin_" + series),
              static_cast<double>(value))
        << series;
  }
  server.Stop();
}

}  // namespace
}  // namespace actjoin::service
