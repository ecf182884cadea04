// Continuous-query push throughput (wire v6 SUBSCRIBE) versus the
// poll-equivalent a client had to run before subscriptions existed.
//
// The scenario is the ROADMAP's fleet tracker: a fleet of moving points
// (one track per device) and S consumers who each want ENTER/LEAVE
// transitions against a fixed geofence set. Every tick the fleet's
// positions reach the server as one JOIN_BATCH — that ingestion join is
// common to both worlds and is *not* what this bench compares. What
// differs is the marginal cost per consumer:
//
//   push:  each consumer holds one standing SUBSCRIBE; the matcher joins
//          the ingestion batch's moved tracks once, shared by every
//          subscription, and each subscription filters those pairs by its
//          watched polygons, diffs, and the server pushes delta-only EVENT
//          frames. Marginal server work per consumer per tick: a filter
//          and diff over the moved tracks plus a few hundred bytes of
//          events — no probe of its own. The shared probe costs the
//          same however many consumers share it, so push gains with
//          --subscribers; at one consumer watching a few polygons it is
//          the matcher's main cost.
//
//   poll:  each consumer re-sends the full fleet as its own JOIN_BATCH
//          every tick (the wire's only primitive for "where is everyone
//          now") and would diff memberships client-side. Marginal server
//          work per consumer per tick: a full *exact-mode* join of the
//          fleet — exact because ENTER/LEAVE is a membership diff, and
//          a diff of approximate results invents crossings that never
//          happened (the matcher's own contract is exact: candidate
//          cells refine through ContainsPoint). The baseline still
//          omits the client-side diff and the membership payload poll
//          would also need, so it remains a *lower bound* on poll's
//          true cost — push must beat even that.
//
// Server capacity is pinned (--workers, default 2) and consumers exceed
// it (--subscribers, default 8): with idle cores a wall-clock race hides
// the O(S) vs O(1) work difference; at fixed capacity it is exactly what
// the wall clock shows. Both arms deliver the same information (the same
// transition stream to every consumer), so events/second is comparable.
//
// --smoke gates the push arm: events/s > 0, zero outbox drops, and push
// beats the poll-equivalent baseline.
//
// Extra flags: --fleet (tracked points), --ticks (position updates),
// --subscribers, --geofences (watched polygon ids per subscription),
// --workers (service workers), --io_threads.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "geometry/pip.h"
#include "net/async_join_client.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "service/subscription_matcher.h"
#include "util/timer.h"

namespace actjoin::bench {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  flags.AddInt("fleet", 20000, "tracked devices (points per tick)");
  flags.AddInt("ticks", 40, "position updates driven through the server");
  flags.AddInt("subscribers", 8, "consumer connections");
  flags.AddInt("geofences", 8, "watched polygon ids per subscription");
  flags.AddInt("workers", 2, "JoinService worker threads (fixed capacity)");
  flags.AddInt("io_threads", 2, "JoinServer event-loop threads");
  BenchEnv env = ParseEnv(argc, argv, &flags);
  uint64_t fleet = std::max<int64_t>(1, flags.GetInt("fleet"));
  int ticks = std::max(2, static_cast<int>(flags.GetInt("ticks")));
  if (env.smoke) {
    env.reps = 2;
    fleet = std::min<uint64_t>(fleet, 6000);
    ticks = std::min(ticks, 12);
    // Smoke's default scale leaves a handful of polygons — a join so cheap
    // that nothing can beat it. The comparison needs a dataset where a
    // full re-join costs something; 0.2 keeps the smoke run in seconds.
    env.scale = std::max(env.scale, 0.2);
  }
  const int subscribers =
      std::max(1, static_cast<int>(flags.GetInt("subscribers")));
  const int workers = std::max(1, static_cast<int>(flags.GetInt("workers")));
  const int io_threads =
      std::max(1, static_cast<int>(flags.GetInt("io_threads")));

  wl::PolygonDataset ds = wl::Neighborhoods(env.scale);
  service::ShardingOptions sharding;
  sharding.build.precision_bound_m = 60.0;
  sharding.build.threads = env.threads;
  auto index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(ds.polygons, env.grid, sharding));

  // Fleet motion: track i has a "home" position and an "away" position
  // (two clustered draws over the same extent). Each tick toggles one of
  // kSlices interleaved slices of the fleet between the two — a steady
  // ~1/kSlices of the devices move per tick, the rest hold position, so
  // the event stream is a realistic trickle of crossings rather than the
  // whole fleet teleporting every tick.
  constexpr int kSlices = 8;
  wl::PointSet pos_a = wl::TaxiPoints(ds.mbr, fleet, env.grid, 21);
  wl::PointSet pos_b = wl::TaxiPoints(ds.mbr, fleet, env.grid, 22);
  const act::JoinInput in_a = pos_a.AsJoinInput();
  const act::JoinInput in_b = pos_b.AsJoinInput();
  std::vector<service::QueryBatch> tick_batches(
      static_cast<size_t>(ticks));
  {
    std::vector<uint64_t> cells(in_a.cell_ids.begin(), in_a.cell_ids.end());
    std::vector<geom::Point> points(in_a.points.begin(), in_a.points.end());
    std::vector<bool> away(kSlices, false);
    for (int t = 0; t < ticks; ++t) {
      const int slice = t % kSlices;
      away[slice] = !away[slice];
      const act::JoinInput& src = away[slice] ? in_b : in_a;
      for (uint64_t i = static_cast<uint64_t>(slice); i < fleet;
           i += kSlices) {
        cells[i] = src.cell_ids[i];
        points[i] = src.points[i];
      }
      tick_batches[static_cast<size_t>(t)].cell_ids = cells;
      tick_batches[static_cast<size_t>(t)].points = points;
      tick_batches[static_cast<size_t>(t)].mode = act::JoinMode::kApproximate;
    }
  }

  // Watch a small geofence set — but one the fleet actually visits:
  // scan a sample of positions and keep the first polygons that contain
  // any, so the smoke gate's "events flowed" assertion cannot be starved
  // by an unlucky id range.
  service::SubscriptionSpec spec;
  spec.selector = service::SubscriptionSpec::Selector::kPolygonIds;
  const uint32_t geofences = static_cast<uint32_t>(std::max<int64_t>(
      1, std::min<int64_t>(flags.GetInt("geofences"),
                           static_cast<int64_t>(ds.polygons.size()))));
  {
    std::vector<bool> chosen(ds.polygons.size(), false);
    const uint64_t sample = std::min<uint64_t>(fleet, 256);
    for (uint64_t i = 0; i < sample && spec.polygon_ids.size() < geofences;
         ++i) {
      for (const act::JoinInput* in : {&in_a, &in_b}) {
        for (size_t j = 0; j < ds.polygons.size(); ++j) {
          if (chosen[j]) continue;
          if (geom::ContainsPoint(ds.polygons[j], in->points[i])) {
            chosen[j] = true;
            spec.polygon_ids.push_back(static_cast<uint32_t>(j));
            break;
          }
        }
        if (spec.polygon_ids.size() >= geofences) break;
      }
    }
    for (uint32_t id = 0;
         spec.polygon_ids.size() < geofences &&
         id < ds.polygons.size();
         ++id) {
      if (!chosen[id]) spec.polygon_ids.push_back(id);
    }
  }
  spec.mode = service::SubscriptionMode::kBoth;

  std::printf(
      "Continuous queries: %zu polygons (%zu geofenced), fleet of %llu, "
      "%d ticks, %d consumers, %d workers (scale=%.3g)\n\n",
      ds.polygons.size(), spec.polygon_ids.size(),
      static_cast<unsigned long long>(fleet), ticks, subscribers, workers,
      env.scale);

  service::ServiceOptions sopts;
  sopts.worker_threads = workers;
  net::ServerOptions nopts;
  nopts.io_threads = io_threads;

  // --- Push arm, one rep: S standing subscriptions, one ingestion join
  // per tick, all ticks pipelined through the AsyncJoinClient — the
  // ingestion pipeline never waits for a reply before reporting the next
  // cycle, so scheduler delays under ambient load overlap instead of
  // stacking tick by tick (a serial round-trip chain degrades ~10x under
  // a parallel ctest; pipelined ingestion degrades like any
  // throughput-bound workload). Returns events/s (< 0 on failure) and
  // leaves the rep's delivered count in credit_events for the paired
  // poll rep (workers may fold pipelined ticks out of order, so the
  // count can differ slightly between reps — each pair settles on its
  // own).
  double push_eps = 0;
  double push_wall_ms = 0;
  uint64_t push_events = 0;
  uint64_t push_dropped = 0;
  uint64_t credit_events = 0;
  auto run_push = [&]() -> double {
    service::JoinService service(index, sopts);
    net::JoinServer server(&service, nopts);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "JoinServer start failed: %s\n", error.c_str());
      return -1;
    }
    std::atomic<uint64_t> received{0};
    std::vector<std::unique_ptr<net::JoinClient>> subs;
    for (int s = 0; s < subscribers; ++s) {
      auto client = std::make_unique<net::JoinClient>();
      if (!client->Connect(server.host(), server.port(), &error)) {
        std::fprintf(stderr, "subscriber connect failed: %s\n", error.c_str());
        return -1;
      }
      auto reply = client->Subscribe(
          0, spec, [&received](const service::EventBatch& batch) {
            received.fetch_add(batch.events.size(),
                               std::memory_order_relaxed);
          });
      if (!reply.ok) {
        std::fprintf(stderr, "SUBSCRIBE failed: %s\n", reply.message.c_str());
        return -1;
      }
      subs.push_back(std::move(client));
    }
    net::AsyncJoinClient driver;
    if (!driver.Connect(server.host(), server.port(), &error)) {
      std::fprintf(stderr, "driver connect failed: %s\n", error.c_str());
      return -1;
    }
    util::WallTimer timer;
    std::vector<std::future<net::AsyncJoinClient::RawReply>> inflight;
    inflight.reserve(static_cast<size_t>(ticks));
    for (int t = 0; t < ticks; ++t) {
      const uint64_t id = driver.NextRequestId();
      inflight.push_back(driver.Call(
          net::EncodeJoinBatchFrame(id, tick_batches[static_cast<size_t>(t)]),
          id, net::MessageType::kJoinResult));
    }
    for (auto& f : inflight) {
      net::AsyncJoinClient::RawReply reply = f.get();
      if (!reply.ok) {
        std::fprintf(stderr, "tick join failed: %s\n", reply.message.c_str());
        return -1;
      }
    }
    // Emission is synchronous with the ticks (OnPointBatch runs before the
    // join reply), delivery is not: drain the outboxes before stopping the
    // clock. events_emitted() is exact, so this is equality, not a guess.
    const uint64_t expected =
        service.subscription_matcher()->events_emitted();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (received.load(std::memory_order_relaxed) < expected &&
           server.counters().events_dropped == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double seconds = timer.ElapsedSeconds();
    const uint64_t delivered = received.load(std::memory_order_relaxed);
    push_dropped += server.counters().events_dropped;
    if (delivered < expected && push_dropped == 0) {
      std::fprintf(stderr, "push arm stalled: %llu of %llu events in 20s\n",
                   static_cast<unsigned long long>(delivered),
                   static_cast<unsigned long long>(expected));
      return -1;
    }
    credit_events = delivered;
    double eps = -1;
    if (seconds > 0) {
      eps = static_cast<double>(delivered) / seconds;
      if (eps > push_eps) {
        push_eps = eps;
        push_wall_ms = seconds * 1e3;
        push_events = delivered;
      }
    }
    server.Stop();
    return eps;
  };

  // --- Poll arm, one rep: no subscriptions; every consumer re-joins the
  // whole fleet every tick on its own connection, in exact mode (see the
  // header comment: a membership diff over approximate results is
  // wrong, so exact is the cheapest join poll can legally use). The
  // information delivered is the same transition stream per consumer,
  // so credit it the same event count and let the wall clock price the
  // extra work. Returns events/s (< 0 on failure).
  std::vector<service::QueryBatch> poll_batches = tick_batches;
  for (service::QueryBatch& b : poll_batches) b.mode = act::JoinMode::kExact;
  double poll_eps = 0;
  double poll_wall_ms = 0;
  auto run_poll = [&]() -> double {
    service::JoinService service(index, sopts);
    net::JoinServer server(&service, nopts);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "JoinServer start failed: %s\n", error.c_str());
      return -1;
    }
    std::atomic<bool> failed{false};
    std::vector<std::thread> pool;
    util::WallTimer timer;
    for (int s = 0; s < subscribers; ++s) {
      pool.emplace_back([&] {
        net::JoinClient client;
        if (!client.Connect(server.host(), server.port())) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        for (int t = 0; t < ticks; ++t) {
          if (!client.Join(poll_batches[static_cast<size_t>(t)]).ok) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    const double seconds = timer.ElapsedSeconds();
    if (failed.load(std::memory_order_relaxed)) {
      std::fprintf(stderr, "poll arm join failed\n");
      return -1;
    }
    double eps = -1;
    if (seconds > 0) {
      eps = static_cast<double>(credit_events) / seconds;
      if (eps > poll_eps) {
        poll_eps = eps;
        poll_wall_ms = seconds * 1e3;
      }
    }
    server.Stop();
    return eps;
  };

  // The arms alternate rep by rep, and the smoke gate judges the best
  // *same-pair* ratio: under a parallel ctest both arms of one pair see
  // the same ambient contention, so a pair ratio > 1 is real even when
  // one arm's absolute best landed on a quiet stretch the other's never
  // got (the same contention-robustness argument as net_throughput's
  // observability A/B).
  double best_pair_ratio = 0;
  const int pairs = std::max(env.reps, env.smoke ? 3 : env.reps);
  for (int pair = 0; pair < pairs; ++pair) {
    const double push = run_push();
    if (push < 0) return 1;
    const double poll = run_poll();
    if (poll < 0) return 1;
    if (poll > 0) best_pair_ratio = std::max(best_pair_ratio, push / poll);
  }

  util::TablePrinter table(
      {"config", "events [K/s]", "wall [ms]", "consumer cost / tick"});
  table.AddRow({"SUBSCRIBE push", util::TablePrinter::Fmt(push_eps / 1e3, 1),
                util::TablePrinter::Fmt(push_wall_ms, 1),
                "filter + diff + EVENT frames"});
  table.AddRow({"poll re-join", util::TablePrinter::Fmt(poll_eps / 1e3, 1),
                util::TablePrinter::Fmt(poll_wall_ms, 1),
                "full fleet join"});
  Emit(env, table);
  std::printf("%llu transition events per run; push advantage: %.2fx "
              "best-pair at %d consumers over %d workers\n",
              static_cast<unsigned long long>(push_events),
              best_pair_ratio, subscribers, workers);

  NoteThroughput(push_eps / 1e6);
  if (!SmokeReportPath().empty()) {
    AppendSmokeReport(SmokeReportPath(), "subscribe_throughput/push",
                      push_eps / 1e6, push_wall_ms);
    AppendSmokeReport(SmokeReportPath(), "subscribe_throughput/poll_equiv",
                      poll_eps / 1e6, poll_wall_ms);
  }

  if (env.smoke) {
    if (push_events == 0 || push_eps <= 0) {
      std::fprintf(stderr, "FAIL: push arm delivered no events\n");
      return 1;
    }
    if (push_dropped != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu events dropped at bench scale (outbox "
                   "should never overflow here)\n",
                   static_cast<unsigned long long>(push_dropped));
      return 1;
    }
    if (best_pair_ratio <= 1.0) {
      std::fprintf(stderr,
                   "FAIL: push did not beat the poll-equivalent lower "
                   "bound in any pair (best ratio %.3f; max push %.0f "
                   "events/s, max poll %.0f events/s)\n",
                   best_pair_ratio, push_eps, poll_eps);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace actjoin::bench

int main(int argc, char** argv) {
  return actjoin::bench::BenchMain(argc, argv, "subscribe_throughput",
                                   actjoin::bench::Run);
}
