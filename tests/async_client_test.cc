// Tests for net::AsyncJoinClient, the pipelined core the blocking
// JoinClient wraps: N interleaved JOIN_BATCH and JOIN_DATASETS requests
// issued on one connection must come back demultiplexed by request id
// with results identical to issuing them sequentially on a fresh
// connection — including across concurrent delta hot swaps and a live
// subscription pushing events down the same socket — and the configured
// receive deadline must turn a silent or half-written response into the
// typed WireError::kTimedOut instead of a hang. Suites are named Async*
// so the TSan CI job's filter runs them under ThreadSanitizer.
//
// Threading discipline: gtest assertions run only on the main thread;
// worker threads and reader-thread handlers record into plain structs
// that are joined and then asserted.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "act/join.h"
#include "geo/grid.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::net {
namespace {

using act::JoinMode;
using geo::Grid;
using service::JoinService;
using service::QueryBatch;
using service::ServiceOptions;
using service::ShardedIndex;
using service::ShardingOptions;

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, {}));
}

QueryBatch MakeBatch(const wl::PointSet& pts, JoinMode mode) {
  return {pts.cell_ids(), pts.points(), mode};
}

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

/// Dataset 0 (Neighborhoods) serves the point joins; dataset `id_b` (a
/// jittered partition over the same MBR) is the crossmatch counterpart.
struct TestServer {
  wl::PolygonDataset ds;
  std::unique_ptr<JoinService> service;
  std::unique_ptr<JoinServer> server;
  uint16_t id_b = 0;

  static TestServer Make(const ServiceOptions& sopts,
                         const ServerOptions& nopts) {
    Grid grid;
    TestServer out;
    out.ds = wl::Neighborhoods(0.05);
    out.service = std::make_unique<JoinService>(
        BuildShared(out.ds.polygons, grid), sopts);
    std::vector<geom::Polygon> pb = wl::JitteredPartition(
        {.mbr = out.ds.mbr, .nx = 5, .ny = 4, .edge_depth = 2, .seed = 3131});
    out.id_b = out.service->catalog()
                   .Add("partition", BuildShared(pb, grid))
                   .value();
    out.server = std::make_unique<JoinServer>(out.service.get(), nopts);
    std::string error;
    // gtest macros must run on the main thread; Make is only called there.
    EXPECT_TRUE(out.server->Start(&error)) << error;
    return out;
  }
};

TEST(AsyncClientPipeline, InterleavedOutOfOrderMatchesSequential) {
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  Grid grid;

  JoinClient pipelined, sequential;
  std::string error;
  ASSERT_TRUE(
      pipelined.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  ASSERT_TRUE(
      sequential.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  AsyncJoinClient& async = pipelined.async();

  // Twelve requests interleaved on one connection: joins of six distinct
  // point sets and crossmatches in both modes and page sizes. All frames
  // go out before any response is awaited, so with two service workers
  // completions genuinely overlap and may return out of order.
  const int kWaves = 12;
  std::vector<wl::PointSet> points;
  for (int i = 0; i < kWaves / 2; ++i) {
    points.push_back(wl::TaxiPoints(ts.ds.mbr, 700 + 111 * i, grid,
                                    101 + static_cast<uint64_t>(i)));
  }
  std::vector<JoinDatasetsRequest> xreqs = {
      {.dataset_b = ts.id_b, .mode = 0},
      {.dataset_b = ts.id_b, .mode = 1},
      {.dataset_b = ts.id_b, .mode = 0, .page_size = 7},
      {.dataset_b = ts.id_b, .mode = 1, .page_size = 3},
      {.dataset_b = ts.id_b, .mode = 0, .page_size = 1},
      {.dataset_b = ts.id_b, .mode = 1, .page_size = 64},
  };

  std::vector<std::future<AsyncJoinClient::RawReply>> join_futures;
  std::vector<std::future<CrossMatchReply>> cross_futures;
  for (int i = 0; i < kWaves; ++i) {
    if (i % 2 == 0) {
      const wl::PointSet& pts = points[static_cast<size_t>(i / 2)];
      const uint64_t id = async.NextRequestId();
      join_futures.push_back(
          async.Call(EncodeJoinBatchFrame(id, MakeBatch(pts, JoinMode::kExact)),
                     id, MessageType::kJoinResult));
    } else {
      const JoinDatasetsRequest& req = xreqs[static_cast<size_t>(i / 2)];
      const uint64_t id = async.NextRequestId();
      cross_futures.push_back(
          async.CallCrossMatch(EncodeJoinDatasetsFrame(id, 0, req), id));
    }
  }

  // Every pipelined result must be identical to the sequential issue of
  // the same request on the other connection.
  for (size_t i = 0; i < join_futures.size(); ++i) {
    AsyncJoinClient::RawReply raw = join_futures[i].get();
    ASSERT_TRUE(raw.ok) << raw.message;
    service::JoinResult got;
    ASSERT_TRUE(DecodeJoinResult(raw.payload, &got));
    JoinClient::Reply want =
        sequential.Join(MakeBatch(points[i], JoinMode::kExact));
    ASSERT_TRUE(want.ok) << want.message;
    EXPECT_EQ(got.epoch, want.result.epoch);
    ExpectStatsEqual(got.stats, want.result.stats);
    EXPECT_GT(got.stats.result_pairs, 0u);
  }
  for (size_t i = 0; i < cross_futures.size(); ++i) {
    CrossMatchReply got = cross_futures[i].get();
    ASSERT_TRUE(got.ok) << got.message;
    CrossMatchReply want = sequential.CrossMatch(0, xreqs[i]);
    ASSERT_TRUE(want.ok) << want.message;
    EXPECT_EQ(got.pairs, want.pairs);
    EXPECT_EQ(got.stats.candidate_pairs, want.stats.candidate_pairs);
    EXPECT_EQ(got.stats.refined_pairs, want.stats.refined_pairs);
    EXPECT_EQ(got.stats.epoch_a, want.stats.epoch_a);
    EXPECT_EQ(got.stats.epoch_b, want.stats.epoch_b);
    EXPECT_FALSE(got.pairs.empty());
  }
  EXPECT_EQ(async.outstanding_requests(), 0u);

  // The connection is still healthy and the server-side gauge drains.
  // (The gauge is decremented after the completion hook posts the
  // response, so the client can observe its reply a moment before the
  // decrement lands — poll briefly instead of asserting instantly.)
  service::ServiceStats stats;
  ASSERT_TRUE(pipelined.GetStats(&stats, &error)) << error;
  for (int waited = 0; stats.outstanding_requests != 0 && waited < 2000;
       waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(pipelined.GetStats(&stats, &error)) << error;
  }
  EXPECT_EQ(stats.outstanding_requests, 0u);
}

TEST(AsyncClientPipeline, PipelinesAcrossConcurrentHotSwapsAndPush) {
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  Grid grid;

  JoinClient pipelined, mutator;
  std::string error;
  ASSERT_TRUE(
      pipelined.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  ASSERT_TRUE(mutator.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  AsyncJoinClient& async = pipelined.async();

  // A live subscription on the pipelining connection: pushed EVENT frames
  // interleave with pipelined responses on one socket. The handlers only
  // record; consistency is asserted after everything quiesces.
  struct PushLog {
    std::mutex mu;
    std::vector<std::pair<uint64_t, uint64_t>> received;  // seq ranges
    std::vector<std::pair<uint64_t, uint64_t>> skipped;
  } push;
  AsyncJoinClient::SubscribeReply sub =
      async
          .Subscribe(
              0, service::SubscriptionSpec{},
              [&push](const service::EventBatch& batch) {
                if (batch.events.empty()) return;
                std::lock_guard<std::mutex> lock(push.mu);
                push.received.emplace_back(
                    batch.first_seq,
                    batch.first_seq + batch.events.size() - 1);
              },
              [&push](const EventGap& gap) {
                std::lock_guard<std::mutex> lock(push.mu);
                push.skipped.emplace_back(gap.first_skipped_seq,
                                          gap.last_skipped_seq);
              })
          .get();
  ASSERT_TRUE(sub.ok) << sub.message;

  // Mutator thread: delta hot swaps over loopback while the main thread
  // pipelines joins — every epoch publish re-evaluates the subscription.
  struct MutatorLog {
    int applied = 0;
    std::string failure;
  } mlog;
  std::vector<geom::Polygon> extra = wl::JitteredPartition(
      {.mbr = ts.ds.mbr, .nx = 2, .ny = 2, .edge_depth = 2, .seed = 5959});
  std::thread mutate([&] {
    for (int round = 0; round < 6; ++round) {
      JoinClient::Reply add = mutator.AddPolygons(0, extra);
      if (!add.ok) {
        mlog.failure = "add: " + add.message;
        return;
      }
      std::vector<uint32_t> ids;
      for (size_t i = 0; i < extra.size(); ++i) {
        ids.push_back(add.ack.first_id + static_cast<uint32_t>(i));
      }
      JoinClient::Reply rm = mutator.RemovePolygons(0, ids);
      if (!rm.ok) {
        mlog.failure = "remove: " + rm.message;
        return;
      }
      mlog.applied += 2;
    }
  });

  // 32 pipelined joins racing the swaps: every one must complete ok, with
  // the right point count, against *some* published epoch.
  const int kJoins = 32;
  std::vector<wl::PointSet> points;
  std::vector<std::future<AsyncJoinClient::RawReply>> futures;
  for (int i = 0; i < kJoins; ++i) {
    points.push_back(
        wl::TaxiPoints(ts.ds.mbr, 400, grid, 201 + static_cast<uint64_t>(i)));
    const uint64_t id = async.NextRequestId();
    futures.push_back(async.Call(
        EncodeJoinBatchFrame(id, MakeBatch(points.back(), JoinMode::kExact)),
        id, MessageType::kJoinResult));
  }
  std::vector<service::JoinResult> results;
  for (auto& fut : futures) {
    AsyncJoinClient::RawReply raw = fut.get();
    ASSERT_TRUE(raw.ok) << raw.message;
    service::JoinResult res;
    ASSERT_TRUE(DecodeJoinResult(raw.payload, &res));
    results.push_back(std::move(res));
  }
  mutate.join();
  ASSERT_TRUE(mlog.failure.empty()) << mlog.failure;
  EXPECT_EQ(mlog.applied, 12);
  for (const service::JoinResult& res : results) {
    EXPECT_EQ(res.stats.num_points, 400u);
  }

  // Quiesced re-issue: the pipelined answers for a settled epoch must be
  // identical to the blocking client's sequential ones.
  for (int i = 0; i < 4; ++i) {
    const uint64_t id = async.NextRequestId();
    AsyncJoinClient::RawReply raw =
        async
            .Call(EncodeJoinBatchFrame(
                      id, MakeBatch(points[static_cast<size_t>(i)],
                                    JoinMode::kExact)),
                  id, MessageType::kJoinResult)
            .get();
    ASSERT_TRUE(raw.ok) << raw.message;
    service::JoinResult got;
    ASSERT_TRUE(DecodeJoinResult(raw.payload, &got));
    JoinClient::Reply want = mutator.Join(
        MakeBatch(points[static_cast<size_t>(i)], JoinMode::kExact));
    ASSERT_TRUE(want.ok) << want.message;
    EXPECT_EQ(got.epoch, want.result.epoch);
    ExpectStatsEqual(got.stats, want.result.stats);
  }

  // Unsubscribe fences the push stream; then the delivered + skipped seq
  // ranges must tile [1, N] for some N — demultiplexing under fire never
  // duplicates or loses an event without announcing it.
  ASSERT_TRUE(async.Unsubscribe(sub.info.id).get().ok);
  std::vector<std::pair<uint64_t, uint64_t>> all;
  {
    std::lock_guard<std::mutex> lock(push.mu);
    all = push.received;
    all.insert(all.end(), push.skipped.begin(), push.skipped.end());
  }
  std::sort(all.begin(), all.end());
  uint64_t next = 1;
  for (const auto& [lo, hi] : all) {
    EXPECT_EQ(lo, next) << "overlap or hole at seq " << next;
    ASSERT_LE(lo, hi);
    next = hi + 1;
  }
  EXPECT_GT(next, 1u) << "joins across epoch swaps should have pushed events";
}

// --- Receive deadline ------------------------------------------------------

/// A server that accepts and then misbehaves: sends `prefix` (possibly
/// nothing, possibly half a frame header) and holds the socket open
/// until told to stop — the hang the receive deadline exists to break.
struct StuckServer {
  UniqueFd listener;
  uint16_t port = 0;
  std::thread accept_thread;
  std::promise<void> release;

  explicit StuckServer(std::vector<uint8_t> prefix) {
    std::string error;
    listener = ListenTcp("127.0.0.1", 0, 4, &port, &error);
    EXPECT_TRUE(listener.valid()) << error;
    std::shared_future<void> released = release.get_future().share();
    int lfd = listener.get();
    accept_thread = std::thread([lfd, prefix, released] {
      int cfd = ::accept(lfd, nullptr, nullptr);
      if (cfd < 0) return;
      if (!prefix.empty()) {
        ::send(cfd, prefix.data(), prefix.size(), MSG_NOSIGNAL);
      }
      released.wait();
      ::close(cfd);
    });
  }
  ~StuckServer() {
    release.set_value();
    accept_thread.join();
  }
};

TEST(AsyncClientTimeout, SilentServerTimesOutTyped) {
  StuckServer stuck({});
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4, grid, 111);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", stuck.port, &error)) << error;
  client.set_recv_timeout_ms(150);
  EXPECT_EQ(client.recv_timeout_ms(), 150);

  JoinClient::Reply reply = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kTimedOut);
  EXPECT_EQ(reply.message, "receive deadline exceeded");
  // kTimedOut is typed but fatal: byte sync cannot be trusted.
  EXPECT_FALSE(client.connected());
}

TEST(AsyncClientTimeout, HalfWrittenFrameTimesOutTyped) {
  // Ten bytes of a valid PONG frame — enough for the reader to buffer a
  // partial frame, never enough to complete one. The deadline must fire
  // even though bytes did arrive.
  std::vector<uint8_t> pong = EncodeEmptyFrame(MessageType::kPong, 1);
  ASSERT_GT(pong.size(), 10u);
  pong.resize(10);
  StuckServer stuck(std::move(pong));
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4, grid, 112);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", stuck.port, &error)) << error;
  client.set_recv_timeout_ms(150);

  JoinClient::Reply reply = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kTimedOut);
  EXPECT_EQ(reply.message, "receive deadline exceeded");
  EXPECT_FALSE(client.connected());

  // Pipelined futures in flight when the deadline fires all fail with the
  // same typed reason (reconnect first: the old connection is dead).
  JoinClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", stuck.port, &error)) << error;
  // (The stuck server only serves its first accept; this connection gets
  // pure silence, which is fine for the fan-out check.)
  again.set_recv_timeout_ms(150);
  AsyncJoinClient& async = again.async();
  std::vector<std::future<AsyncJoinClient::RawReply>> futures;
  for (int i = 0; i < 3; ++i) {
    const uint64_t id = async.NextRequestId();
    futures.push_back(
        async.Call(EncodeEmptyFrame(MessageType::kPing, id), id,
                   MessageType::kPong));
  }
  for (auto& fut : futures) {
    AsyncJoinClient::RawReply raw = fut.get();
    EXPECT_FALSE(raw.ok);
    EXPECT_EQ(raw.error, WireError::kTimedOut);
  }
  EXPECT_FALSE(again.connected());
}

TEST(AsyncClientTimeout, IdleSubscriptionNeverTimesOut) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  Grid grid;

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  client.set_recv_timeout_ms(100);

  struct PushLog {
    std::mutex mu;
    size_t events = 0;
  } push;
  AsyncJoinClient::SubscribeReply sub = client.Subscribe(
      0, service::SubscriptionSpec{}, [&push](const service::EventBatch& b) {
        std::lock_guard<std::mutex> lock(push.mu);
        push.events += b.events.size();
      });
  ASSERT_TRUE(sub.ok) << sub.message;

  // Far longer than the deadline with nothing outstanding: a quiet
  // standing subscription must not trip it.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping(&error)) << error;

  // The channel still delivers after the idle stretch.
  wl::PointSet pts = wl::TaxiPoints(ts.ds.mbr, 64, grid, 113);
  ASSERT_TRUE(client.Join(MakeBatch(pts, JoinMode::kExact)).ok);
  bool delivered = false;
  for (int waited = 0; waited < 5000 && !delivered; waited += 5) {
    {
      std::lock_guard<std::mutex> lock(push.mu);
      delivered = push.events > 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace actjoin::net
