// Wire-level tests for JOIN_DATASETS / PAIR_RESULT (protocol v5): the
// codec must round-trip and reject every malformed byte pattern typed
// (truncation at every boundary, forged counts, bad mode/flags/reserved),
// and the served crossmatch must be byte-identical over loopback to the
// in-process matcher — in both modes, across pagination boundaries, and
// across concurrent delta mutations on one side. Suites are named
// CrossMatchWire* so the TSan CI job's filter runs the concurrent ones
// under ThreadSanitizer.
//
// Threading discipline: gtest assertions run only on the main thread;
// client threads record observations into plain structs that are joined
// and then asserted.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geo/grid.h"
#include "join2/cross_match.h"
#include "join2/dataset_cross_matcher.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "net/wire.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/timer.h"
#include "workloads/polygon_gen.h"

namespace actjoin::net {
namespace {

using geo::Grid;
using join2::CrossMatchMode;
using join2::CrossMatchOutcome;
using join2::CrossMatchStatus;
using join2::DatasetCrossMatcher;
using service::JoinService;
using service::ServiceCatalog;
using service::ServiceOptions;
using service::ShardedIndex;

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, {}));
}

std::vector<geom::Polygon> Partition(int nx, int ny, uint64_t seed) {
  return wl::JitteredPartition({.mbr = geom::Rect::Of(-74.3, 40.4, -73.6,
                                                      41.0),
                                .nx = nx,
                                .ny = ny,
                                .edge_depth = 2,
                                .seed = seed});
}

PairChunk MakeChunk(uint32_t index, bool last, uint64_t total, size_t n) {
  PairChunk chunk;
  chunk.chunk_index = index;
  chunk.last = last;
  chunk.total_pairs = total;
  for (size_t i = 0; i < n; ++i) {
    chunk.pairs.emplace_back(static_cast<uint32_t>(i),
                             static_cast<uint32_t>(i * 7 + 1));
  }
  if (last) {
    chunk.stats = {.candidate_pairs = 12,
                   .refined_pairs = 9,
                   .pruned_pairs = 33,
                   .max_depth = 5,
                   .epoch_a = 2,
                   .epoch_b = 4,
                   .service_us = 123.5,
                   .queue_wait_us = 7.25};
  }
  return chunk;
}

// --- Codec -----------------------------------------------------------------

TEST(CrossMatchWireCodec, JoinDatasetsRoundTrip) {
  for (uint8_t mode : {0, 1}) {
    for (uint32_t page : {0u, 1u, 8192u, kMaxPairPageSize}) {
      JoinDatasetsRequest req{.dataset_b = 513, .mode = mode,
                              .page_size = page};
      util::ByteWriter w;
      AppendJoinDatasets(req, &w);
      JoinDatasetsRequest got;
      ASSERT_TRUE(DecodeJoinDatasets(w.bytes(), &got));
      EXPECT_EQ(got, req);
    }
  }

  // The frame builder stamps v5, the routed type, and dataset_a.
  std::vector<uint8_t> frame =
      EncodeJoinDatasetsFrame(99, 3, {.dataset_b = 4, .mode = 1});
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kFrame);
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, MessageType::kJoinDatasets);
  EXPECT_EQ(header.request_id, 99u);
  EXPECT_EQ(header.dataset_id, 3u);
}

TEST(CrossMatchWireCodec, JoinDatasetsRejectsMalformed) {
  util::ByteWriter w;
  AppendJoinDatasets({.dataset_b = 7, .mode = 1, .page_size = 32}, &w);
  std::vector<uint8_t> good = w.bytes();
  JoinDatasetsRequest out;
  ASSERT_TRUE(DecodeJoinDatasets(good, &out));

  // Truncation at every byte boundary must fail, never crash or misread.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
    EXPECT_FALSE(DecodeJoinDatasets(bad, &out)) << "cut=" << cut;
  }
  // Trailing bytes are as malformed as missing ones.
  std::vector<uint8_t> extra = good;
  extra.push_back(0);
  EXPECT_FALSE(DecodeJoinDatasets(extra, &out));

  // Unknown mode byte (offset 2) rejects.
  std::vector<uint8_t> bad_mode = good;
  bad_mode[2] = 2;
  EXPECT_FALSE(DecodeJoinDatasets(bad_mode, &out));
  bad_mode[2] = 255;
  EXPECT_FALSE(DecodeJoinDatasets(bad_mode, &out));
  // Offset 3 is the v7 flags byte: bit 0 requests a stage trace and is
  // legal; any other bit is an unknown flag and rejects.
  std::vector<uint8_t> flags = good;
  flags[3] = 1;
  ASSERT_TRUE(DecodeJoinDatasets(flags, &out));
  EXPECT_TRUE(out.trace);
  flags[3] = 2;
  EXPECT_FALSE(DecodeJoinDatasets(flags, &out));
  flags[3] = 255;
  EXPECT_FALSE(DecodeJoinDatasets(flags, &out));
}

TEST(CrossMatchWireCodec, PairChunkRoundTrip) {
  // A middle chunk (no stats tail), a populated last chunk, and the empty
  // result (one last-flagged chunk with zero pairs).
  for (const PairChunk& chunk :
       {MakeChunk(3, false, 1000, 17), MakeChunk(7, true, 1000, 5),
        MakeChunk(0, true, 0, 0)}) {
    util::ByteWriter w;
    AppendPairChunk(chunk, &w);
    PairChunk got;
    ASSERT_TRUE(DecodePairChunk(w.bytes(), &got));
    EXPECT_EQ(got, chunk);
  }
}

TEST(CrossMatchWireCodec, PairChunkTraceRoundTrip) {
  // v7: a traced last chunk carries the stage tail; decode restores every
  // stage double and the trace's request id exactly.
  PairChunk chunk = MakeChunk(7, true, 1000, 5);
  chunk.trace.enabled = true;
  chunk.trace.request_id = 555;
  for (int s = 0; s < join2::kNumCrossMatchStages; ++s) {
    chunk.trace.stage_us[static_cast<size_t>(s)] = 10.5 * (s + 1);
  }
  util::ByteWriter w;
  AppendPairChunk(chunk, &w);
  PairChunk got;
  ASSERT_TRUE(DecodePairChunk(w.bytes(), &got));
  EXPECT_EQ(got, chunk);
  EXPECT_TRUE(got.trace.enabled);
  EXPECT_EQ(got.trace.request_id, 555u);

  // The trace rides only the last chunk: a middle chunk's enabled flag is
  // not encoded, so it decodes back disabled.
  PairChunk middle = MakeChunk(2, false, 1000, 5);
  middle.trace.enabled = true;
  util::ByteWriter wm;
  AppendPairChunk(middle, &wm);
  ASSERT_TRUE(DecodePairChunk(wm.bytes(), &got));
  EXPECT_FALSE(got.trace.enabled);

  // Forged traced-without-last (flags bit 1 alone) rejects typed.
  util::ByteWriter wf;
  AppendPairChunk(MakeChunk(2, false, 1000, 5), &wf);
  std::vector<uint8_t> forged = wf.bytes();
  forged[4] |= 2;
  EXPECT_FALSE(DecodePairChunk(forged, &got));
}

TEST(CrossMatchWireCodec, PairChunkCounterSectionRoundTripAndPatch) {
  // v8: under stage_perf_counters a traced last chunk carries the same
  // counter block as JOIN_RESULT (flags bit 2) after the stage times.
  PairChunk chunk = MakeChunk(7, true, 1000, 5);
  chunk.trace.enabled = true;
  chunk.trace.request_id = 555;
  chunk.trace.counters_enabled = true;
  chunk.trace.counters_available = true;
  for (int s = 0; s < join2::kNumCrossMatchStages; ++s) {
    const auto u = static_cast<uint64_t>(s);
    chunk.trace.stage_us[static_cast<size_t>(s)] = 10.5 * (s + 1);
    chunk.trace.stage_counters[static_cast<size_t>(s)] = {
        1000 * u + 1, 2000 * u + 2, 30 * u};
  }
  util::ByteWriter w;
  AppendPairChunk(chunk, &w);
  const std::vector<uint8_t> good = w.bytes();
  EXPECT_EQ(good[4], 1 | 2 | 4);
  PairChunk got;
  ASSERT_TRUE(DecodePairChunk(good, &got));
  EXPECT_EQ(got, chunk);

  // Truncation at every byte boundary fails decode.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
    EXPECT_FALSE(DecodePairChunk(bad, &got)) << "cut=" << cut;
  }
  // The counter block rides the trace section, which rides the last
  // chunk: bit 2 without bit 1, or on a non-last chunk, is malformed.
  std::vector<uint8_t> forged = good;
  forged[4] = 1 | 4;
  EXPECT_FALSE(DecodePairChunk(forged, &got));
  forged = good;
  forged[4] = 2 | 4;
  EXPECT_FALSE(DecodePairChunk(forged, &got));
  util::ByteWriter wm;
  AppendPairChunk(MakeChunk(2, false, 1000, 5), &wm);
  forged = wm.bytes();
  forged[4] |= 4;
  EXPECT_FALSE(DecodePairChunk(forged, &got));
  // The availability byte admits only 0 / 1, and its pad must be clean.
  constexpr size_t kCounterBytes = 8 + 24 * join2::kNumCrossMatchStages;
  forged = good;
  forged[good.size() - kCounterBytes] = 2;
  EXPECT_FALSE(DecodePairChunk(forged, &got));
  forged = good;
  forged[good.size() - kCounterBytes + 5] = 1;
  EXPECT_FALSE(DecodePairChunk(forged, &got));

  // The one last-stage patch lands the stream time and triple in place.
  std::vector<uint8_t> frame = EncodePairChunkFrame(9, chunk);
  const util::StageCounterSample stream{111, 222, 3};
  PatchLastStage(&frame, 33.25, &stream);
  ASSERT_TRUE(DecodePairChunk(
      std::span(frame).subspan(kFrameHeaderBytes), &got));
  using join2::CrossMatchStage;
  EXPECT_EQ(got.trace.at(CrossMatchStage::kStream), 33.25);
  EXPECT_EQ(got.trace.counters(CrossMatchStage::kStream), stream);
  EXPECT_EQ(got.trace.counters(CrossMatchStage::kDescend),
            chunk.trace.counters(CrossMatchStage::kDescend));

  // Counters off: the traced chunk keeps its v7 shape.
  chunk.trace.counters_enabled = false;
  util::ByteWriter w7;
  AppendPairChunk(chunk, &w7);
  EXPECT_EQ(w7.bytes()[4], 1 | 2);
  EXPECT_EQ(w7.bytes().size(), good.size() - kCounterBytes);
  ASSERT_TRUE(DecodePairChunk(w7.bytes(), &got));
  EXPECT_FALSE(got.trace.counters_enabled);
}

TEST(CrossMatchWireCodec, PairChunkRejectsMalformed) {
  for (bool last : {false, true}) {
    util::ByteWriter w;
    AppendPairChunk(MakeChunk(2, last, 64, 6), &w);
    std::vector<uint8_t> good = w.bytes();
    PairChunk out;
    ASSERT_TRUE(DecodePairChunk(good, &out));

    for (size_t cut = 0; cut < good.size(); ++cut) {
      std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
      EXPECT_FALSE(DecodePairChunk(bad, &out))
          << "last=" << last << " cut=" << cut;
    }
    std::vector<uint8_t> extra = good;
    extra.push_back(0);
    EXPECT_FALSE(DecodePairChunk(extra, &out)) << "last=" << last;

    // Forged pair count (u32 at offset 16): larger than the payload
    // carries, and smaller (leaving trailing bytes). Neither may crash,
    // overread, or decode.
    std::vector<uint8_t> forged = good;
    forged[16] = 0xFF;
    forged[17] = 0xFF;
    forged[18] = 0xFF;
    forged[19] = 0xFF;
    EXPECT_FALSE(DecodePairChunk(forged, &out)) << "last=" << last;
    forged = good;
    forged[16] = 5;  // one pair fewer than the bytes present
    EXPECT_FALSE(DecodePairChunk(forged, &out)) << "last=" << last;

    // Unknown flag bits (offset 4) and nonzero reserved (offsets 5-7).
    std::vector<uint8_t> bad_flags = good;
    bad_flags[4] |= 0x80;
    EXPECT_FALSE(DecodePairChunk(bad_flags, &out)) << "last=" << last;
    for (size_t at : {5, 6, 7}) {
      std::vector<uint8_t> bad_reserved = good;
      bad_reserved[at] = 1;
      EXPECT_FALSE(DecodePairChunk(bad_reserved, &out))
          << "last=" << last << " reserved at " << at;
    }
  }
}

// --- Served crossmatch over loopback ---------------------------------------

struct ServerFixture {
  std::vector<geom::Polygon> pa, pb;
  std::unique_ptr<JoinService> service;
  std::unique_ptr<JoinServer> server;
  uint16_t id_a = 0, id_b = 0;

  explicit ServerFixture(int worker_threads = 2, ServiceOptions sopts = {}) {
    pa = Partition(5, 4, 3131);
    pb = Partition(4, 6, 4242);
    Grid grid;
    sopts.worker_threads = worker_threads;
    service =
        std::make_unique<JoinService>(BuildShared(pa, grid), sopts);
    id_b = service->catalog().Add("b", BuildShared(pb, grid)).value();
    server = std::make_unique<JoinServer>(service.get(), ServerOptions{});
  }

  bool Start(std::string* error) { return server->Start(error); }
};

TEST(CrossMatchWireServer, LoopbackByteIdenticalToInProcessBothModes) {
  ServerFixture fx;
  std::string error;
  ASSERT_TRUE(fx.Start(&error)) << error;
  DatasetCrossMatcher matcher(fx.service.get());

  JoinClient client;
  ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
      << error;
  for (uint8_t mode : {0, 1}) {
    CrossMatchOutcome want = matcher.Run(
        {.dataset_a = fx.id_a,
         .dataset_b = fx.id_b,
         .mode = static_cast<CrossMatchMode>(mode)});
    ASSERT_EQ(want.status, CrossMatchStatus::kOk);

    JoinClient::CrossMatchReply reply =
        client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b, .mode = mode});
    ASSERT_TRUE(reply.ok) << reply.message;
    EXPECT_EQ(reply.pairs, want.pairs);
    EXPECT_EQ(reply.stats.candidate_pairs, want.stats.candidate_pairs);
    EXPECT_EQ(reply.stats.refined_pairs, want.stats.refined_pairs);
    EXPECT_EQ(reply.stats.pruned_pairs, want.stats.pruned_pairs);
    EXPECT_EQ(reply.stats.max_depth, want.stats.max_depth);
    EXPECT_EQ(reply.stats.epoch_a, want.epoch_a);
    EXPECT_EQ(reply.stats.epoch_b, want.epoch_b);
    EXPECT_GT(reply.stats.service_us, 0.0);
  }
}

TEST(CrossMatchWireServer, PaginationReassemblesTheSortedStream) {
  ServerFixture fx;
  std::string error;
  ASSERT_TRUE(fx.Start(&error)) << error;
  JoinClient client;
  ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
      << error;

  JoinClient::CrossMatchReply whole =
      client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b});
  ASSERT_TRUE(whole.ok) << whole.message;
  ASSERT_GT(whole.pairs.size(), 8u) << "fixture too small to paginate";
  EXPECT_EQ(whole.num_chunks, 1u);

  // A tiny page forces many chunks; the reassembled stream is identical.
  JoinClient::CrossMatchReply paged =
      client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b, .page_size = 7});
  ASSERT_TRUE(paged.ok) << paged.message;
  EXPECT_EQ(paged.pairs, whole.pairs);
  EXPECT_EQ(paged.num_chunks, (whole.pairs.size() + 6) / 7);
  // Everything in the stats tail except the wall-clock splits.
  PairChunkStats a = paged.stats, b = whole.stats;
  a.service_us = b.service_us = 0;
  a.queue_wait_us = b.queue_wait_us = 0;
  EXPECT_EQ(a, b);

  // Same connection still serves point joins and pings afterwards.
  ASSERT_TRUE(client.Ping(&error)) << error;
}

TEST(CrossMatchWireServer, TracedCrossMatchStagesTileWallTime) {
  ServerFixture fx;
  std::string error;
  ASSERT_TRUE(fx.Start(&error)) << error;
  JoinClient client;
  ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
      << error;

  // An untraced request stays v6-shaped: no trace comes back. It also
  // warms the server's per-epoch views, so the traced request below
  // times a cached pin.
  JoinClient::CrossMatchReply plain =
      client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b});
  ASSERT_TRUE(plain.ok) << plain.message;
  EXPECT_FALSE(plain.trace.enabled);

  util::WallTimer wall;
  JoinClient::CrossMatchReply reply =
      client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b, .trace = true});
  const double wall_us = wall.ElapsedSeconds() * 1e6;
  ASSERT_TRUE(reply.ok) << reply.message;
  ASSERT_TRUE(reply.trace.enabled);
  EXPECT_EQ(reply.pairs, plain.pairs);

  // Every stage is a non-negative duration, the pin/descend/refine core
  // and the stream patch all ran, and the whole breakdown tiles within
  // the observed round-trip wall time.
  double sum = 0;
  for (int s = 0; s < join2::kNumCrossMatchStages; ++s) {
    const double us = reply.trace.stage_us[static_cast<size_t>(s)];
    EXPECT_GE(us, 0.0) << "stage " << s;
    sum += us;
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, wall_us);
  EXPECT_DOUBLE_EQ(sum, reply.trace.TotalMicros());
  using join2::CrossMatchStage;
  EXPECT_GT(reply.trace.at(CrossMatchStage::kRefine) +
                reply.trace.at(CrossMatchStage::kDescend) +
                reply.trace.at(CrossMatchStage::kPin),
            0.0);
  EXPECT_GT(reply.trace.at(CrossMatchStage::kStream), 0.0);
}

TEST(CrossMatchWireServer, SameEpochsReuseTheServersCachedViews) {
  // The server's matcher builds each dataset's probe surface once per
  // epoch: a second JOIN_DATASETS on unchanged epochs builds nothing, and
  // its pairs stay byte-identical to the in-process library path (which
  // builds its own views and touches no counter), in both modes.
  ServerFixture fx;
  std::string error;
  ASSERT_TRUE(fx.Start(&error)) << error;
  util::Counter* builds =
      fx.service->metrics()->GetCounter("crossmatch_view_builds_total", "");
  JoinClient client;
  ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
      << error;

  ServiceCatalog::Snapshot snap_a =
      fx.service->catalog().Find(fx.id_a)->Acquire();
  ServiceCatalog::Snapshot snap_b =
      fx.service->catalog().Find(fx.id_b)->Acquire();
  for (int round = 0; round < 2; ++round) {
    for (uint8_t mode : {0, 1}) {
      const auto want = join2::CrossMatchIndexes(
          *snap_a, *snap_b, {.mode = static_cast<CrossMatchMode>(mode)});
      JoinClient::CrossMatchReply reply =
          client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b, .mode = mode});
      ASSERT_TRUE(reply.ok) << reply.message;
      EXPECT_EQ(reply.pairs, want) << "round=" << round << " mode=" << +mode;
    }
    EXPECT_EQ(builds->value(), 2u) << "round=" << round;
  }
}

TEST(CrossMatchWireServer, StagePerfCountersRideTracedCrossMatches) {
  // ServiceOptions::stage_perf_counters covers JOIN_DATASETS too: a traced
  // crossmatch's last chunk carries the counter block — real deltas when
  // the kernel grants perf_event_open, a typed all-zero `unavailable`
  // block when it doesn't (forced here by the simulate_denied seam).
  // Untraced crossmatches never carry it.
  for (bool simulate_denied : {false, true}) {
    ServiceOptions sopts;
    sopts.stage_perf_counters = true;
    sopts.stage_perf_simulate_denied = simulate_denied;
    ServerFixture fx(/*worker_threads=*/2, sopts);
    std::string error;
    ASSERT_TRUE(fx.Start(&error)) << error;
    JoinClient client;
    ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
        << error;

    JoinClient::CrossMatchReply plain =
        client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b});
    ASSERT_TRUE(plain.ok) << plain.message;
    EXPECT_FALSE(plain.trace.enabled);
    EXPECT_FALSE(plain.trace.counters_enabled);

    // A small page makes a multi-chunk stream: the block rides the last.
    JoinClient::CrossMatchReply reply = client.CrossMatch(
        fx.id_a, {.dataset_b = fx.id_b, .page_size = 7, .trace = true});
    ASSERT_TRUE(reply.ok) << reply.message;
    EXPECT_EQ(reply.pairs, plain.pairs);
    EXPECT_GT(reply.num_chunks, 1u);
    const util::StageTrace& trace = reply.trace;
    ASSERT_TRUE(trace.enabled);
    ASSERT_TRUE(trace.counters_enabled);
    using join2::CrossMatchStage;
    // kQueue burns no attributable CPU by construction.
    EXPECT_EQ(trace.counters(CrossMatchStage::kQueue),
              util::StageCounterSample{});
    if (simulate_denied) {
      EXPECT_FALSE(trace.counters_available);
    }
    if (trace.counters_available) {
      for (CrossMatchStage s :
           {CrossMatchStage::kDecode, CrossMatchStage::kPin,
            CrossMatchStage::kDescend, CrossMatchStage::kRefine,
            CrossMatchStage::kStream}) {
        EXPECT_GT(trace.counters(s).cycles, 0u) << CrossMatchStageName(s);
        EXPECT_GT(trace.counters(s).instructions, 0u)
            << CrossMatchStageName(s);
      }
    } else {
      // Denied: typed unavailable, never fabricated numbers.
      for (int s = 0; s < join2::kNumCrossMatchStages; ++s) {
        EXPECT_EQ(trace.stage_counters[static_cast<size_t>(s)],
                  util::StageCounterSample{})
            << CrossMatchStageName(static_cast<CrossMatchStage>(s));
      }
    }
    // The wall-clock stage trace itself is unaffected by the mode.
    EXPECT_GT(trace.at(CrossMatchStage::kStream), 0.0);
  }
}

TEST(CrossMatchWireServer, TypedRejectsNameTheOffendingSide) {
  ServerFixture fx;
  std::string error;
  ASSERT_TRUE(fx.Start(&error)) << error;
  JoinClient client;
  ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
      << error;

  // Unknown a-side: rejected at the event loop door.
  JoinClient::CrossMatchReply reply =
      client.CrossMatch(77, {.dataset_b = fx.id_b});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kUnknownDataset);
  EXPECT_NE(reply.message.find("dataset_a=77"), std::string::npos)
      << reply.message;

  // Unknown b-side: decoded, then rejected with the b-side named.
  reply = client.CrossMatch(fx.id_a, {.dataset_b = 77});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kUnknownDataset);
  EXPECT_NE(reply.message.find("dataset_b=77"), std::string::npos)
      << reply.message;

  // Offline b-side (assigned, never published): unknown, not dropped.
  uint16_t offline = fx.service->catalog().AddOffline("offline").value();
  reply = client.CrossMatch(fx.id_a, {.dataset_b = offline});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kUnknownDataset);

  // Dropped datasets answer kDatasetDropped from either side.
  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  reply = client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kDatasetDropped);
  EXPECT_NE(reply.message.find("dataset_b="), std::string::npos);
  reply = client.CrossMatch(fx.id_b, {.dataset_b = fx.id_a});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kDatasetDropped);
  EXPECT_NE(reply.message.find("dataset_a="), std::string::npos);

  // Every rejection was recoverable: the connection still works.
  ASSERT_TRUE(client.Ping(&error)) << error;
  reply = client.CrossMatch(fx.id_a, {.dataset_b = fx.id_a});
  EXPECT_TRUE(reply.ok) << reply.message;

  // A malformed payload (bad mode byte) is a protocol-level reject.
  reply = client.CrossMatch(fx.id_a, {.dataset_b = fx.id_a, .mode = 9});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kMalformedPayload);
  ASSERT_TRUE(client.Ping(&error)) << error;
}

TEST(CrossMatchWireConcurrency, ByteIdenticalAcrossConcurrentDelta) {
  // Crossmatches race with delta mutations on the b-side. During the
  // race every reply must be well-formed (ok, sorted unique — each join
  // pins one consistent epoch pair); after quiescing, the wire result is
  // byte-identical to the in-process matcher in both modes.
  ServerFixture fx(/*worker_threads=*/3);
  std::string error;
  ASSERT_TRUE(fx.Start(&error)) << error;

  struct Observed {
    int failures = 0;
    int malformed = 0;
    int runs = 0;
    std::string first_error;
  };
  std::atomic<bool> stop{false};
  std::vector<Observed> observed(2);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < observed.size(); ++t) {
    clients.emplace_back([&, t] {
      Observed& obs = observed[t];
      JoinClient client;
      std::string err;
      if (!client.Connect(fx.server->host(), fx.server->port(), &err)) {
        obs.failures = 1;
        obs.first_error = err;
        return;
      }
      const uint8_t mode = t % 2;
      while (!stop.load(std::memory_order_relaxed)) {
        JoinClient::CrossMatchReply reply = client.CrossMatch(
            fx.id_a, {.dataset_b = fx.id_b, .mode = mode, .page_size = 16});
        ++obs.runs;
        if (!reply.ok) {
          ++obs.failures;
          if (obs.first_error.empty()) obs.first_error = reply.message;
          continue;
        }
        if (!std::is_sorted(reply.pairs.begin(), reply.pairs.end()) ||
            std::adjacent_find(reply.pairs.begin(), reply.pairs.end()) !=
                reply.pairs.end()) {
          ++obs.malformed;
        }
      }
    });
  }

  // The mutator drives ApplyDelta through the service: adds land on b.
  for (int i = 0; i < 8; ++i) {
    std::vector<geom::Polygon> add = {wl::RandomStarPolygon(
        {-74.0 + 0.04 * i, 40.7}, 0.03, 12, 9000 + static_cast<uint64_t>(i))};
    ASSERT_EQ(fx.service->AddPolygons(fx.id_b, add).status,
              service::MutationStatus::kApplied);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : clients) th.join();
  for (const Observed& obs : observed) {
    EXPECT_EQ(obs.failures, 0) << obs.first_error;
    EXPECT_EQ(obs.malformed, 0);
    EXPECT_GT(obs.runs, 0);
  }

  // Quiesced: loopback equals in-process, byte for byte, both modes.
  DatasetCrossMatcher matcher(fx.service.get());
  JoinClient client;
  ASSERT_TRUE(client.Connect(fx.server->host(), fx.server->port(), &error))
      << error;
  for (uint8_t mode : {0, 1}) {
    CrossMatchOutcome want = matcher.Run(
        {.dataset_a = fx.id_a,
         .dataset_b = fx.id_b,
         .mode = static_cast<CrossMatchMode>(mode)});
    ASSERT_EQ(want.status, CrossMatchStatus::kOk);
    JoinClient::CrossMatchReply reply =
        client.CrossMatch(fx.id_a, {.dataset_b = fx.id_b, .mode = mode});
    ASSERT_TRUE(reply.ok) << reply.message;
    EXPECT_EQ(reply.pairs, want.pairs);
    EXPECT_EQ(reply.stats.epoch_b, want.epoch_b);
  }
}

}  // namespace
}  // namespace actjoin::net
