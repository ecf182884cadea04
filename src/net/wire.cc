#include "net/wire.h"

#include <cstring>

#include "act/serialization.h"
#include "util/check.h"

namespace actjoin::net {

const char* ToString(WireError error) {
  switch (error) {
    case WireError::kNone:
      return "ok";
    case WireError::kMalformedFrame:
      return "malformed frame";
    case WireError::kUnsupportedVersion:
      return "unsupported protocol version";
    case WireError::kUnknownType:
      return "unknown message type";
    case WireError::kFrameTooLarge:
      return "frame exceeds size limit";
    case WireError::kMalformedPayload:
      return "malformed payload";
    case WireError::kRateLimited:
      return "admission: rate limited";
    case WireError::kInFlightBytesExceeded:
      return "admission: in-flight byte budget exceeded";
    case WireError::kQueueWatermark:
      return "admission: queue depth over watermark";
    case WireError::kQueueFull:
      return "service queue full";
    case WireError::kShuttingDown:
      return "service shutting down";
    case WireError::kUnknownDataset:
      return "unknown dataset id";
    case WireError::kDatasetDropped:
      return "dataset dropped";
    case WireError::kInvalidMutation:
      return "invalid mutation";
    case WireError::kUnknownSubscription:
      return "unknown subscription id";
    case WireError::kSubscriptionLimit:
      return "subscription limit reached";
    case WireError::kTimedOut:
      return "receive deadline exceeded";
  }
  return "unknown error";
}

bool IsRecoverable(WireError error) {
  switch (error) {
    case WireError::kMalformedFrame:
    case WireError::kUnsupportedVersion:
    case WireError::kFrameTooLarge:
    // Client-side: the deadline fired mid-stream, so byte sync is
    // indeterminate and the client closes the connection.
    case WireError::kTimedOut:
      return false;
    default:
      return true;
  }
}

FrameParse TryParseFrame(std::span<const uint8_t> buffer,
                         size_t max_frame_bytes, FrameHeader* header,
                         size_t* frame_bytes, WireError* error) {
  *header = FrameHeader{};
  if (buffer.size() < kFrameHeaderBytes) return FrameParse::kNeedMoreData;

  util::ByteReader r(buffer.first(kFrameHeaderBytes));
  uint32_t magic = r.U32();
  header->version = r.U8();
  header->type = static_cast<MessageType>(r.U8());
  header->dataset_id = r.U16();
  header->request_id = r.U64();
  header->payload_bytes = r.U32();
  uint32_t reserved2 = r.U32();

  // dataset_id is meaningful only on JOIN_BATCH and the mutation
  // requests; everywhere else the field keeps its v1 must-be-zero
  // contract so it stays available as compatible-extension space (and
  // client conformance bugs fail loudly).
  const bool routed = header->type == MessageType::kJoinBatch ||
                      header->type == MessageType::kAddPolygons ||
                      header->type == MessageType::kRemovePolygons ||
                      header->type == MessageType::kDropDataset ||
                      header->type == MessageType::kJoinDatasets ||
                      header->type == MessageType::kSubscribe;
  if (magic != kWireMagic || reserved2 != 0 ||
      (header->dataset_id != 0 && !routed)) {
    // A bad magic means the id field is garbage too; don't echo it.
    header->request_id = magic != kWireMagic ? 0 : header->request_id;
    *error = WireError::kMalformedFrame;
    return FrameParse::kProtocolError;
  }
  if (header->version != kWireVersion) {
    *error = WireError::kUnsupportedVersion;
    return FrameParse::kProtocolError;
  }
  if (kFrameHeaderBytes + static_cast<size_t>(header->payload_bytes) >
      max_frame_bytes) {
    *error = WireError::kFrameTooLarge;
    return FrameParse::kProtocolError;
  }
  size_t total = kFrameHeaderBytes + header->payload_bytes;
  if (buffer.size() < total) return FrameParse::kNeedMoreData;
  *frame_bytes = total;
  return FrameParse::kFrame;
}

namespace {

// Single-buffer frame construction: write the header with a zero length
// placeholder, append the payload in place, then patch the length — no
// second serialize-and-copy of a potentially multi-MB payload.
void BeginFrame(util::ByteWriter* w, MessageType type, uint64_t request_id,
                uint16_t dataset_id = 0) {
  w->PutU32(kWireMagic);
  w->PutU8(kWireVersion);
  w->PutU8(static_cast<uint8_t>(type));
  w->PutU16(dataset_id);
  w->PutU64(request_id);
  w->PutU32(0);  // payload length, patched by FinishFrame
  w->PutU32(0);
}

std::vector<uint8_t> FinishFrame(util::ByteWriter&& w) {
  w.PatchU32(16, static_cast<uint32_t>(w.size() - kFrameHeaderBytes));
  return std::move(w).Take();
}

// The trace section every traced response ends with (layout in wire.h's
// header comment); the counter block follows only under the carrying
// frame's counters flag.
constexpr size_t kTraceStageBytes = 8 + 8 * util::kNumStages;
constexpr size_t kTraceCounterBytes = 8 + 24 * util::kNumStages;

constexpr size_t TraceSectionBytes(bool counters) {
  return kTraceStageBytes + (counters ? kTraceCounterBytes : 0);
}

bool CarriesCounters(const util::StageTrace& trace) {
  return trace.enabled && trace.counters_enabled;
}

void AppendTraceSection(const util::StageTrace& trace, util::ByteWriter* w) {
  w->PutU64(trace.request_id);
  for (double us : trace.stage_us) w->PutF64(us);
  if (!CarriesCounters(trace)) return;
  w->PutU8(trace.counters_available ? 1 : 0);
  for (int i = 0; i < 7; ++i) w->PutU8(0);
  for (const util::StageCounterSample& c : trace.stage_counters) {
    w->PutU64(c.cycles);
    w->PutU64(c.instructions);
    w->PutU64(c.llc_misses);
  }
}

bool ReadTraceSection(util::ByteReader* r, bool counters,
                      util::StageTrace* out) {
  *out = util::StageTrace{};
  out->enabled = true;
  out->request_id = r->U64();
  for (double& us : out->stage_us) us = r->F64();
  if (!counters) return r->ok();
  const uint8_t available = r->U8();
  if (available > 1) return false;
  for (int i = 0; i < 7; ++i) {
    if (r->U8() != 0) return false;
  }
  out->counters_enabled = true;
  out->counters_available = available == 1;
  for (util::StageCounterSample& c : out->stage_counters) {
    c.cycles = r->U64();
    c.instructions = r->U64();
    c.llc_misses = r->U64();
  }
  return r->ok();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t request_id,
                                 std::span<const uint8_t> payload) {
  util::ByteWriter w(kFrameHeaderBytes + payload.size());
  BeginFrame(&w, type, request_id);
  w.PutBytes(payload.data(), payload.size());
  return FinishFrame(std::move(w));
}

// QueryBatch payload:
//   u8 mode (0 = approximate, 1 = exact), u8 flags (bit 0: trace; was
//   reserved before v4), u16 reserved,
//   u32 num_points, u64 cell_ids[num_points], f64 {x, y}[num_points]
void AppendQueryBatch(const service::QueryBatch& batch, util::ByteWriter* w) {
  ACT_CHECK_MSG(batch.cell_ids.size() == batch.points.size(),
                "QueryBatch cell_ids and points must be parallel arrays");
  w->PutU8(batch.mode == act::JoinMode::kExact ? 1 : 0);
  w->PutU8(batch.trace ? 1 : 0);
  w->PutU16(0);
  w->PutU32(static_cast<uint32_t>(batch.points.size()));
  for (uint64_t id : batch.cell_ids) w->PutU64(id);
  for (const geom::Point& p : batch.points) {
    w->PutF64(p.x);
    w->PutF64(p.y);
  }
}

bool DecodeQueryBatch(std::span<const uint8_t> payload,
                      service::QueryBatch* out) {
  util::ByteReader r(payload);
  uint8_t mode = r.U8();
  uint8_t flags = r.U8();
  uint16_t pad16 = r.U16();
  uint32_t n = r.U32();
  if (!r.ok() || mode > 1 || flags > 1 || pad16 != 0) return false;
  // Exact-size check before allocating: a forged count cannot make us
  // reserve more than the payload that actually arrived.
  if (r.remaining() != static_cast<size_t>(n) * 24) return false;
  out->mode = mode == 1 ? act::JoinMode::kExact : act::JoinMode::kApproximate;
  out->trace = (flags & 1) != 0;
  out->cell_ids.resize(n);
  for (uint32_t i = 0; i < n; ++i) out->cell_ids[i] = r.U64();
  out->points.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    out->points[i].x = r.F64();
    out->points[i].y = r.F64();
  }
  return r.AtEnd();
}

// JoinResult payload:
//   u64 epoch, f64 queue_wait_ms, f64 service_ms, then act::JoinStats as
//   8 u64 counters, f64 seconds, u64 counts_len, u64 counts[], then (v4)
//   u8 traced + u8 flags (bit 0, v7: counter block present, traced only)
//   + u16 reserved, and — only when traced — the trace section (stage
//   order per service::TraceStage, the respond stage last).
void AppendJoinResult(const service::JoinResult& result, util::ByteWriter* w) {
  w->PutU64(result.epoch);
  w->PutF64(result.queue_wait_ms);
  w->PutF64(result.service_ms);
  const act::JoinStats& s = result.stats;
  w->PutU64(s.num_points);
  w->PutU64(s.matched_points);
  w->PutU64(s.result_pairs);
  w->PutU64(s.true_hit_refs);
  w->PutU64(s.candidate_refs);
  w->PutU64(s.pip_tests);
  w->PutU64(s.pip_hits);
  w->PutU64(s.sth_points);
  w->PutF64(s.seconds);
  w->PutU64(s.counts.size());
  for (uint64_t c : s.counts) w->PutU64(c);
  w->PutU8(result.trace.enabled ? 1 : 0);
  w->PutU8(CarriesCounters(result.trace) ? 1 : 0);
  w->PutU16(0);
  if (result.trace.enabled) AppendTraceSection(result.trace, w);
}

bool DecodeJoinResult(std::span<const uint8_t> payload,
                      service::JoinResult* out) {
  util::ByteReader r(payload);
  out->epoch = r.U64();
  out->queue_wait_ms = r.F64();
  out->service_ms = r.F64();
  act::JoinStats& s = out->stats;
  s.num_points = r.U64();
  s.matched_points = r.U64();
  s.result_pairs = r.U64();
  s.true_hit_refs = r.U64();
  s.candidate_refs = r.U64();
  s.pip_tests = r.U64();
  s.pip_hits = r.U64();
  s.sth_points = r.U64();
  s.seconds = r.F64();
  uint64_t counts_len = r.U64();
  if (!r.ok()) return false;
  // Divide, don't multiply: counts_len is attacker-controlled and
  // counts_len * 8 can wrap past the size check into a giant resize. The
  // v4 trailer after the counts is 4 bytes (traced flag + flags + pad),
  // plus the trace section when traced.
  const size_t rem = r.remaining();
  if (rem < 4 || counts_len > (rem - 4) / 8) return false;
  const size_t counts_bytes = static_cast<size_t>(counts_len) * 8;
  s.counts.resize(counts_len);
  for (uint64_t i = 0; i < counts_len; ++i) s.counts[i] = r.U64();
  uint8_t traced = r.U8();
  uint8_t flags = r.U8();
  uint16_t pad16 = r.U16();
  if (!r.ok() || traced > 1 || flags > 1 || pad16 != 0) return false;
  // The counter section rides the trace: flags bit 0 without traced is a
  // conformance error, not a layout this decoder will guess at.
  if (flags == 1 && traced != 1) return false;
  const size_t want =
      counts_bytes + 4 + (traced == 1 ? TraceSectionBytes(flags == 1) : 0);
  if (rem != want) return false;
  out->trace = util::StageTrace{};
  if (traced == 1 && !ReadTraceSection(&r, flags == 1, &out->trace)) {
    return false;
  }
  return r.ok() && r.AtEnd();
}

// DatasetInfo payload: u32 count, per dataset: u16 id, u16 flags (bit 0:
// dropped; was reserved in v2), u64 epoch, u64 num_polygons,
// length-prefixed name.
void AppendDatasetList(const std::vector<service::DatasetInfo>& datasets,
                       util::ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(datasets.size()));
  for (const service::DatasetInfo& ds : datasets) {
    w->PutU16(ds.id);
    w->PutU16(ds.dropped ? 1 : 0);
    w->PutU64(ds.epoch);
    w->PutU64(ds.num_polygons);
    w->PutString(ds.name);
  }
}

bool DecodeDatasetList(std::span<const uint8_t> payload,
                       std::vector<service::DatasetInfo>* out) {
  util::ByteReader r(payload);
  uint32_t count = r.U32();
  // An entry costs >= 24 payload bytes (see the forged-count note above).
  if (!r.ok() || count > r.remaining() / 24 + 1) return false;
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    service::DatasetInfo ds;
    ds.id = r.U16();
    uint16_t flags = r.U16();
    ds.epoch = r.U64();
    ds.num_polygons = r.U64();
    ds.name = r.String();
    if (!r.ok() || flags > 1) return false;
    ds.dropped = (flags & 1) != 0;
    out->push_back(std::move(ds));
  }
  return r.AtEnd();
}

// ADD_POLYGONS payload: exactly the act polygons blob (shared with the
// snapshot store's delta records), so the server can hand the decoded
// polygons straight to the mutation path.
void AppendAddPolygons(const std::vector<geom::Polygon>& polygons,
                       util::ByteWriter* w) {
  act::AppendPolygonsBlob(polygons, w);
}

bool DecodeAddPolygons(std::span<const uint8_t> payload,
                       std::vector<geom::Polygon>* out) {
  act::LoadError error = act::LoadError::kNone;
  return act::ParsePolygonsBlob(payload, out, &error);
}

// REMOVE_POLYGONS payload: u32 count, then count u32 global polygon ids.
void AppendRemovePolygons(const std::vector<uint32_t>& ids,
                          util::ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(ids.size()));
  for (uint32_t id : ids) w->PutU32(id);
}

bool DecodeRemovePolygons(std::span<const uint8_t> payload,
                          std::vector<uint32_t>* out) {
  util::ByteReader r(payload);
  uint32_t n = r.U32();
  // Exact-size check before allocating (see DecodeQueryBatch).
  if (!r.ok() || r.remaining() != static_cast<size_t>(n) * 4) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*out)[i] = r.U32();
  return r.AtEnd();
}

// MUTATE_RESULT payload: u8 op, u8[3] reserved, u32 first_id, u64 epoch,
// u64 num_polygons.
void AppendMutationAck(const MutationAck& ack, util::ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(ack.op));
  w->PutU8(0);
  w->PutU16(0);
  w->PutU32(ack.first_id);
  w->PutU64(ack.epoch);
  w->PutU64(ack.num_polygons);
}

bool DecodeMutationAck(std::span<const uint8_t> payload, MutationAck* out) {
  util::ByteReader r(payload);
  uint8_t op = r.U8();
  uint8_t pad8 = r.U8();
  uint16_t pad16 = r.U16();
  out->first_id = r.U32();
  out->epoch = r.U64();
  out->num_polygons = r.U64();
  if (!r.ok() || !r.AtEnd() || pad8 != 0 || pad16 != 0) return false;
  if (op != static_cast<uint8_t>(MessageType::kAddPolygons) &&
      op != static_cast<uint8_t>(MessageType::kRemovePolygons) &&
      op != static_cast<uint8_t>(MessageType::kDropDataset)) {
    return false;
  }
  out->op = static_cast<MessageType>(op);
  return true;
}

// JOIN_DATASETS payload: u16 dataset_b, u8 mode, u8 flags (bit 0: trace,
// v7), u32 page_size (dataset_a rides the header's dataset_id).
void AppendJoinDatasets(const JoinDatasetsRequest& req, util::ByteWriter* w) {
  w->PutU16(req.dataset_b);
  w->PutU8(req.mode);
  w->PutU8(req.trace ? 1 : 0);
  w->PutU32(req.page_size);
}

bool DecodeJoinDatasets(std::span<const uint8_t> payload,
                        JoinDatasetsRequest* out) {
  util::ByteReader r(payload);
  out->dataset_b = r.U16();
  out->mode = r.U8();
  uint8_t flags = r.U8();
  out->page_size = r.U32();
  out->trace = (flags & 1) != 0;
  // mode is an enum on the wire: reject unknown values instead of letting
  // a future client silently run the wrong predicate. Same for unknown
  // flag bits — a client asking for an extension this server does not
  // speak must fail typed.
  return r.ok() && r.AtEnd() && (flags & ~uint8_t{1}) == 0 && out->mode <= 1;
}

// PAIR_RESULT payload: u32 chunk_index, u8 flags (bit 0: last; bit 1:
// traced, v7, last-chunk-only; bit 2: counter block, v8, traced-only),
// u8[3] reserved, u64 total_pairs, u32 num_pairs, num_pairs x (u32, u32),
// then on the last chunk the stats tail, then when traced the trace
// section (stage order per join2::CrossMatchStage, the stream stage last).
void AppendPairChunk(const PairChunk& chunk, util::ByteWriter* w) {
  const bool traced = chunk.last && chunk.trace.enabled;
  const bool counters = traced && CarriesCounters(chunk.trace);
  w->PutU32(chunk.chunk_index);
  w->PutU8(static_cast<uint8_t>((chunk.last ? 1 : 0) | (traced ? 2 : 0) |
                                (counters ? 4 : 0)));
  w->PutU8(0);
  w->PutU16(0);
  w->PutU64(chunk.total_pairs);
  w->PutU32(static_cast<uint32_t>(chunk.pairs.size()));
  for (const auto& [a, b] : chunk.pairs) {
    w->PutU32(a);
    w->PutU32(b);
  }
  if (chunk.last) {
    const PairChunkStats& s = chunk.stats;
    w->PutU64(s.candidate_pairs);
    w->PutU64(s.refined_pairs);
    w->PutU64(s.pruned_pairs);
    w->PutU32(s.max_depth);
    w->PutU32(0);
    w->PutU64(s.epoch_a);
    w->PutU64(s.epoch_b);
    w->PutF64(s.service_us);
    w->PutF64(s.queue_wait_us);
  }
  if (traced) AppendTraceSection(chunk.trace, w);
}

bool DecodePairChunk(std::span<const uint8_t> payload, PairChunk* out) {
  util::ByteReader r(payload);
  out->chunk_index = r.U32();
  uint8_t flags = r.U8();
  uint8_t pad8 = r.U8();
  uint16_t pad16 = r.U16();
  out->total_pairs = r.U64();
  uint32_t n = r.U32();
  if (!r.ok() || pad8 != 0 || pad16 != 0 || (flags & ~uint8_t{7}) != 0) {
    return false;
  }
  out->last = (flags & 1) != 0;
  const bool traced = (flags & 2) != 0;
  const bool counters = (flags & 4) != 0;
  // The trace section rides the stats tail and the counter block rides
  // the trace: a traced non-last chunk, or counters without a trace, is a
  // conformance error.
  if ((traced && !out->last) || (counters && !traced)) return false;
  // Forged-count bound: the pair array must fit what is actually left
  // (divide, don't multiply — n * 8 could wrap).
  const size_t tail =
      (out->last ? 64 : 0) + (traced ? TraceSectionBytes(counters) : 0);
  if (r.remaining() < tail || (r.remaining() - tail) / 8 < n ||
      (r.remaining() - tail) != static_cast<size_t>(n) * 8) {
    return false;
  }
  out->pairs.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t a = r.U32();
    uint32_t b = r.U32();
    out->pairs[i] = {a, b};
  }
  out->stats = PairChunkStats{};
  if (out->last) {
    PairChunkStats& s = out->stats;
    s.candidate_pairs = r.U64();
    s.refined_pairs = r.U64();
    s.pruned_pairs = r.U64();
    s.max_depth = r.U32();
    uint32_t pad32 = r.U32();
    s.epoch_a = r.U64();
    s.epoch_b = r.U64();
    s.service_us = r.F64();
    s.queue_wait_us = r.F64();
    if (pad32 != 0) return false;
  }
  out->trace = util::StageTrace{};
  if (traced && !ReadTraceSection(&r, counters, &out->trace)) return false;
  return r.ok() && r.AtEnd();
}

void AppendSubscribe(const service::SubscriptionSpec& spec,
                     util::ByteWriter* w) {
  using Selector = service::SubscriptionSpec::Selector;
  w->PutU8(static_cast<uint8_t>(spec.selector));
  w->PutU8(static_cast<uint8_t>(spec.mode));
  w->PutU16(0);
  switch (spec.selector) {
    case Selector::kAll:
      break;
    case Selector::kPolygonIds:
      w->PutU32(static_cast<uint32_t>(spec.polygon_ids.size()));
      for (uint32_t id : spec.polygon_ids) w->PutU32(id);
      break;
    case Selector::kCellRange:
      w->PutU64(spec.cell_lo);
      w->PutU64(spec.cell_hi);
      break;
  }
}

bool DecodeSubscribe(std::span<const uint8_t> payload,
                     service::SubscriptionSpec* out) {
  using Selector = service::SubscriptionSpec::Selector;
  util::ByteReader r(payload);
  const uint8_t selector = r.U8();
  const uint8_t mode = r.U8();
  const uint16_t reserved = r.U16();
  if (!r.ok() || selector > 2 || mode > 2 || reserved != 0) return false;
  *out = service::SubscriptionSpec{};
  out->selector = static_cast<Selector>(selector);
  out->mode = static_cast<service::SubscriptionMode>(mode);
  switch (out->selector) {
    case Selector::kAll:
      break;
    case Selector::kPolygonIds: {
      const uint32_t count = r.U32();
      // 4 payload bytes per id: a forged count cannot reserve more than
      // what actually arrived.
      if (!r.ok() || count == 0 || count > r.remaining() / 4) return false;
      out->polygon_ids.reserve(count);
      for (uint32_t i = 0; i < count; ++i) out->polygon_ids.push_back(r.U32());
      break;
    }
    case Selector::kCellRange:
      out->cell_lo = r.U64();
      out->cell_hi = r.U64();
      if (!r.ok() || out->cell_lo > out->cell_hi) return false;
      break;
  }
  return r.ok() && r.AtEnd();
}

bool DecodeUnsubscribe(std::span<const uint8_t> payload,
                       uint64_t* subscription_id) {
  util::ByteReader r(payload);
  *subscription_id = r.U64();
  return r.ok() && r.AtEnd();
}

void AppendSubscriptionInfo(const service::SubscriptionInfo& info,
                            util::ByteWriter* w) {
  w->PutU64(info.id);
  w->PutU64(info.epoch);
  w->PutU32(info.watched_polygons);
  w->PutU32(info.coverage_intervals);
}

bool DecodeSubscriptionInfo(std::span<const uint8_t> payload,
                            service::SubscriptionInfo* out) {
  util::ByteReader r(payload);
  out->id = r.U64();
  out->epoch = r.U64();
  out->watched_polygons = r.U32();
  out->coverage_intervals = r.U32();
  return r.ok() && r.AtEnd();
}

void AppendEventBatch(const service::EventBatch& batch, util::ByteWriter* w) {
  w->PutU64(batch.subscription_id);
  w->PutU64(batch.first_seq);
  w->PutU64(batch.epoch);
  w->PutU32(static_cast<uint32_t>(batch.events.size()));
  w->PutU32(0);
  for (const service::GeoEvent& e : batch.events) {
    w->PutU8(static_cast<uint8_t>(e.kind));
    w->PutU8(0);
    w->PutU16(0);
    w->PutU32(e.track_id);
    w->PutU32(e.polygon_id);
  }
}

bool DecodeEventBatch(std::span<const uint8_t> payload,
                      service::EventBatch* out) {
  util::ByteReader r(payload);
  out->subscription_id = r.U64();
  out->first_seq = r.U64();
  out->epoch = r.U64();
  const uint32_t count = r.U32();
  const uint32_t reserved = r.U32();
  // 12 payload bytes per event (forged-count bound, as elsewhere).
  if (!r.ok() || reserved != 0 || count > r.remaining() / 12) return false;
  out->events.clear();
  out->events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t kind = r.U8();
    const uint8_t pad8 = r.U8();
    const uint16_t pad16 = r.U16();
    service::GeoEvent e;
    e.kind = static_cast<service::GeoEventKind>(kind);
    e.track_id = r.U32();
    e.polygon_id = r.U32();
    if (!r.ok() || kind > 1 || pad8 != 0 || pad16 != 0) return false;
    out->events.push_back(e);
  }
  return r.AtEnd();
}

void AppendEventGap(const EventGap& gap, util::ByteWriter* w) {
  w->PutU64(gap.subscription_id);
  w->PutU64(gap.first_skipped_seq);
  w->PutU64(gap.last_skipped_seq);
}

bool DecodeEventGap(std::span<const uint8_t> payload, EventGap* out) {
  util::ByteReader r(payload);
  out->subscription_id = r.U64();
  out->first_skipped_seq = r.U64();
  out->last_skipped_seq = r.U64();
  return r.ok() && r.AtEnd() &&
         out->first_skipped_seq <= out->last_skipped_seq;
}

MetricsReport BuildMetricsReport(const util::MetricsRegistry& registry,
                                 const service::SlowQueryLog* slow_queries) {
  MetricsReport report;
  report.samples = util::FlattenSamples(registry.Collect());
  report.events = registry.events().Snapshot();
  if (slow_queries != nullptr) report.slow_queries = slow_queries->TopK();
  return report;
}

// Binary metrics form: three length-prefixed tables —
//   u32 num_samples, per sample: string name, string labels, u8 kind,
//     u8[3] reserved, f64 value;
//   u32 num_events, per event: u64 seq, f64 uptime_s, string kind,
//     string subject, string detail;
//   u32 num_slow, per entry: u64 request_id, u16 dataset_id, u16 reserved,
//     u64 num_points, u64 epoch, f64 queue_wait_us, f64 service_us.
void AppendMetricsReport(const MetricsReport& report, util::ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(report.samples.size()));
  for (const util::MetricSample& s : report.samples) {
    w->PutString(s.name);
    w->PutString(s.labels);
    w->PutU8(s.kind);
    w->PutU8(0);
    w->PutU16(0);
    w->PutF64(s.value);
  }
  w->PutU32(static_cast<uint32_t>(report.events.size()));
  for (const util::MetricEvent& e : report.events) {
    w->PutU64(e.seq);
    w->PutF64(e.uptime_s);
    w->PutString(e.kind);
    w->PutString(e.subject);
    w->PutString(e.detail);
  }
  w->PutU32(static_cast<uint32_t>(report.slow_queries.size()));
  for (const service::SlowQuery& q : report.slow_queries) {
    w->PutU64(q.request_id);
    w->PutU16(q.dataset_id);
    w->PutU16(0);
    w->PutU64(q.num_points);
    w->PutU64(q.epoch);
    w->PutF64(q.queue_wait_us);
    w->PutF64(q.service_us);
  }
}

bool DecodeMetricsReport(std::span<const uint8_t> payload,
                         MetricsReport* out) {
  util::ByteReader r(payload);
  uint32_t num_samples = r.U32();
  // A sample costs >= 20 payload bytes (forged-count bound, as elsewhere).
  if (!r.ok() || num_samples > r.remaining() / 20 + 1) return false;
  out->samples.clear();
  out->samples.reserve(num_samples);
  for (uint32_t i = 0; i < num_samples; ++i) {
    util::MetricSample s;
    s.name = r.String();
    s.labels = r.String();
    s.kind = r.U8();
    uint8_t pad8 = r.U8();
    uint16_t pad16 = r.U16();
    s.value = r.F64();
    if (!r.ok() || s.kind > 2 || pad8 != 0 || pad16 != 0) return false;
    out->samples.push_back(std::move(s));
  }
  uint32_t num_events = r.U32();
  // An event costs >= 28 payload bytes.
  if (!r.ok() || num_events > r.remaining() / 28 + 1) return false;
  out->events.clear();
  out->events.reserve(num_events);
  for (uint32_t i = 0; i < num_events; ++i) {
    util::MetricEvent e;
    e.seq = r.U64();
    e.uptime_s = r.F64();
    e.kind = r.String();
    e.subject = r.String();
    e.detail = r.String();
    if (!r.ok()) return false;
    out->events.push_back(std::move(e));
  }
  uint32_t num_slow = r.U32();
  // A slow-query entry costs exactly 44 payload bytes.
  if (!r.ok() || num_slow > r.remaining() / 44 + 1) return false;
  out->slow_queries.clear();
  out->slow_queries.reserve(num_slow);
  for (uint32_t i = 0; i < num_slow; ++i) {
    service::SlowQuery q;
    q.request_id = r.U64();
    q.dataset_id = r.U16();
    uint16_t pad16 = r.U16();
    q.num_points = r.U64();
    q.epoch = r.U64();
    q.queue_wait_us = r.F64();
    q.service_us = r.F64();
    if (!r.ok() || pad16 != 0) return false;
    out->slow_queries.push_back(q);
  }
  return r.AtEnd();
}

bool DecodeGetMetrics(std::span<const uint8_t> payload,
                      MetricsFormat* format) {
  util::ByteReader r(payload);
  uint8_t fmt = r.U8();
  uint8_t pad8 = r.U8();
  uint16_t pad16 = r.U16();
  if (!r.ok() || !r.AtEnd() || fmt > 1 || pad8 != 0 || pad16 != 0) {
    return false;
  }
  *format = static_cast<MetricsFormat>(fmt);
  return true;
}

bool DecodeMetricsResult(std::span<const uint8_t> payload,
                         MetricsFormat* format, std::string* text,
                         MetricsReport* report) {
  util::ByteReader r(payload);
  uint8_t fmt = r.U8();
  uint8_t pad8 = r.U8();
  uint16_t pad16 = r.U16();
  if (!r.ok() || fmt > 1 || pad8 != 0 || pad16 != 0) return false;
  *format = static_cast<MetricsFormat>(fmt);
  if (*format == MetricsFormat::kText) {
    *text = r.String();
    return r.ok() && r.AtEnd();
  }
  return DecodeMetricsReport(payload.subspan(4), report);
}

// Error payload: u16 code, u16 reserved, length-prefixed message.
bool DecodeError(std::span<const uint8_t> payload, WireError* code,
                 std::string* message) {
  util::ByteReader r(payload);
  *code = static_cast<WireError>(r.U16());
  uint16_t reserved = r.U16();
  *message = r.String();
  return r.AtEnd() && reserved == 0;
}

std::vector<uint8_t> EncodeJoinBatchFrame(uint64_t request_id,
                                          const service::QueryBatch& batch) {
  util::ByteWriter w(kFrameHeaderBytes + 8 + batch.points.size() * 24);
  BeginFrame(&w, MessageType::kJoinBatch, request_id, batch.dataset_id);
  AppendQueryBatch(batch, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeJoinResultFrame(uint64_t request_id,
                                           const service::JoinResult& result) {
  util::ByteWriter w(kFrameHeaderBytes + 96 + result.stats.counts.size() * 8);
  BeginFrame(&w, MessageType::kJoinResult, request_id);
  AppendJoinResult(result, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeDatasetListFrame(
    uint64_t request_id, const std::vector<service::DatasetInfo>& datasets) {
  util::ByteWriter w(kFrameHeaderBytes + 8 + datasets.size() * 64);
  BeginFrame(&w, MessageType::kDatasetList, request_id);
  AppendDatasetList(datasets, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeAddPolygonsFrame(
    uint64_t request_id, uint16_t dataset_id,
    const std::vector<geom::Polygon>& polygons) {
  util::ByteWriter w(kFrameHeaderBytes + 16 + polygons.size() * 64);
  BeginFrame(&w, MessageType::kAddPolygons, request_id, dataset_id);
  AppendAddPolygons(polygons, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeRemovePolygonsFrame(
    uint64_t request_id, uint16_t dataset_id,
    const std::vector<uint32_t>& ids) {
  util::ByteWriter w(kFrameHeaderBytes + 8 + ids.size() * 4);
  BeginFrame(&w, MessageType::kRemovePolygons, request_id, dataset_id);
  AppendRemovePolygons(ids, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeDropDatasetFrame(uint64_t request_id,
                                            uint16_t dataset_id) {
  util::ByteWriter w(kFrameHeaderBytes);
  BeginFrame(&w, MessageType::kDropDataset, request_id, dataset_id);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeJoinDatasetsFrame(uint64_t request_id,
                                             uint16_t dataset_a,
                                             const JoinDatasetsRequest& req) {
  util::ByteWriter w(kFrameHeaderBytes + 8);
  BeginFrame(&w, MessageType::kJoinDatasets, request_id, dataset_a);
  AppendJoinDatasets(req, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodePairChunkFrame(uint64_t request_id,
                                          const PairChunk& chunk) {
  util::ByteWriter w(kFrameHeaderBytes + 20 + chunk.pairs.size() * 8 +
                     (chunk.last ? 64 : 0) +
                     (chunk.last && chunk.trace.enabled
                          ? TraceSectionBytes(CarriesCounters(chunk.trace))
                          : 0));
  BeginFrame(&w, MessageType::kPairResult, request_id);
  AppendPairChunk(chunk, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeMutateResultFrame(uint64_t request_id,
                                             const MutationAck& ack) {
  util::ByteWriter w(kFrameHeaderBytes + 24);
  BeginFrame(&w, MessageType::kMutateResult, request_id);
  AppendMutationAck(ack, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeSubscribeFrame(
    uint64_t request_id, uint16_t dataset_id,
    const service::SubscriptionSpec& spec) {
  util::ByteWriter w(kFrameHeaderBytes + 24 + spec.polygon_ids.size() * 4);
  BeginFrame(&w, MessageType::kSubscribe, request_id, dataset_id);
  AppendSubscribe(spec, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeUnsubscribeFrame(uint64_t request_id,
                                            uint64_t subscription_id) {
  util::ByteWriter w(kFrameHeaderBytes + 8);
  BeginFrame(&w, MessageType::kUnsubscribe, request_id);
  w.PutU64(subscription_id);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeSubscriptionResultFrame(
    uint64_t request_id, const service::SubscriptionInfo& info) {
  util::ByteWriter w(kFrameHeaderBytes + 24);
  BeginFrame(&w, MessageType::kSubscriptionResult, request_id);
  AppendSubscriptionInfo(info, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeEventFrame(const service::EventBatch& batch) {
  util::ByteWriter w(kFrameHeaderBytes + 28 + batch.events.size() * 12);
  BeginFrame(&w, MessageType::kEvent, /*request_id=*/0);
  AppendEventBatch(batch, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeEventGapFrame(const EventGap& gap) {
  util::ByteWriter w(kFrameHeaderBytes + 24);
  BeginFrame(&w, MessageType::kEventGap, /*request_id=*/0);
  AppendEventGap(gap, &w);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeGetMetricsFrame(uint64_t request_id,
                                           MetricsFormat format) {
  util::ByteWriter w(kFrameHeaderBytes + 4);
  BeginFrame(&w, MessageType::kGetMetrics, request_id);
  w.PutU8(static_cast<uint8_t>(format));
  w.PutU8(0);
  w.PutU16(0);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeMetricsTextFrame(uint64_t request_id,
                                            std::string_view text) {
  util::ByteWriter w(kFrameHeaderBytes + 8 + text.size());
  BeginFrame(&w, MessageType::kMetricsResult, request_id);
  w.PutU8(static_cast<uint8_t>(MetricsFormat::kText));
  w.PutU8(0);
  w.PutU16(0);
  w.PutString(text);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeMetricsReportFrame(uint64_t request_id,
                                              const MetricsReport& report) {
  util::ByteWriter w(kFrameHeaderBytes + 16 + report.samples.size() * 64);
  BeginFrame(&w, MessageType::kMetricsResult, request_id);
  w.PutU8(static_cast<uint8_t>(MetricsFormat::kBinary));
  w.PutU8(0);
  w.PutU16(0);
  AppendMetricsReport(report, &w);
  return FinishFrame(std::move(w));
}

namespace {

// In-place little-endian writes into an already-encoded frame — the same
// encoding as ByteWriter::PutF64 / PutU64.
void PatchF64At(std::vector<uint8_t>* frame, size_t tail_offset,
                double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  uint8_t* p = frame->data() + frame->size() - tail_offset;
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(bits >> (8 * i));
}

void PatchU64At(std::vector<uint8_t>* frame, size_t tail_offset,
                uint64_t bits) {
  uint8_t* p = frame->data() + frame->size() - tail_offset;
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(bits >> (8 * i));
}

}  // namespace

void PatchLastStage(std::vector<uint8_t>* frame, double us,
                    const util::StageCounterSample* counters) {
  // The trace section ends the frame: the last stage's f64 is its final 8
  // bytes, or sits just before the counter block when one follows — whose
  // final 24 bytes are the last stage's triple.
  const size_t counter_bytes = counters != nullptr ? kTraceCounterBytes : 0;
  ACT_CHECK_MSG(
      frame->size() >= kFrameHeaderBytes + kTraceStageBytes + counter_bytes,
      "PatchLastStage on a frame without that trace section");
  PatchF64At(frame, counter_bytes + 8, us);
  if (counters == nullptr) return;
  PatchU64At(frame, 24, counters->cycles);
  PatchU64At(frame, 16, counters->instructions);
  PatchU64At(frame, 8, counters->llc_misses);
}

std::vector<uint8_t> EncodeErrorFrame(uint64_t request_id, WireError code,
                                      std::string_view message) {
  util::ByteWriter w(kFrameHeaderBytes + 8 + message.size());
  BeginFrame(&w, MessageType::kError, request_id);
  w.PutU16(static_cast<uint16_t>(code));
  w.PutU16(0);
  w.PutString(message);
  return FinishFrame(std::move(w));
}

std::vector<uint8_t> EncodeEmptyFrame(MessageType type, uint64_t request_id) {
  return EncodeFrame(type, request_id, {});
}

}  // namespace actjoin::net
