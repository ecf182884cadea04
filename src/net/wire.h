// The actjoin binary wire protocol: versioned, length-prefixed frames.
//
// Every message — request or response — is one frame:
//
//   offset  size  field
//   0       u32   magic "ACTJ" (0x4A544341 when read little-endian)
//   4       u8    protocol version (kWireVersion)
//   5       u8    message type (MessageType)
//   6       u16   dataset id (JOIN_BATCH and the mutation requests; 0
//                 elsewhere — was the reserved field in protocol v1)
//   8       u64   request id: chosen by the client, echoed verbatim in the
//                 response, so replies can be matched under pipelining
//   16      u32   payload length in bytes
//   20      u32   reserved, must be 0 (keeps the header 8-byte aligned)
//   24      ...   payload (layout per message type; see docs/wire_protocol.md)
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (util::ByteWriter / ByteReader). Requests are JOIN_BATCH,
// JOIN_DATASETS, PING, GET_METRICS, LIST_DATASETS, SHUTDOWN, SUBSCRIBE /
// UNSUBSCRIBE, and the mutation trio ADD_POLYGONS / REMOVE_POLYGONS /
// DROP_DATASET; every request gets exactly one response — the matching
// success type or ERROR with a typed WireError code — except
// JOIN_DATASETS, whose success answer is a *sequence* of PAIR_RESULT
// chunks (result size is O(pairs), so the response streams; the last
// chunk is flagged). A failed JOIN_DATASETS still gets exactly one ERROR
// frame and no chunks.
// Admission rejections, UNKNOWN_DATASET, DATASET_DROPPED, and
// INVALID_MUTATION are ordinary ERROR responses: the server never blocks
// and never drops the connection for them. Framing errors (bad magic, bad
// version, oversized frame) are not recoverable — the server answers with
// ERROR and closes, because byte sync is lost.
//
// Versioning rules: the header layout is frozen; kWireVersion bumps
// whenever any payload layout changes. A server answers a frame carrying a
// version it does not speak with UNSUPPORTED_VERSION (request id echoed),
// so old clients fail typed, not garbled. v2 turned the reserved u16 at
// offset 6 into dataset_id, added LIST_DATASETS / DATASET_LIST and the
// UNKNOWN_DATASET error, and extended the STATS_RESULT payload with the
// unknown-dataset reject counter, the dataset count, and per-peer
// admission splits. v3 added the live-mutation requests (ADD_POLYGONS /
// REMOVE_POLYGONS / DROP_DATASET -> MUTATE_RESULT), the DATASET_DROPPED
// and INVALID_MUTATION errors, the mutation counters in STATS_RESULT, and
// turned the DATASET_LIST per-entry reserved u16 into a flags field
// (bit 0: dropped). v4 is the observability release: GET_METRICS ->
// METRICS_RESULT (Prometheus text exposition or a structured binary
// report with the event log and slow-query dump), a JOIN_BATCH trace
// flag (the QueryBatch reserved u8 became flags, bit 0: trace) whose
// response carries the per-stage breakdown inline, and STATS_RESULT
// extended with p999 quantiles plus per-dataset epoch/traffic splits.
// v5 adds the index–index join: JOIN_DATASETS (dataset_a in the header's
// dataset_id, dataset_b + mode + page size in the payload) answered by a
// chunked stream of PAIR_RESULT frames — the protocol's first multi-frame
// response — with the per-join stats tail riding the flagged last chunk.
// v6 inverts the request/response core: SUBSCRIBE registers a standing
// geofence query (polygon ids, a leaf-cell region, or the whole dataset,
// plus an ENTER/LEAVE direction filter) answered by SUBSCRIPTION_RESULT,
// UNSUBSCRIBE retires it, and the server may thereafter interleave
// *server-initiated* EVENT frames (request_id 0 — they answer no request)
// carrying dense seq-numbered ENTER/LEAVE transitions, epoch-tagged, on
// the same connection as ordinary responses. EVENT_GAP (also server-
// initiated) replaces events the bounded per-connection outbox had to
// drop, carrying the skipped seq range — delivery may gap, but never
// silently and never by blocking the event loop. STATS_RESULT grows the
// subscription figures (active subscriptions, outstanding requests,
// events pushed/dropped). Clients must treat request_id-0 frames as
// out-of-band: a pipelined demultiplexer routes them by subscription id,
// never to a request slot.
// v7 added the JOIN_RESULT counter block (flags bit 0 after the traced
// flag), the JOIN_DATASETS trace flag, and the trace on the last
// PAIR_RESULT chunk (flags bit 1). v8 gives every request kind one trace
// section — u64 trace request id + util::kNumStages f64 stage micros,
// then under the frame's counters flag u8 available (0: perf_event_open
// denied, every delta zero) + u8[7] reserved + util::kNumStages × (u64
// cycles, u64 instructions, u64 llc_misses) — ending its frame, its last
// stage patched at delivery via PatchLastStage; PAIR_RESULT gains the
// counters flag (bit 2, traced last chunk only). JOIN_RESULT bytes and
// counter-less streams are byte-identical to v7 behind the version byte.
// v9 retires STATS / STATS_RESULT (types 3 and 67; a v9 server answers
// type 3 with UNKNOWN_TYPE): GET_METRICS is the one structured exit, and
// clients map its binary samples to service::ServiceStats themselves
// (service::StatsFromSamples). No other payload changed.
// v10 drops the u32 shard count from every DATASET_LIST entry: a dataset is
// one index. No other payload changed.

#ifndef ACTJOIN_NET_WIRE_H_
#define ACTJOIN_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/polygon.h"
#include "service/join_service.h"
#include "service/slow_query_log.h"
#include "service/subscription_matcher.h"
#include "util/byte_io.h"
#include "util/metrics.h"
#include "util/stage_trace.h"

namespace actjoin::net {

inline constexpr uint32_t kWireMagic = 0x4A544341;  // "ACTJ"
inline constexpr uint8_t kWireVersion = 10;
inline constexpr size_t kFrameHeaderBytes = 24;
/// Default cap on one frame (header + payload); a JOIN_BATCH point costs
/// 24 payload bytes, so this admits ~2.7 M points per batch.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

enum class MessageType : uint8_t {
  // Requests.
  kJoinBatch = 1,       // QueryBatch payload -> kJoinResult
  kPing = 2,            // empty payload      -> kPong
  // 3 was STATS (retired in v9: GET_METRICS is the one structured exit).
  kShutdown = 4,        // empty payload      -> kShutdownAck (+ server flag)
  kListDatasets = 5,    // empty payload      -> kDatasetList
  // Live mutations (v3). All carry the target in the header's dataset_id
  // and answer with kMutateResult on success.
  kAddPolygons = 6,     // polygons blob      -> kMutateResult
  kRemovePolygons = 7,  // u32 count + ids    -> kMutateResult
  kDropDataset = 8,     // empty payload      -> kMutateResult
  kGetMetrics = 9,      // u8 format (v4)     -> kMetricsResult
  /// Index–index join (v5): dataset_a in the header's dataset_id, the
  /// rest in the payload. Success answers with a stream of kPairResult
  /// chunks; failure with one kError.
  kJoinDatasets = 10,
  // Continuous queries (v6). SUBSCRIBE routes by the header's dataset_id;
  // UNSUBSCRIBE names the subscription in its payload (dataset_id 0).
  kSubscribe = 11,      // SubscriptionSpec   -> kSubscriptionResult
  kUnsubscribe = 12,    // u64 subscription   -> kSubscriptionResult
  // Responses.
  kJoinResult = 65,
  kPong = 66,
  // 67 was STATS_RESULT (retired in v9).
  kShutdownAck = 68,
  kDatasetList = 69,
  kMutateResult = 70,
  kMetricsResult = 71,
  kPairResult = 72,     // one chunk of a JOIN_DATASETS result (v5)
  kSubscriptionResult = 73,  // ack for kSubscribe / kUnsubscribe (v6)
  /// Server-initiated push (v6): request_id is always 0 — these answer no
  /// request and may interleave with responses anywhere on the stream.
  kEvent = 74,          // a dense run of seq-numbered ENTER/LEAVE events
  kEventGap = 75,       // events the bounded outbox dropped (seq range)
  kError = 127,
};

/// GET_METRICS payload: which export form the response should carry.
enum class MetricsFormat : uint8_t {
  kBinary = 0,  // structured MetricsReport (samples + events + slow queries)
  kText = 1,    // Prometheus text exposition format, verbatim
};

/// Typed error codes carried by kError responses.
enum class WireError : uint16_t {
  kNone = 0,
  // Protocol-level. kMalformedFrame / kUnsupportedVersion / kFrameTooLarge
  // desynchronize the byte stream, so the server closes after sending.
  kMalformedFrame = 1,
  kUnsupportedVersion = 2,
  kUnknownType = 3,      // valid frame, unknown type: connection survives
  kFrameTooLarge = 4,
  kMalformedPayload = 5,  // valid frame, undecodable payload: survives
  // Admission-control rejections (connection always survives; retry later).
  kRateLimited = 16,
  kInFlightBytesExceeded = 17,
  kQueueWatermark = 18,
  // Service-door rejections surfaced by JoinService::TrySubmitAsync.
  kQueueFull = 24,
  kShuttingDown = 25,
  /// JOIN_BATCH against a dataset id the catalog never assigned. The
  /// connection survives: fetch LIST_DATASETS and retry with a real id.
  kUnknownDataset = 26,
  /// The dataset id is assigned but tombstoned by DROP_DATASET: joins and
  /// mutations against it reject typed (the slot may be resurrected by a
  /// later full publish). Connection survives.
  kDatasetDropped = 27,
  /// A mutation the service refused on its content: empty add/remove,
  /// remove ids out of range, polygon id space exhausted. Connection
  /// survives.
  kInvalidMutation = 28,
  /// UNSUBSCRIBE naming a subscription id this connection does not hold
  /// (never assigned, already unsubscribed, or someone else's — ids are
  /// per-connection-private). Connection survives.
  kUnknownSubscription = 29,
  /// SUBSCRIBE beyond the per-connection standing-query cap
  /// (ServerOptions::max_subscriptions_per_connection). Connection
  /// survives; unsubscribe something first.
  kSubscriptionLimit = 30,
  /// Client-side only: the configured receive deadline expired with a
  /// response (possibly a partial frame) still outstanding. The client
  /// closes the connection — a half-read frame means byte sync is gone —
  /// so this is not recoverable.
  kTimedOut = 31,
};

const char* ToString(WireError error);

/// True for rejections where the server keeps the connection open (the
/// client may retry on the same socket).
bool IsRecoverable(WireError error);

struct FrameHeader {
  uint8_t version = kWireVersion;
  MessageType type = MessageType::kPing;
  /// Target dataset for JOIN_BATCH and the mutation requests; 0 on every
  /// other message.
  uint16_t dataset_id = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
};

enum class FrameParse {
  kNeedMoreData,   // keep reading; `buffer` holds only a frame prefix
  kFrame,          // *header filled; payload at [kFrameHeaderBytes, ...)
  kProtocolError,  // *error filled; stream is desynchronized
};

/// Incremental frame scanner over a receive buffer. On kFrame,
/// *frame_bytes is the total frame size (header + payload) to consume and
/// the payload is buffer.subspan(kFrameHeaderBytes, header->payload_bytes).
/// On kProtocolError, header->request_id carries the id if the header was
/// readable (so the error response can echo it), else 0.
FrameParse TryParseFrame(std::span<const uint8_t> buffer,
                         size_t max_frame_bytes, FrameHeader* header,
                         size_t* frame_bytes, WireError* error);

/// One complete frame: header + payload.
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t request_id,
                                 std::span<const uint8_t> payload);

// --- Payload codecs --------------------------------------------------------

void AppendQueryBatch(const service::QueryBatch& batch, util::ByteWriter* w);
bool DecodeQueryBatch(std::span<const uint8_t> payload,
                      service::QueryBatch* out);

void AppendJoinResult(const service::JoinResult& result, util::ByteWriter* w);
bool DecodeJoinResult(std::span<const uint8_t> payload,
                      service::JoinResult* out);

void AppendDatasetList(const std::vector<service::DatasetInfo>& datasets,
                       util::ByteWriter* w);
bool DecodeDatasetList(std::span<const uint8_t> payload,
                       std::vector<service::DatasetInfo>* out);

/// MUTATE_RESULT payload: what a successful mutation published.
struct MutationAck {
  /// Echo of the request's MessageType (kAddPolygons / kRemovePolygons /
  /// kDropDataset), so a pipelined client can sanity-check the pairing.
  MessageType op = MessageType::kAddPolygons;
  /// Snapshot epoch the mutation published.
  uint64_t epoch = 0;
  /// Dataset polygon-id-space size after the mutation (removed ids keep
  /// their slots; 0 after a drop).
  uint64_t num_polygons = 0;
  /// First global id assigned to the added polygons (kAddPolygons only;
  /// the batch got [first_id, first_id + count) in order).
  uint32_t first_id = 0;

  friend bool operator==(const MutationAck&, const MutationAck&) = default;
};

/// ADD_POLYGONS payload: the act polygons blob (u64 count, then rings).
void AppendAddPolygons(const std::vector<geom::Polygon>& polygons,
                       util::ByteWriter* w);
bool DecodeAddPolygons(std::span<const uint8_t> payload,
                       std::vector<geom::Polygon>* out);

/// REMOVE_POLYGONS payload: u32 count, then count u32 global polygon ids.
void AppendRemovePolygons(const std::vector<uint32_t>& ids,
                          util::ByteWriter* w);
bool DecodeRemovePolygons(std::span<const uint8_t> payload,
                          std::vector<uint32_t>* out);

void AppendMutationAck(const MutationAck& ack, util::ByteWriter* w);
bool DecodeMutationAck(std::span<const uint8_t> payload, MutationAck* out);

// --- JOIN_DATASETS / PAIR_RESULT (v5) --------------------------------------

/// JOIN_DATASETS payload (dataset_a travels in the header's dataset_id):
/// u16 dataset_b, u8 mode, u8 flags (bit 0: trace, v7; other bits must be
/// 0), u32 page_size.
struct JoinDatasetsRequest {
  uint16_t dataset_b = 0;
  /// join2::CrossMatchMode on the wire: 0 intersects, 1 contains. Decode
  /// rejects anything else (kMalformedPayload, not a silent default).
  uint8_t mode = 0;
  /// Pairs per PAIR_RESULT chunk; 0 means the server default
  /// (kDefaultPairPageSize). The server clamps, never rejects, a large
  /// value — page size shapes framing, not semantics.
  uint32_t page_size = 0;
  /// Request the per-stage breakdown on the last PAIR_RESULT chunk (v7).
  bool trace = false;

  friend bool operator==(const JoinDatasetsRequest&,
                         const JoinDatasetsRequest&) = default;
};

/// Per-join figures riding the last chunk of a PAIR_RESULT stream: the
/// wire form of join2::CrossMatchStats plus the two pinned epochs and the
/// request's timing splits.
struct PairChunkStats {
  uint64_t candidate_pairs = 0;
  uint64_t refined_pairs = 0;
  uint64_t pruned_pairs = 0;
  uint32_t max_depth = 0;
  uint64_t epoch_a = 0;
  uint64_t epoch_b = 0;
  double service_us = 0;
  double queue_wait_us = 0;

  friend bool operator==(const PairChunkStats&,
                         const PairChunkStats&) = default;
};

/// One PAIR_RESULT chunk. Payload layout: u32 chunk_index, u8 flags
/// (bit 0: last; bit 1: traced, v7, last-chunk-only; bit 2: counter block
/// present, v8, traced only), u8[3] reserved (must be 0), u64 total_pairs
/// (of the whole result, identical in every chunk), u32 num_pairs, then
/// num_pairs × (u32 a, u32 b), then — on the last chunk only — the
/// PairChunkStats tail (three u64, u32 + u32 reserved, two u64, two f64),
/// then — when traced — the trace section (see the header comment; the
/// stream stage last, patched in place at delivery via PatchLastStage).
/// Pairs arrive in the result's sorted order, split at page boundaries;
/// an empty result is one last-flagged chunk with zero pairs.
struct PairChunk {
  uint32_t chunk_index = 0;
  bool last = false;
  uint64_t total_pairs = 0;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  /// Meaningful only when `last` is set; default elsewhere.
  PairChunkStats stats;
  /// Stage breakdown (v7), indexed by join2::CrossMatchStage; enabled
  /// only on the last chunk of a traced JOIN_DATASETS stream.
  util::StageTrace trace;

  friend bool operator==(const PairChunk&, const PairChunk&) = default;
};

/// Server-side default and hard cap for pairs per chunk. The cap keeps a
/// forged page_size from asking for a chunk above the frame limit: 8 B
/// per pair, so 2^20 pairs is an 8 MiB payload, comfortably under
/// kDefaultMaxFrameBytes.
inline constexpr uint32_t kDefaultPairPageSize = 8192;
inline constexpr uint32_t kMaxPairPageSize = 1u << 20;

void AppendJoinDatasets(const JoinDatasetsRequest& req, util::ByteWriter* w);
bool DecodeJoinDatasets(std::span<const uint8_t> payload,
                        JoinDatasetsRequest* out);

void AppendPairChunk(const PairChunk& chunk, util::ByteWriter* w);
bool DecodePairChunk(std::span<const uint8_t> payload, PairChunk* out);

// --- SUBSCRIBE / EVENT push channel (v6) -----------------------------------

/// SUBSCRIBE payload (dataset in the header's dataset_id): u8 selector,
/// u8 mode, u16 reserved (must be 0), then the selector body — polygon
/// ids: u32 count + count × u32; cell range: u64 lo + u64 hi; all:
/// nothing. Decode rejects unknown selector/mode bytes and a count that
/// overruns the payload.
void AppendSubscribe(const service::SubscriptionSpec& spec,
                     util::ByteWriter* w);
bool DecodeSubscribe(std::span<const uint8_t> payload,
                     service::SubscriptionSpec* out);

/// UNSUBSCRIBE payload: exactly one u64 subscription id.
bool DecodeUnsubscribe(std::span<const uint8_t> payload,
                       uint64_t* subscription_id);

/// SUBSCRIPTION_RESULT payload (SubscriptionInfo on the wire): u64
/// subscription id, u64 epoch, u32 watched polygons, u32 coverage
/// intervals. An UNSUBSCRIBE ack echoes the id with the figures zeroed.
void AppendSubscriptionInfo(const service::SubscriptionInfo& info,
                            util::ByteWriter* w);
bool DecodeSubscriptionInfo(std::span<const uint8_t> payload,
                            service::SubscriptionInfo* out);

/// EVENT payload (service::EventBatch on the wire): u64 subscription id,
/// u64 first_seq, u64 epoch, u32 count, u32 reserved (0), then count ×
/// (u8 kind: 0 ENTER / 1 LEAVE, u8 + u16 reserved, u32 track id, u32
/// polygon id). The i-th event's seq is first_seq + i — seqs are dense
/// within a frame, so only EVENT_GAP (or a fresh connection) explains a
/// jump between frames.
void AppendEventBatch(const service::EventBatch& batch, util::ByteWriter* w);
bool DecodeEventBatch(std::span<const uint8_t> payload,
                      service::EventBatch* out);

/// EVENT_GAP payload: u64 subscription id, u64 first_skipped_seq, u64
/// last_skipped_seq (inclusive — the overflow policy dropped exactly
/// those events).
struct EventGap {
  uint64_t subscription_id = 0;
  uint64_t first_skipped_seq = 0;
  uint64_t last_skipped_seq = 0;

  friend bool operator==(const EventGap&, const EventGap&) = default;
};

void AppendEventGap(const EventGap& gap, util::ByteWriter* w);
bool DecodeEventGap(std::span<const uint8_t> payload, EventGap* out);

/// METRICS_RESULT's structured binary form: the whole registry flattened,
/// plus the event ring and the slow-query dump (which the text form omits
/// — Prometheus has no exposition for either).
struct MetricsReport {
  std::vector<util::MetricSample> samples;
  std::vector<util::MetricEvent> events;
  std::vector<service::SlowQuery> slow_queries;
};

/// Flattens a registry collection (+ optional event/slow-query sources)
/// into the wire report. Shared by the server and the in-process tests.
MetricsReport BuildMetricsReport(const util::MetricsRegistry& registry,
                                 const service::SlowQueryLog* slow_queries);

void AppendMetricsReport(const MetricsReport& report, util::ByteWriter* w);
bool DecodeMetricsReport(std::span<const uint8_t> payload, MetricsReport* out);

/// METRICS_RESULT payload: u8 format, u8[3] reserved, then the
/// format-specific body (length-prefixed text, or the binary report).
bool DecodeMetricsResult(std::span<const uint8_t> payload,
                         MetricsFormat* format, std::string* text,
                         MetricsReport* report);

bool DecodeError(std::span<const uint8_t> payload, WireError* code,
                 std::string* message);

// --- Whole-frame convenience builders --------------------------------------

std::vector<uint8_t> EncodeJoinBatchFrame(uint64_t request_id,
                                          const service::QueryBatch& batch);
std::vector<uint8_t> EncodeJoinResultFrame(uint64_t request_id,
                                           const service::JoinResult& result);
std::vector<uint8_t> EncodeDatasetListFrame(
    uint64_t request_id, const std::vector<service::DatasetInfo>& datasets);
std::vector<uint8_t> EncodeAddPolygonsFrame(
    uint64_t request_id, uint16_t dataset_id,
    const std::vector<geom::Polygon>& polygons);
std::vector<uint8_t> EncodeRemovePolygonsFrame(
    uint64_t request_id, uint16_t dataset_id,
    const std::vector<uint32_t>& ids);
std::vector<uint8_t> EncodeDropDatasetFrame(uint64_t request_id,
                                            uint16_t dataset_id);
std::vector<uint8_t> EncodeMutateResultFrame(uint64_t request_id,
                                             const MutationAck& ack);
std::vector<uint8_t> EncodeJoinDatasetsFrame(uint64_t request_id,
                                             uint16_t dataset_a,
                                             const JoinDatasetsRequest& req);
std::vector<uint8_t> EncodePairChunkFrame(uint64_t request_id,
                                          const PairChunk& chunk);
std::vector<uint8_t> EncodeSubscribeFrame(uint64_t request_id,
                                          uint16_t dataset_id,
                                          const service::SubscriptionSpec& spec);
std::vector<uint8_t> EncodeUnsubscribeFrame(uint64_t request_id,
                                            uint64_t subscription_id);
std::vector<uint8_t> EncodeSubscriptionResultFrame(
    uint64_t request_id, const service::SubscriptionInfo& info);
/// Server-initiated: request_id is 0 by protocol.
std::vector<uint8_t> EncodeEventFrame(const service::EventBatch& batch);
std::vector<uint8_t> EncodeEventGapFrame(const EventGap& gap);
/// GET_METRICS request: u8 format, u8[3] reserved.
std::vector<uint8_t> EncodeGetMetricsFrame(uint64_t request_id,
                                           MetricsFormat format);
std::vector<uint8_t> EncodeMetricsTextFrame(uint64_t request_id,
                                            std::string_view text);
std::vector<uint8_t> EncodeMetricsReportFrame(uint64_t request_id,
                                              const MetricsReport& report);
bool DecodeGetMetrics(std::span<const uint8_t> payload, MetricsFormat* format);

/// Stamps the last stage (respond / stream) of the trace section ending
/// `frame`: its wall time and, exactly when the section carries the
/// counter block, its counter triple. That stage times the encode of the
/// very frame that carries it, so the encoder leaves zeros for the server
/// to patch here before handing the frame to the event loop.
void PatchLastStage(std::vector<uint8_t>* frame, double us,
                    const util::StageCounterSample* counters = nullptr);
std::vector<uint8_t> EncodeErrorFrame(uint64_t request_id, WireError code,
                                      std::string_view message);
/// PING / PONG / SHUTDOWN / SHUTDOWN_ACK carry no payload.
std::vector<uint8_t> EncodeEmptyFrame(MessageType type, uint64_t request_id);

}  // namespace actjoin::net

#endif  // ACTJOIN_NET_WIRE_H_
