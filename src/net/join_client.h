// JoinClient: synchronous blocking client for the actjoin wire protocol.
//
// One connection, one call at a time from the caller's point of view:
// every RPC writes a frame and blocks until the matching response
// arrives, which is exactly the shape tests, benches, and examples want.
// Since wire v6 this is a thin wrapper over net::AsyncJoinClient — each
// RPC is "dispatch one pipelined call, get() the future" — so the
// blocking and async clients cannot drift apart: these methods exercise
// the same reader, demultiplexer, and failure paths the async client
// uses. Grab async() to pipeline requests or SUBSCRIBE on the same
// connection.
//
// Every RPC surfaces three distinct failure layers:
//
//   * transport errors (connect/send/recv failed, peer closed) — the
//     connection is dead, Reply.message says why;
//   * typed wire errors (kError response: admission rejection, queue full,
//     malformed payload, ...) — the connection is still usable, the code
//     says which policy fired. The client-side WireError::kTimedOut (see
//     set_recv_timeout_ms) is typed but fatal: the connection closes;
//   * success — the decoded response payload.
//
// Thread-compatible, not thread-safe: share-nothing or lock around it
// (or use async(), whose dispatch side is thread-safe).

#ifndef ACTJOIN_NET_JOIN_CLIENT_H_
#define ACTJOIN_NET_JOIN_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/async_join_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/join_service.h"

namespace actjoin::net {

class JoinClient {
 public:
  JoinClient() : core_(std::make_unique<AsyncJoinClient>()) {}
  JoinClient(JoinClient&&) = default;
  JoinClient& operator=(JoinClient&&) = default;

  /// Blocking IPv4 connect. False + *error on failure.
  bool Connect(const std::string& host, uint16_t port,
               std::string* error = nullptr) {
    return core_->Connect(host, port, error);
  }
  bool connected() const { return core_->connected(); }
  void Close() { core_->Close(); }

  /// The pipelined core this client wraps: use it to overlap requests or
  /// register SUBSCRIBE handlers on the same connection. Interleaving
  /// async calls with the blocking RPCs here is safe — responses route by
  /// request id.
  AsyncJoinClient& async() { return *core_; }

  struct Reply {
    bool ok = false;
    /// kNone on success and on transport errors; a typed code when the
    /// server answered with a kError frame (connection still usable), or
    /// the client-side kTimedOut (connection closed).
    WireError error = WireError::kNone;
    std::string message;
    /// Valid only for Join() with ok == true.
    service::JoinResult result;
    /// Valid only for the mutation RPCs with ok == true.
    MutationAck ack;
  };

  /// See net::CrossMatchReply (async_join_client.h); historically nested
  /// here, aliased to keep `JoinClient::CrossMatchReply` spelling valid.
  using CrossMatchReply = actjoin::net::CrossMatchReply;

  /// Round-trips one JOIN_BATCH against batch.dataset_id. The batch's
  /// cell_ids/points must be parallel arrays (same length). A server
  /// without that dataset answers with a recoverable kUnknownDataset
  /// error — list the catalog and retry on the same connection.
  Reply Join(const service::QueryBatch& batch);

  /// Live mutations (wire v3). On ok, Reply.ack carries the published
  /// epoch / id assignments; a tombstoned target answers with the
  /// recoverable kDatasetDropped, a content-refused batch with
  /// kInvalidMutation — the connection survives both.
  Reply AddPolygons(uint16_t dataset_id,
                    const std::vector<geom::Polygon>& polygons);
  Reply RemovePolygons(uint16_t dataset_id,
                       const std::vector<uint32_t>& polygon_ids);
  Reply DropDataset(uint16_t dataset_id);

  /// Round-trips one JOIN_DATASETS (wire v5): crossmatch dataset_a against
  /// req.dataset_b and stream back every result pair. Success is a
  /// sequence of PAIR_RESULT chunks, which this call reassembles (and
  /// validates: echoed request id, consecutive chunk indexes, a stable
  /// total_pairs, the advertised total matched by the concatenation).
  /// Either side unknown or dropped answers with a single recoverable
  /// typed error naming the offending dataset in its message.
  CrossMatchReply CrossMatch(uint16_t dataset_a,
                             const JoinDatasetsRequest& req);

  /// Registers a standing geofence query (wire v6) and blocks for the
  /// ack; `on_events` / `on_gap` then run on the connection's reader
  /// thread as the server pushes EVENT / EVENT_GAP frames (see
  /// AsyncJoinClient's handler rules).
  AsyncJoinClient::SubscribeReply Subscribe(
      uint16_t dataset_id, const service::SubscriptionSpec& spec,
      AsyncJoinClient::EventHandler on_events,
      AsyncJoinClient::GapHandler on_gap = nullptr) {
    return core_->Subscribe(dataset_id, spec, std::move(on_events),
                            std::move(on_gap))
        .get();
  }
  AsyncJoinClient::SubscribeReply Unsubscribe(uint64_t subscription_id) {
    return core_->Unsubscribe(subscription_id).get();
  }

  bool Ping(std::string* error = nullptr);
  /// The server's ServiceStats: one binary GET_METRICS report mapped by
  /// service::StatsFromSamples, the same mapping the server's own Stats()
  /// uses. All zero against a server whose metrics are disabled.
  bool GetStats(service::ServiceStats* out, std::string* error = nullptr);
  /// Fetches the server's metrics in structured binary form (samples +
  /// event log + slow-query ring). Wire v4; an older server answers with
  /// the recoverable kUnknownType, surfaced here as false + *error.
  bool GetMetrics(MetricsReport* out, std::string* error = nullptr);
  /// Fetches the Prometheus text exposition (what a scraper would relay).
  bool GetMetricsText(std::string* out, std::string* error = nullptr);
  /// Enumerates the server's dataset catalog (id, name, epoch, sizes).
  bool ListDatasets(std::vector<service::DatasetInfo>* out,
                    std::string* error = nullptr);
  /// Asks the server process to shut down (acked before it does).
  bool RequestShutdown(std::string* error = nullptr);

  /// Frames larger than this are refused client-side before sending.
  size_t max_frame_bytes() const { return core_->max_frame_bytes(); }
  void set_max_frame_bytes(size_t bytes) { core_->set_max_frame_bytes(bytes); }

  /// Receive stall deadline for every blocking RPC, milliseconds; 0
  /// (default) blocks forever. When a response — or the rest of a
  /// half-written frame — fails to arrive in time, the RPC fails with the
  /// typed WireError::kTimedOut and the connection closes (a partial
  /// frame means byte sync is gone, so there is nothing to salvage).
  int recv_timeout_ms() const { return core_->recv_timeout_ms(); }
  void set_recv_timeout_ms(int ms) { core_->set_recv_timeout_ms(ms); }

 private:
  /// Dispatches `frame` on the core, then blocks for the response to this
  /// request id. On a kError response, fills reply.error/message; on the
  /// expected type, returns the raw payload for the caller to decode.
  bool Call(const std::vector<uint8_t>& frame, uint64_t request_id,
            MessageType expect, std::vector<uint8_t>* payload, Reply* reply);

  /// unique_ptr (not a member) keeps JoinClient movable: the core owns a
  /// running reader thread and is therefore pinned in memory.
  std::unique_ptr<AsyncJoinClient> core_;
};

}  // namespace actjoin::net

#endif  // ACTJOIN_NET_JOIN_CLIENT_H_
