// AsyncJoinClient: the pipelined, event-capable core every actjoin client
// shape builds on.
//
// One connection, one dedicated reader thread, unlimited in-flight
// requests. A caller encodes a frame (carrying a request id from
// NextRequestId), registers interest, and gets a std::future back; the
// reader demultiplexes every inbound frame by the echoed request id into
// the matching completion slot, so responses may arrive in any order and
// callers on any thread overlap freely — the protocol's request ids
// always permitted this, only the old blocking client's
// one-at-a-time loop constrained it. The blocking JoinClient is now a
// thin wrapper over this class (send one frame, get() the future), which
// is what keeps the two behaviorally identical.
//
// Frames that answer no request — wire v6's server-initiated EVENT /
// EVENT_GAP push, always request id 0 — route by subscription id instead,
// to the handler registered by Subscribe(). Handlers run on the reader
// thread: keep them cheap, never call back into the client from one, and
// never block (a blocked handler stalls every response on the
// connection).
//
// Failure model (matching the blocking client, which inherits it):
//   * transport errors (send/recv failed, peer closed) complete the
//     affected futures with ok=false and a message; the connection is
//     dead and connected() turns false;
//   * a typed kError response completes only its own request's future
//     (error = the code); a recoverable code leaves the connection — and
//     every other in-flight request — untouched;
//   * protocol violations (unknown request id, unexpected type, an
//     undecodable payload the reader must decode, a PAIR_RESULT sequence
//     violation) are fail-closed: the connection shuts down and every
//     pending future completes with the violation's message;
//   * a configured receive deadline (set_recv_timeout_ms) that expires
//     while responses are outstanding — including mid-frame, the
//     half-written-frame hang this deadline exists to break — completes
//     every pending future with the typed WireError::kTimedOut and closes
//     the connection (a partial frame means byte sync is gone). An idle
//     connection (no outstanding requests, no partial frame) never times
//     out, however long-lived: standing subscriptions are legitimately
//     quiet for hours.
//
// Thread-safe: any number of threads may issue requests concurrently
// (sends serialize on an internal mutex); Connect/Close must not race
// requests.

#ifndef ACTJOIN_NET_ASYNC_JOIN_CLIENT_H_
#define ACTJOIN_NET_ASYNC_JOIN_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace actjoin::net {

/// Result of a JOIN_DATASETS crossmatch (wire v5): the reassembled pair
/// stream plus the stats tail from the final chunk. `pairs` arrives
/// sorted ascending by (gid_a, gid_b) and unique — the server streams
/// the pages of one sorted sequence, and the client verifies the chunk
/// indexes are consecutive, so concatenation preserves the order.
struct CrossMatchReply {
  bool ok = false;
  WireError error = WireError::kNone;
  std::string message;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  PairChunkStats stats;
  /// How many PAIR_RESULT chunks carried the stream (>= 1 on ok).
  uint32_t num_chunks = 0;
  /// Stage breakdown from the final chunk (v7), indexed by
  /// join2::CrossMatchStage; enabled only when the request asked for a
  /// trace, counters included when the server runs stage_perf_counters.
  util::StageTrace trace;
};

class AsyncJoinClient {
 public:
  /// Untyped single-response completion: on ok, `payload` is the success
  /// response's payload for the caller to decode (`type` names it). On
  /// failure, `error` is kNone for transport-level trouble, a typed code
  /// for a kError response or the client-side kTimedOut.
  struct RawReply {
    bool ok = false;
    WireError error = WireError::kNone;
    std::string message;
    MessageType type = MessageType::kError;
    std::vector<uint8_t> payload;
  };

  struct SubscribeReply {
    bool ok = false;
    WireError error = WireError::kNone;
    std::string message;
    /// Valid on ok: the subscription id events will carry, plus the
    /// coverage figures resolved at subscribe time.
    service::SubscriptionInfo info;
  };

  /// Both run on the reader thread; see the header comment's rules.
  using EventHandler = std::function<void(const service::EventBatch&)>;
  using GapHandler = std::function<void(const EventGap&)>;

  AsyncJoinClient() = default;
  AsyncJoinClient(const AsyncJoinClient&) = delete;
  AsyncJoinClient& operator=(const AsyncJoinClient&) = delete;
  ~AsyncJoinClient() { Close(); }

  /// Blocking IPv4 connect; launches the reader. False + *error on
  /// failure. Reconnecting an errored client is allowed once no futures
  /// are outstanding.
  bool Connect(const std::string& host, uint16_t port,
               std::string* error = nullptr);
  bool connected() const { return connected_.load(std::memory_order_acquire); }

  /// Fails every in-flight request with "connection closed", stops the
  /// reader, and releases the socket. Safe to call repeatedly; must not
  /// be called from an event handler (the reader cannot join itself).
  void Close();

  /// Frames larger than this are refused client-side before sending, and
  /// inbound frames above it are protocol errors.
  size_t max_frame_bytes() const {
    return max_frame_bytes_.load(std::memory_order_relaxed);
  }
  void set_max_frame_bytes(size_t bytes) {
    max_frame_bytes_.store(bytes, std::memory_order_relaxed);
  }

  /// Receive stall deadline, milliseconds; 0 (default) disables. Armed
  /// whenever responses are outstanding or a frame is partially read; any
  /// inbound progress re-arms it.
  int recv_timeout_ms() const {
    return recv_timeout_ms_.load(std::memory_order_relaxed);
  }
  void set_recv_timeout_ms(int ms) {
    recv_timeout_ms_.store(ms, std::memory_order_relaxed);
    WakeReader();  // a reader parked without a deadline must re-arm
  }

  /// Claims the next request id (atomic; ids start at 1).
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Pipelined call: sends `frame` (already encoded, carrying
  /// `request_id`) and resolves the future when the response with that id
  /// arrives — a frame of type `expect` (ok, payload attached) or a typed
  /// kError (ok=false). The future is safe to get() from any thread.
  std::future<RawReply> Call(const std::vector<uint8_t>& frame,
                             uint64_t request_id, MessageType expect);

  /// JOIN_DATASETS variant: reassembles the PAIR_RESULT chunk stream with
  /// the same fail-closed sequence validation the blocking client always
  /// applied (consecutive chunk indexes, stable total_pairs, count check).
  std::future<CrossMatchReply> CallCrossMatch(const std::vector<uint8_t>& frame,
                                              uint64_t request_id);

  /// Registers a standing geofence query on the server (wire v6) and
  /// installs the handlers its pushed EVENT / EVENT_GAP frames route to.
  /// The handlers are installed before the returned future resolves, so
  /// no event can slip past. `on_gap` may be null (gaps dropped).
  std::future<SubscribeReply> Subscribe(uint16_t dataset_id,
                                        const service::SubscriptionSpec& spec,
                                        EventHandler on_events,
                                        GapHandler on_gap = nullptr);

  /// Retires a subscription; its handlers are dropped when the ack
  /// arrives.
  std::future<SubscribeReply> Unsubscribe(uint64_t subscription_id);

  /// Requests sent and not yet answered (streams count until their last
  /// chunk).
  size_t outstanding_requests() const;

 private:
  enum class SlotKind { kSingle, kStream, kSubscribe, kUnsubscribe };

  struct Slot {
    SlotKind kind = SlotKind::kSingle;
    MessageType expect = MessageType::kError;
    std::promise<RawReply> promise;            // kSingle
    std::promise<CrossMatchReply> stream_promise;  // kStream
    CrossMatchReply stream;                    // kStream accumulation
    uint64_t total_pairs = 0;
    uint32_t next_chunk = 0;
    std::promise<SubscribeReply> sub_promise;  // kSubscribe / kUnsubscribe
    EventHandler on_events;                    // kSubscribe
    GapHandler on_gap;                         // kSubscribe
    uint64_t unsubscribe_id = 0;               // kUnsubscribe
  };

  struct Handlers {
    EventHandler on_events;
    GapHandler on_gap;
  };

  /// Sends the frame after registering `slot` under `request_id`. On any
  /// local refusal (not connected, oversized, send error) the slot is
  /// completed with the failure; a send error additionally fails the
  /// connection (the stream position is indeterminate).
  void Dispatch(const std::vector<uint8_t>& frame, uint64_t request_id,
                std::unique_ptr<Slot> slot);

  void ReaderLoop();
  /// Routes one inbound frame. False => the connection just failed
  /// (HandleFrame already reported why) and the reader must exit.
  bool HandleFrame(const FrameHeader& header,
                   std::span<const uint8_t> payload);
  /// Completes one slot's future with ok=false, whatever its kind.
  static void CompleteFailure(Slot* slot, WireError code,
                              const std::string& message);
  /// Marks the connection dead, shuts the socket down (waking the
  /// reader), and fails every pending future and the subscription table.
  void FailConnection(WireError code, const std::string& message);
  /// Pokes the reader out of poll() so it re-evaluates the deadline
  /// arming state. Without this, a request dispatched while the reader is
  /// parked with no deadline (nothing was pending when it went to sleep)
  /// would never get its receive timeout armed against a silent server.
  void WakeReader();

  UniqueFd fd_;
  /// eventfd the reader polls alongside the socket (the wake channel for
  /// WakeReader). Created per Connect, released after the reader joins.
  UniqueFd wake_fd_;
  std::thread reader_;
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<size_t> max_frame_bytes_{kDefaultMaxFrameBytes};
  std::atomic<int> recv_timeout_ms_{0};

  std::mutex send_mu_;  // serializes SendAll (frames must not interleave)
  mutable std::mutex mu_;  // guards pending_ / subs_ / failed_ / fail_*
  std::map<uint64_t, std::unique_ptr<Slot>> pending_;
  std::map<uint64_t, Handlers> subs_;
  /// Set once by FailConnection: later Dispatch calls fail fast instead of
  /// writing into a dead socket, and a reader mid-frame completes the slot
  /// it holds with the recorded reason instead of re-registering it.
  bool failed_ = false;
  WireError fail_code_ = WireError::kNone;
  std::string fail_message_;
};

}  // namespace actjoin::net

#endif  // ACTJOIN_NET_ASYNC_JOIN_CLIENT_H_
