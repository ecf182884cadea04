// JoinServer: the Linux epoll network front-end over service::JoinService.
//
// Architecture — a small I/O thread pool, each thread owning one epoll
// instance and a disjoint set of connections (no connection is ever touched
// by two I/O threads, so connection state needs no locks):
//
//   * Thread 0 additionally owns the nonblocking listener; accepted
//     sockets are handed to a thread round-robin through a mutex-protected
//     inbox + eventfd wakeup.
//   * Reads are nonblocking and incremental: bytes accumulate per
//     connection until TryParseFrame yields a complete frame, so slow or
//     pipelining clients never stall the loop.
//   * Every admitted opcode (JOIN_BATCH, JOIN_DATASETS, the mutations,
//     SUBSCRIBE) follows one request lifecycle: admission control
//     (net::AdmissionController), decode, then a non-blocking submit to
//     the service. The completion hook runs on the service worker that
//     did the work; it encodes the response and posts it back to the
//     connection's owner thread, which writes it out. The event loop
//     itself never waits on a request.
//   * Every rejection (admission knob, queue full, shutting down) is a
//     typed ERROR response on the same connection; the connection is
//     closed only for errors that desynchronize the byte stream.
//
// PING answers from the event loop directly (a liveness probe must not sit
// behind joins), GET_METRICS answers from the service's metrics registry —
// into which the server registers its own series and counts its door
// rejects — and SHUTDOWN acks and raises a flag the embedding process
// observes via WaitShutdownRequested() — the server never tears itself
// down from inside an I/O thread.

#ifndef ACTJOIN_NET_JOIN_SERVER_H_
#define ACTJOIN_NET_JOIN_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "join2/dataset_cross_matcher.h"
#include "net/admission.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/join_service.h"
#include "service/subscription_matcher.h"
#include "util/timer.h"

namespace actjoin::net {

/// How connections map onto admission-control peer buckets. kIp groups
/// every connection from one host (a client cannot escape its bucket by
/// reconnecting); kIpPort gives each connection its own bucket — the knob
/// tests use to tell loopback clients apart, and the right choice behind
/// a NAT that folds many tenants into one IP.
enum class PeerKeyPolicy : uint8_t { kIp = 0, kIpPort };

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 => kernel-chosen ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Event-loop threads; clamped to >= 1. Loopback serving saturates on
  /// 1-2 threads — the joins, not the socket I/O, are the work.
  int io_threads = 2;
  /// Frames larger than this are a protocol error (kFrameTooLarge).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  AdmissionPolicy admission;
  PeerKeyPolicy peer_key = PeerKeyPolicy::kIp;
  /// Standing-query caps (v6). A connection may hold at most this many
  /// subscriptions; the next SUBSCRIBE answers kSubscriptionLimit.
  size_t max_subscriptions_per_connection = 64;
  /// Bound on EVENT frames queued per connection. A slow reader overflows
  /// by losing its *oldest* queued event frames (responses are never
  /// dropped), each loss coalescing into one EVENT_GAP marker per
  /// subscription that later drops widen in place while it is unsent —
  /// so the outbox stays bounded under sustained overflow and the event
  /// loop never blocks on a push channel.
  size_t event_outbox_frames = 256;
};

/// Transport-level counters (distinct from ServiceStats, which counts
/// requests): exposed for tests and ops logging.
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  uint64_t protocol_errors = 0;
  /// Push-channel delivery (v6): events enqueued to connection outboxes,
  /// and events discarded by the bounded-outbox overflow policy.
  uint64_t events_pushed = 0;
  uint64_t events_dropped = 0;
  /// EVENT_GAP markers queued by the overflow policy (v6; each marker may
  /// cover many dropped events — the count of holes, not their width).
  uint64_t gap_frames = 0;
};

class JoinServer {
 public:
  /// `service` must outlive the server and stay un-Shutdown() while the
  /// server is running (a shut-down service turns joins into typed
  /// kShuttingDown rejections, which is also fine).
  explicit JoinServer(service::JoinService* service,
                      const ServerOptions& opts = {});

  JoinServer(const JoinServer&) = delete;
  JoinServer& operator=(const JoinServer&) = delete;

  /// Stop()s if still running.
  ~JoinServer();

  /// Binds, listens, and launches the I/O threads. False + *error on bind
  /// failure. Not restartable after Stop().
  bool Start(std::string* error = nullptr);

  /// Drains in-flight requests (their responses still go out), then joins
  /// the I/O threads and closes every connection. Idempotent.
  void Stop();

  /// The bound port (after a successful Start()).
  uint16_t port() const { return port_; }
  const std::string& host() const { return opts_.host; }

  /// True once a SHUTDOWN request was received (or RequestShutdown() was
  /// called in-process). The embedding process reacts by calling Stop().
  bool shutdown_requested() const;
  void WaitShutdownRequested();
  void RequestShutdown();

  /// The service's Stats(), which include this server's admission, door
  /// reject and push series (it registers them into the service's
  /// registry).
  service::ServiceStats StatsWithAdmission() const;

  AdmissionController::Counters admission_counters() const {
    return admission_.counters();
  }
  ServerCounters counters() const;

 private:
  struct Connection;
  struct IoThread;

  void IoLoop(int t);
  void AcceptNewConnections(IoThread& io);
  /// Registers an accepted socket with this thread's epoll set.
  void AdoptConnection(IoThread& io, int cfd);
  void ProcessInbox(IoThread& io);
  /// Reads until EAGAIN, then parses and dispatches every complete frame.
  void HandleReadable(int t, IoThread& io, Connection& conn);
  void ParseFrames(int t, IoThread& io, Connection& conn);
  void DispatchFrame(int t, IoThread& io, Connection& conn,
                     const FrameHeader& header,
                     std::span<const uint8_t> payload);

  // The request lifecycle of the admitted opcodes (docs/wire_protocol.md,
  // "Request lifecycle"): Admit → decode → StartWork → submit → Settle.

  /// The door: the stopping_ early-out, the dataset check, then TryAdmit.
  /// False when the frame was already answered with a typed error.
  bool Admit(IoThread& io, Connection& conn, const FrameHeader& header,
             size_t bytes);
  /// Answers an admitted request that never started work: Refund, then a
  /// typed error.
  void RejectAdmitted(IoThread& io, Connection& conn, uint64_t request_id,
                      size_t bytes, WireError code,
                      std::string_view message = {});
  /// Queues a typed error (the message defaults to the code's name) and
  /// bumps the counter that code belongs to; a dataset reject of a
  /// `mutation` counts as a refused mutation, not a refused request.
  void Reject(IoThread& io, Connection& conn, uint64_t request_id,
              WireError code, std::string_view message = {},
              bool mutation = false);
  /// The authoritative drain check, then ++inflight. False (and rejected
  /// kShuttingDown) once Stop() has begun.
  bool StartWork(IoThread& io, Connection& conn, uint64_t request_id,
                 size_t bytes);
  /// Ends a started request, from its completion hook or from a refused
  /// submit: exactly one Release (null `refund_peer`: the request got its
  /// real reply) or Refund into `refund_peer`'s bucket (an error reply:
  /// it did no work), posts `frame` to the owner thread, then drops the
  /// in-flight count. Deliver-before-decrement is what lets Stop() drain.
  void Settle(int t, uint64_t conn_id, size_t bytes,
              const std::string* refund_peer, std::vector<uint8_t> frame);

  void HandleJoinBatch(int t, IoThread& io, Connection& conn,
                       const FrameHeader& header,
                       std::span<const uint8_t> payload);
  /// ADD_POLYGONS / REMOVE_POLYGONS / DROP_DATASET: routed through
  /// TryMutateAsync so the clone-on-write apply runs on a service worker,
  /// never the epoll loop.
  void HandleMutation(int t, IoThread& io, Connection& conn,
                      const FrameHeader& header,
                      std::span<const uint8_t> payload);
  /// JOIN_DATASETS (v5): routed through DatasetCrossMatcher::
  /// TryCrossMatchAsync. The completion hook encodes the result as a
  /// stream of PAIR_RESULT chunks and posts them, in order, to the
  /// connection's owner thread (the per-thread inbox preserves delivery
  /// order, so chunks cannot interleave or reorder). Typed rejects name
  /// the offending side.
  void HandleJoinDatasets(int t, IoThread& io, Connection& conn,
                          const FrameHeader& header,
                          std::span<const uint8_t> payload);
  /// SUBSCRIBE (v6): registers a standing geofence query with the
  /// subscription matcher, entirely on the event loop (no service work,
  /// so no StartWork/Settle). The admission bytes stay charged for the
  /// subscription's lifetime.
  void HandleSubscribe(int t, IoThread& io, Connection& conn,
                       const FrameHeader& header,
                       std::span<const uint8_t> payload);
  void HandleUnsubscribe(IoThread& io, Connection& conn,
                         const FrameHeader& header,
                         std::span<const uint8_t> payload);
  /// Appends a response and flushes as much as the socket accepts.
  void QueueResponse(IoThread& io, Connection& conn,
                     std::vector<uint8_t> frame);
  /// Appends one EVENT frame, applying the bounded-outbox overflow policy
  /// first (drop-oldest event frame + coalesced EVENT_GAP; never blocks,
  /// never drops a response frame).
  void QueueEvent(IoThread& io, Connection& conn,
                  service::EventBatch&& batch);
  /// Emits the coalesced EVENT_GAP for `sub` if overflow recorded one, so
  /// the hole is announced before that subscription's next event (or its
  /// unsubscribe ack).
  void FlushPendingGap(Connection& conn, uint64_t sub);
  /// Unregisters every subscription the connection holds and returns its
  /// admission bytes (connection teardown).
  void ReleaseSubscriptions(Connection& conn);
  /// Writes queued bytes; arms/disarms EPOLLOUT as needed. False when the
  /// connection died mid-write.
  bool FlushWrites(IoThread& io, Connection& conn);
  /// One send() of the front frame's unwritten bytes; a frame that has
  /// fully left the outbox is popped and accounted (responses sent, event
  /// depth, delivery lag). Returns send()'s result.
  ssize_t SendFront(Connection& conn);
  void CloseConnection(IoThread& io, uint64_t conn_id);
  /// Loop-exit path: gives a slow reader a short, bounded chance (blocking
  /// send with a timeout) to take responses still queued on a connection,
  /// so Stop() does not silently drop an admitted join's reply.
  void FlushPendingBlocking(Connection& conn);
  void UpdateEpollInterest(IoThread& io, Connection& conn, bool want_write);
  /// Posts a completed join response to the connection's owner thread
  /// (called from service worker threads).
  void DeliverAsync(int t, uint64_t conn_id, std::vector<uint8_t> frame);
  /// Posts a pushed event batch to the connection's owner thread (called
  /// from the service workers that ran the triggering point batch or
  /// epoch swap — the eventfd wake is the only cross-thread signal).
  void DeliverEventAsync(int t, uint64_t conn_id, service::EventBatch batch);
  void WakeThread(IoThread& io);

  service::JoinService* service_;
  ServerOptions opts_;
  AdmissionController admission_;
  /// Serves JOIN_DATASETS against the service's catalog (registers its
  /// crossmatch instruments into the service's metrics registry).
  join2::DatasetCrossMatcher matcher_;
  /// Standing geofence queries (v6). The constructor attaches this to the
  /// service (set_subscription_matcher), so join workers feed it point
  /// batches and mutations notify epoch swaps; Stop() detaches it before
  /// tearing down the loops its sinks deliver into.
  service::SubscriptionMatcher subscriptions_;

  UniqueFd listener_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<IoThread>> io_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  // joins rejected, loops still flush
  bool started_ = false;               // guarded by lifecycle_mu_
  bool stopped_ = false;
  std::mutex lifecycle_mu_;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint32_t> next_thread_{0};

  /// Requests past StartWork whose Settle has not run yet (joins,
  /// crossmatches and mutations alike).
  /// Stop() waits for this to hit zero before tearing down the threads the
  /// hooks deliver into — so the service must be draining (running or
  /// Shutdown(), which drains synchronously) when Stop() is called.
  uint64_t inflight_requests_ = 0;  // guarded by inflight_mu_
  mutable std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;

  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  /// Rejects the service never sees, counted into the service's own
  /// registry series (null when metrics are disabled): kShuttingDown once
  /// the server is stopping, and frames naming a dataset the catalog
  /// cannot serve (the header's id at the door, before admission;
  /// JOIN_DATASETS's b-side after decode) — under requests_rejected_total,
  /// or mutations_rejected_total for a mutation.
  util::Counter* rejects_shutdown_ = nullptr;
  util::Counter* rejects_unknown_dataset_ = nullptr;
  util::Counter* rejects_mutation_ = nullptr;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  /// Push-channel delivery counters (v6); see ServerCounters.
  std::atomic<uint64_t> events_pushed_{0};
  std::atomic<uint64_t> events_dropped_{0};
  /// EVENT_GAP markers queued (widening an unsent marker in place does
  /// not count again — the metric counts holes announced, not rewrites).
  std::atomic<uint64_t> gap_frames_{0};
  /// EVENT frames currently queued across every connection's outbox (the
  /// droppable ones), exported as the push-path depth gauge. Decremented
  /// wherever a frame leaves an outbox: flushed, dropped by the overflow
  /// policy, or destroyed with its connection.
  std::atomic<int64_t> event_outbox_depth_{0};
  /// Per-connection outbox dwell of fully-flushed EVENT frames; null when
  /// metrics are disabled.
  util::Histogram* event_delivery_lag_us_ = nullptr;
  /// Clock for OutFrame birth stamps (delivery-lag measurement).
  util::WallTimer uptime_timer_;
};

}  // namespace actjoin::net

#endif  // ACTJOIN_NET_JOIN_SERVER_H_
