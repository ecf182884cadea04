#include "net/join_server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "join2/cross_match_stage.h"
#include "service/trace.h"
#include "util/check.h"
#include "util/stage_trace.h"

namespace actjoin::net {

namespace {

// epoll user-data tokens. Connection ids start above the reserved ones.
constexpr uint64_t kWakeToken = 0;
constexpr uint64_t kListenerToken = 1;
constexpr uint64_t kFirstConnId = 2;

// Read-buffer compaction threshold: below this the consumed prefix just
// rides along; above it the erase is worth the memmove.
constexpr size_t kCompactThreshold = 64 * 1024;

// Cap on bytes drained from one connection per readable event. A client
// streaming flat-out must not monopolize its event loop or grow conn.in
// without bound: past the cap we stop, parse and dispatch what arrived,
// and let level-triggered epoll re-report the rest after every other
// ready connection has had its turn. Bounds the unparsed backlog at
// roughly max_frame_bytes (one partial frame) + this.
constexpr size_t kMaxReadBytesPerEvent = 256 * 1024;

// Both request kinds lap their front-end stages by one rule: admission
// covers frame entry through the admission verdict, decode everything
// after it up to the submit call — so they tile frame entry -> submit.
// The trace flag proper is decoded later, but it sits at a fixed payload
// offset (bit 0 of the request's flags byte), peeked here so only traced
// requests pay the event loop's counter reads.
util::StageLap FrontEndLap(const service::JoinService& service,
                           std::span<const uint8_t> payload,
                           size_t trace_flag_offset) {
  const bool traced = payload.size() > trace_flag_offset &&
                      (payload[trace_flag_offset] & 1) != 0;
  return util::StageLap(traced ? service.StageCounters() : nullptr);
}

WireError ToWireError(Admission verdict) {
  switch (verdict) {
    case Admission::kRateLimited:
      return WireError::kRateLimited;
    case Admission::kInFlightBytes:
      return WireError::kInFlightBytesExceeded;
    case Admission::kQueueWatermark:
      return WireError::kQueueWatermark;
    case Admission::kAdmitted:
      break;
  }
  ACT_UNREACHABLE();
}

WireError ToWireError(service::SubmitStatus status) {
  switch (status) {
    case service::SubmitStatus::kQueueFull:
      return WireError::kQueueFull;
    case service::SubmitStatus::kUnknownDataset:
      // Unreachable in practice (the door checks the dataset before
      // admission), but the mapping stays total in case the service grows
      // new door checks.
      return WireError::kUnknownDataset;
    default:
      return WireError::kShuttingDown;
  }
}

WireError ToWireError(service::MutationStatus status) {
  switch (status) {
    case service::MutationStatus::kUnknownDataset:
      return WireError::kUnknownDataset;
    case service::MutationStatus::kDropped:
      return WireError::kDatasetDropped;
    case service::MutationStatus::kInvalidMutation:
      return WireError::kInvalidMutation;
    default:
      return WireError::kShuttingDown;
  }
}

/// An ERROR frame; the message defaults to the code's name.
std::vector<uint8_t> ErrorFrame(uint64_t request_id, WireError code,
                                std::string_view message = {}) {
  return EncodeErrorFrame(request_id, code,
                          message.empty() ? ToString(code) : message);
}

/// The typed verdict for a dataset the catalog cannot serve. A tombstoned
/// id gets the more specific error: the id exists, its data was dropped —
/// retrying with the same id is pointless until a full publish resurrects
/// it.
WireError UnservableError(const service::ServiceCatalog& catalog,
                          uint16_t id) {
  return catalog.IsDropped(id) ? WireError::kDatasetDropped
                               : WireError::kUnknownDataset;
}

/// A dataset error naming the offending side of a crossmatch, so a client
/// joining two datasets knows which one to fix.
std::string SideMessage(WireError code, const char* side, uint16_t id) {
  return std::string(ToString(code)) + " (" + side + "=" +
         std::to_string(id) + ")";
}

bool IsMutation(MessageType type) {
  return type == MessageType::kAddPolygons ||
         type == MessageType::kRemovePolygons ||
         type == MessageType::kDropDataset;
}

}  // namespace

struct JoinServer::Connection {
  UniqueFd fd;
  uint64_t id = 0;
  /// Admission bucket key (per ServerOptions::peer_key), captured once at
  /// adoption: completion hooks refund into the right bucket even after
  /// the socket dies.
  std::string peer;
  /// Inbound bytes; [in_start, in.size()) is the unparsed suffix.
  std::vector<uint8_t> in;
  size_t in_start = 0;
  /// One queued outbound frame. Event frames (sub != 0) are tagged with
  /// their subscription and seq range so the overflow policy can drop
  /// them — and account the hole — without reparsing bytes; responses
  /// stay untagged and are never dropped. Gap markers (is_gap) are also
  /// undroppable, but carry the skipped range they announce so that
  /// later overflow can widen a still-unsent marker in place instead of
  /// queueing another frame — that in-place merge is what keeps the
  /// outbox bounded under sustained overflow against a stalled reader.
  struct OutFrame {
    std::vector<uint8_t> bytes;
    uint64_t sub = 0;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    bool is_gap = false;
    /// Enqueue time (server uptime micros) of event frames, for the
    /// delivery-lag histogram; 0 on responses and gap markers.
    double born_us = 0;
  };
  /// Outbound frames; out_offset is the flushed prefix of out.front().
  std::deque<OutFrame> out;
  size_t out_offset = 0;
  bool want_write = false;       // EPOLLOUT currently armed
  bool close_after_flush = false;  // protocol error: drain writes, then close
  bool dead = false;             // fatal I/O error: close at next safe point

  /// Standing subscriptions held by this connection, with the admission
  /// bytes each one keeps charged until unsubscribe / close.
  struct SubEntry {
    uint64_t id = 0;
    size_t admitted_bytes = 0;
  };
  std::vector<SubEntry> subs;
  /// EVENT frames currently queued in `out` (the droppable ones).
  size_t event_frames_queued = 0;
  /// Seq ranges the overflow policy dropped, per subscription, not yet
  /// announced: coalesced here and flushed as one EVENT_GAP ordered
  /// before that subscription's queued events with newer seqs. The flush
  /// widens a still-unsent queued marker in place when the ranges are
  /// contiguous, so repeated overflow cannot fill the outbox with gap
  /// markers.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> pending_gaps;
};

struct JoinServer::IoThread {
  UniqueFd epoll;
  UniqueFd wake;  // eventfd
  std::thread thread;
  /// Owned exclusively by this thread; only the inbox crosses threads.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  std::mutex inbox_mu;
  std::vector<int> pending_accepts;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> pending_responses;
  /// Pushed event batches awaiting adoption by this thread's loop (the
  /// subscription matcher's sinks run on service workers; only the owner
  /// thread may touch a connection's outbox).
  std::vector<std::pair<uint64_t, service::EventBatch>> pending_events;
};

JoinServer::JoinServer(service::JoinService* service,
                       const ServerOptions& opts)
    : service_(service),
      opts_(opts),
      admission_(opts.admission, service->options().queue_capacity),
      matcher_(service),
      subscriptions_(&service->catalog()),
      next_conn_id_(kFirstConnId) {
  ACT_CHECK_MSG(service_ != nullptr, "JoinServer requires a JoinService");
  if (opts_.io_threads < 1) opts_.io_threads = 1;
  if (opts_.max_frame_bytes < kFrameHeaderBytes) {
    opts_.max_frame_bytes = kFrameHeaderBytes;
  }
  if (opts_.event_outbox_frames < 1) opts_.event_outbox_frames = 1;
  // From here on, join workers probe the matcher after every point batch
  // and mutations notify it of epoch swaps.
  service_->set_subscription_matcher(&subscriptions_);
  if (util::MetricsRegistry* registry = service_->metrics()) {
    rejects_shutdown_ = registry->GetCounter("requests_rejected_total", "",
                                             "reason=\"shutdown\"");
    rejects_unknown_dataset_ = registry->GetCounter(
        "requests_rejected_total", "", "reason=\"unknown_dataset\"");
    rejects_mutation_ = registry->GetCounter("mutations_rejected_total");
    registry->RegisterCounterFn(
        "server_connections_accepted_total", "Sockets accepted", "", [this] {
          return connections_accepted_.load(std::memory_order_relaxed);
        });
    registry->RegisterCounterFn(
        "server_connections_closed_total", "Sockets closed", "", [this] {
          return connections_closed_.load(std::memory_order_relaxed);
        });
    registry->RegisterCounterFn(
        "server_frames_received_total", "Well-framed requests received", "",
        [this] { return frames_received_.load(std::memory_order_relaxed); });
    registry->RegisterCounterFn(
        "server_responses_sent_total", "Response frames fully flushed", "",
        [this] { return responses_sent_.load(std::memory_order_relaxed); });
    registry->RegisterCounterFn(
        "server_protocol_errors_total",
        "Malformed frames, unknown types, oversized payloads", "",
        [this] { return protocol_errors_.load(std::memory_order_relaxed); });
    registry->RegisterCounterFn(
        "server_events_pushed_total",
        "Subscription events enqueued to connection outboxes", "",
        [this] { return events_pushed_.load(std::memory_order_relaxed); });
    registry->RegisterCounterFn(
        "server_events_dropped_total",
        "Subscription events discarded by the bounded-outbox overflow "
        "policy",
        "",
        [this] { return events_dropped_.load(std::memory_order_relaxed); });
    registry->RegisterCounterFn(
        "server_event_gap_frames_total",
        "EVENT_GAP markers queued by the overflow policy (holes announced, "
        "not events skipped)",
        "", [this] { return gap_frames_.load(std::memory_order_relaxed); });
    registry->RegisterGaugeFn(
        "server_event_outbox_frames",
        "EVENT frames queued across connection outboxes (the droppable "
        "push-path depth)",
        "", [this] {
          return static_cast<double>(
              event_outbox_depth_.load(std::memory_order_relaxed));
        });
    event_delivery_lag_us_ = registry->GetHistogram(
        "server_event_delivery_lag_us",
        "Outbox dwell of fully-flushed EVENT frames (enqueue to last byte "
        "written)");
    registry->RegisterGaugeFn(
        "server_outstanding_requests",
        "Requests admitted but not yet answered (summed over connections)",
        "", [this] {
          std::lock_guard<std::mutex> lock(inflight_mu_);
          return static_cast<double>(inflight_requests_);
        });
    subscriptions_.RegisterMetrics(registry);
    admission_.RegisterMetrics(registry);
  }
}

JoinServer::~JoinServer() { Stop(); }

bool JoinServer::Start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    if (error != nullptr) *error = "JoinServer already started";
    return false;
  }
  listener_ = ListenTcp(opts_.host, opts_.port, /*backlog=*/128, &port_,
                        error);
  if (!listener_.valid()) return false;

  io_.reserve(static_cast<size_t>(opts_.io_threads));
  for (int t = 0; t < opts_.io_threads; ++t) {
    auto io = std::make_unique<IoThread>();
    io->epoll = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
    io->wake = UniqueFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!io->epoll.valid() || !io->wake.valid()) {
      if (error != nullptr) *error = ErrnoMessage("epoll_create1/eventfd");
      io_.clear();
      listener_.Reset();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    ACT_CHECK(::epoll_ctl(io->epoll.get(), EPOLL_CTL_ADD, io->wake.get(),
                          &ev) == 0);
    if (t == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenerToken;
      ACT_CHECK(::epoll_ctl(io->epoll.get(), EPOLL_CTL_ADD, listener_.get(),
                            &lev) == 0);
    }
    io_.push_back(std::move(io));
  }

  running_.store(true, std::memory_order_release);
  started_ = true;
  for (int t = 0; t < opts_.io_threads; ++t) {
    io_[static_cast<size_t>(t)]->thread = std::thread([this, t] { IoLoop(t); });
  }
  return true;
}

void JoinServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // Detach the subscription matcher first: once the drain begins, no
  // worker should start feeding events into loops that are about to die.
  // (Workers already past the acquire-load finish against the matcher,
  // which outlives Stop(); their sinks post into inboxes that also
  // outlive Stop() — the frames are simply never written.)
  service_->set_subscription_matcher(nullptr);
  // Phase 1: refuse new requests but keep the loops flushing, so every
  // admitted request still gets its response on the wire. stopping_ flips
  // under inflight_mu_: StartWork checks it under the same mutex when it
  // increments, so every request that passed the check is already
  // counted by the time the wait below can observe zero — no admission
  // can slip past the drain and run its hook on a destroyed server.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [&] { return inflight_requests_ == 0; });
  }
  // Phase 2: tear down the event loops.
  running_.store(false, std::memory_order_release);
  for (auto& io : io_) WakeThread(*io);
  for (auto& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }
  for (auto& io : io_) {
    connections_closed_.fetch_add(io->conns.size(),
                                  std::memory_order_relaxed);
    io->conns.clear();
    // Sockets accepted but never adopted (still in the inbox when their
    // thread exited) must be closed here or the raw fds leak.
    std::lock_guard<std::mutex> lock(io->inbox_mu);
    for (int fd : io->pending_accepts) ::close(fd);
    io->pending_accepts.clear();
    io->pending_responses.clear();
    io->pending_events.clear();
  }
  listener_.Reset();
}

bool JoinServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  return shutdown_requested_;
}

void JoinServer::WaitShutdownRequested() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

void JoinServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

service::ServiceStats JoinServer::StatsWithAdmission() const {
  return service_->Stats();
}

ServerCounters JoinServer::counters() const {
  ServerCounters out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  out.frames_received = frames_received_.load(std::memory_order_relaxed);
  out.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.events_pushed = events_pushed_.load(std::memory_order_relaxed);
  out.events_dropped = events_dropped_.load(std::memory_order_relaxed);
  out.gap_frames = gap_frames_.load(std::memory_order_relaxed);
  return out;
}

void JoinServer::WakeThread(IoThread& io) {
  uint64_t one = 1;
  // The eventfd counter saturates rather than blocks; a failed write can
  // only mean a pending wake already exists.
  [[maybe_unused]] ssize_t n = ::write(io.wake.get(), &one, sizeof(one));
}

void JoinServer::IoLoop(int t) {
  IoThread& io = *io_[static_cast<size_t>(t)];
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(io.epoll.get(), events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: tear down
    }
    for (int i = 0; i < n; ++i) {
      uint64_t token = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (token == kWakeToken) {
        uint64_t drained;
        while (::read(io.wake.get(), &drained, sizeof(drained)) > 0) {
        }
        ProcessInbox(io);
        continue;
      }
      if (token == kListenerToken) {
        AcceptNewConnections(io);
        continue;
      }
      auto it = io.conns.find(token);
      if (it == io.conns.end()) continue;  // closed earlier in this batch
      Connection& conn = *it->second;
      if (ev & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(io, token);
        continue;
      }
      if (ev & EPOLLIN) HandleReadable(t, io, conn);
      // HandleReadable may have closed it; re-find before touching writes.
      auto it2 = io.conns.find(token);
      if (it2 == io.conns.end()) continue;
      if (ev & EPOLLOUT) {
        Connection& c = *it2->second;
        FlushWrites(io, c);
        if (c.dead || (c.close_after_flush && c.out.empty())) {
          CloseConnection(io, token);
        }
      }
    }
  }
  // Deliver any responses the final inbox wake posted, then give slow
  // readers a bounded chance at bytes the nonblocking path could not
  // write (an admitted join's response should not die with the loop).
  ProcessInbox(io);
  for (auto& [id, conn] : io.conns) {
    FlushPendingBlocking(*conn);
    // Whatever the bounded flush could not deliver dies with the
    // connection; keep the push-path depth gauge honest.
    event_outbox_depth_.fetch_sub(
        static_cast<int64_t>(conn->event_frames_queued),
        std::memory_order_relaxed);
  }
  connections_closed_.fetch_add(io.conns.size(), std::memory_order_relaxed);
  io.conns.clear();
}

void JoinServer::FlushPendingBlocking(Connection& conn) {
  if (conn.out.empty() || conn.dead) return;
  int flags = ::fcntl(conn.fd.get(), F_GETFL, 0);
  if (flags >= 0) ::fcntl(conn.fd.get(), F_SETFL, flags & ~O_NONBLOCK);
  timeval timeout{/*tv_sec=*/1, /*tv_usec=*/0};
  ::setsockopt(conn.fd.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout,
               sizeof(timeout));
  while (!conn.out.empty()) {
    ssize_t w = SendFront(conn);
    if (w > 0 || (w < 0 && errno == EINTR)) continue;
    return;  // timed out or the peer is gone: best effort is over
  }
}

void JoinServer::AdoptConnection(IoThread& io, int cfd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = UniqueFd(cfd);
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->peer =
      PeerAddress(conn->fd.get(), opts_.peer_key == PeerKeyPolicy::kIpPort);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  ACT_CHECK(::epoll_ctl(io.epoll.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) ==
            0);
  io.conns.emplace(conn->id, std::move(conn));
}

void JoinServer::AcceptNewConnections(IoThread& io) {
  while (true) {
    int cfd = ::accept4(listener_.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    uint32_t target = next_thread_.fetch_add(1, std::memory_order_relaxed) %
                      static_cast<uint32_t>(io_.size());
    if (target == 0) {
      // The acceptor thread adopts directly — no inbox round-trip.
      AdoptConnection(io, cfd);
    } else {
      IoThread& dest = *io_[target];
      {
        std::lock_guard<std::mutex> lock(dest.inbox_mu);
        dest.pending_accepts.push_back(cfd);
      }
      WakeThread(dest);
    }
  }
}

void JoinServer::ProcessInbox(IoThread& io) {
  std::vector<int> accepts;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> responses;
  std::vector<std::pair<uint64_t, service::EventBatch>> events;
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    accepts.swap(io.pending_accepts);
    responses.swap(io.pending_responses);
    events.swap(io.pending_events);
  }
  for (int cfd : accepts) AdoptConnection(io, cfd);
  for (auto& [conn_id, frame] : responses) {
    auto it = io.conns.find(conn_id);
    if (it == io.conns.end()) continue;  // client went away; drop the reply
    Connection& conn = *it->second;
    QueueResponse(io, conn, std::move(frame));
    if (conn.dead || (conn.close_after_flush && conn.out.empty())) {
      CloseConnection(io, conn_id);
    }
  }
  for (auto& [conn_id, batch] : events) {
    auto it = io.conns.find(conn_id);
    if (it == io.conns.end()) continue;  // connection gone; events die too
    Connection& conn = *it->second;
    QueueEvent(io, conn, std::move(batch));
    if (conn.dead) CloseConnection(io, conn_id);
  }
}

void JoinServer::HandleReadable(int t, IoThread& io, Connection& conn) {
  uint8_t buf[64 * 1024];
  bool peer_closed = false;
  size_t drained = 0;
  while (drained < kMaxReadBytesPerEvent) {
    ssize_t r = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (r > 0) {
      conn.in.insert(conn.in.end(), buf, buf + r);
      drained += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;
    break;
  }
  if (!conn.dead) ParseFrames(t, io, conn);
  if (conn.dead || peer_closed ||
      (conn.close_after_flush && conn.out.empty())) {
    CloseConnection(io, conn.id);
  }
}

void JoinServer::ParseFrames(int t, IoThread& io, Connection& conn) {
  while (!conn.dead && !conn.close_after_flush) {
    std::span<const uint8_t> avail(conn.in.data() + conn.in_start,
                                   conn.in.size() - conn.in_start);
    FrameHeader header;
    size_t frame_bytes = 0;
    WireError err = WireError::kNone;
    FrameParse verdict = TryParseFrame(avail, opts_.max_frame_bytes, &header,
                                       &frame_bytes, &err);
    if (verdict == FrameParse::kNeedMoreData) break;
    if (verdict == FrameParse::kProtocolError) {
      // Byte sync is lost: answer typed, then close once it is flushed.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(io, conn, ErrorFrame(header.request_id, err));
      conn.close_after_flush = true;
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    DispatchFrame(t, io, conn, header,
                  avail.subspan(kFrameHeaderBytes, header.payload_bytes));
    conn.in_start += frame_bytes;
  }
  if (conn.in_start == conn.in.size()) {
    conn.in.clear();
    conn.in_start = 0;
  } else if (conn.in_start > kCompactThreshold) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<ptrdiff_t>(conn.in_start));
    conn.in_start = 0;
  }
}

void JoinServer::DispatchFrame(int t, IoThread& io, Connection& conn,
                               const FrameHeader& header,
                               std::span<const uint8_t> payload) {
  switch (header.type) {
    case MessageType::kPing:
      QueueResponse(io, conn,
                    EncodeEmptyFrame(MessageType::kPong, header.request_id));
      return;
    case MessageType::kShutdown:
      QueueResponse(io, conn, EncodeEmptyFrame(MessageType::kShutdownAck,
                                               header.request_id));
      RequestShutdown();
      return;
    case MessageType::kListDatasets:
      // Catalog enumeration is a pointer walk + per-dataset epoch reads:
      // cheap enough to answer from the event loop, like PING.
      QueueResponse(io, conn,
                    EncodeDatasetListFrame(header.request_id,
                                           service_->catalog().List()));
      return;
    case MessageType::kGetMetrics: {
      MetricsFormat format;
      if (!DecodeGetMetrics(payload, &format)) {
        Reject(io, conn, header.request_id, WireError::kMalformedPayload);
        return;
      }
      // Collection walks registered callbacks under the registry mutex —
      // bounded by instrument count, not data size — so it is answered
      // from the event loop like LIST_DATASETS. A service built with
      // enable_metrics=false answers with an empty exposition rather than
      // an error: scrapers should not have to special-case that config.
      util::MetricsRegistry* registry = service_->metrics();
      if (format == MetricsFormat::kText) {
        QueueResponse(io, conn,
                      EncodeMetricsTextFrame(
                          header.request_id,
                          registry != nullptr ? registry->RenderPrometheus()
                                              : std::string()));
      } else {
        MetricsReport report;
        if (registry != nullptr) {
          report = BuildMetricsReport(*registry, &service_->slow_queries());
        }
        QueueResponse(io, conn,
                      EncodeMetricsReportFrame(header.request_id, report));
      }
      return;
    }
    case MessageType::kJoinBatch:
      HandleJoinBatch(t, io, conn, header, payload);
      return;
    case MessageType::kJoinDatasets:
      HandleJoinDatasets(t, io, conn, header, payload);
      return;
    case MessageType::kAddPolygons:
    case MessageType::kRemovePolygons:
    case MessageType::kDropDataset:
      HandleMutation(t, io, conn, header, payload);
      return;
    case MessageType::kSubscribe:
      HandleSubscribe(t, io, conn, header, payload);
      return;
    case MessageType::kUnsubscribe:
      HandleUnsubscribe(io, conn, header, payload);
      return;
    default:
      // Framing is intact, only the type is unknown: typed error, keep the
      // connection (a newer client may mix in messages we don't speak).
      Reject(io, conn, header.request_id, WireError::kUnknownType);
      return;
  }
}

// The request lifecycle (docs/wire_protocol.md, "Request lifecycle") has
// one refund rule: a request answered with an error did no work and gets
// its rate token and bytes back (Refund); one answered with its real reply
// Releases its bytes. An accepted subscription is the one exception: its
// bytes stay charged until unsubscribe / close.

bool JoinServer::Admit(IoThread& io, Connection& conn,
                       const FrameHeader& header, size_t bytes) {
  // Load shedding comes first, and it only needs the payload *size*:
  // a rejected request must cost O(1), not an O(payload) decode.
  if (stopping_.load(std::memory_order_acquire)) {
    Reject(io, conn, header.request_id, WireError::kShuttingDown);
    return false;
  }
  // Unknown (or offline: reserved id with no loadable snapshot) datasets
  // are knowable from the header alone — reject before the admission
  // knobs so the bounce costs no rate token, and before the decode so it
  // costs O(1). Ids and snapshots are assigned-only, so a positive check
  // cannot be invalidated later. A mutation only needs an assigned, live
  // id: anything subtler (an offline snapshot, a drop racing this frame)
  // is re-checked by the service, whose typed verdict wins.
  const service::ServiceCatalog& catalog = service_->catalog();
  const uint16_t id = header.dataset_id;
  const bool open = IsMutation(header.type)
                        ? catalog.Contains(id) && !catalog.IsDropped(id)
                        : catalog.Servable(id);
  if (!open) {
    WireError code = UnservableError(catalog, id);
    Reject(io, conn, header.request_id, code,
           header.type == MessageType::kJoinDatasets
               ? SideMessage(code, "dataset_a", id)
               : std::string(),
           IsMutation(header.type));
    return false;
  }
  Admission verdict =
      admission_.TryAdmit(bytes, service_->QueueDepth(), conn.peer);
  if (verdict == Admission::kAdmitted) return true;
  Reject(io, conn, header.request_id, ToWireError(verdict));
  return false;
}

void JoinServer::RejectAdmitted(IoThread& io, Connection& conn,
                                uint64_t request_id, size_t bytes,
                                WireError code, std::string_view message) {
  admission_.Refund(bytes, conn.peer);
  Reject(io, conn, request_id, code, message);
}

void JoinServer::Reject(IoThread& io, Connection& conn, uint64_t request_id,
                        WireError code, std::string_view message,
                        bool mutation) {
  util::Counter* reason = nullptr;
  switch (code) {
    case WireError::kShuttingDown:
      reason = rejects_shutdown_;
      break;
    case WireError::kUnknownDataset:
    case WireError::kDatasetDropped:
      // A refused mutation is not a refused join (see ServiceStats).
      reason = mutation ? rejects_mutation_ : rejects_unknown_dataset_;
      break;
    case WireError::kMalformedPayload:
    case WireError::kUnknownType:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  if (reason != nullptr) reason->Inc();
  QueueResponse(io, conn, ErrorFrame(request_id, code, message));
}

bool JoinServer::StartWork(IoThread& io, Connection& conn,
                           uint64_t request_id, size_t bytes) {
  {
    // The authoritative stopping check: under the same mutex Stop() uses
    // to flip stopping_, so check-then-increment is atomic against the
    // drain (Admit's relaxed check is just an early out).
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (!stopping_.load(std::memory_order_acquire)) {
      ++inflight_requests_;
      return true;
    }
  }
  RejectAdmitted(io, conn, request_id, bytes, WireError::kShuttingDown);
  return false;
}

void JoinServer::Settle(int t, uint64_t conn_id, size_t bytes,
                        const std::string* refund_peer,
                        std::vector<uint8_t> frame) {
  if (refund_peer != nullptr) {
    admission_.Refund(bytes, *refund_peer);
  } else {
    admission_.Release(bytes);
  }
  DeliverAsync(t, conn_id, std::move(frame));
  {
    // Notify under the lock: Stop() may destroy this condvar the moment
    // its wait observes zero, so the notify must complete before the
    // waiter can acquire the mutex.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_requests_;
    inflight_cv_.notify_all();
  }
}

void JoinServer::HandleJoinBatch(int t, IoThread& io, Connection& conn,
                                 const FrameHeader& header,
                                 std::span<const uint8_t> payload) {
  util::StageLap lap = FrontEndLap(*service_, payload, /*flags byte=*/1);
  const size_t bytes = payload.size();
  if (!Admit(io, conn, header, bytes)) return;
  const util::StageSplit admission = lap.Lap();

  service::QueryBatch batch;
  if (!DecodeQueryBatch(payload, &batch)) {
    RejectAdmitted(io, conn, header.request_id, bytes,
                   WireError::kMalformedPayload);
    return;
  }
  if (!StartWork(io, conn, header.request_id, bytes)) return;
  const uint64_t request_id = header.request_id;
  batch.dataset_id = header.dataset_id;
  // The wire request id doubles as the trace id so a slow-query entry or
  // inline stage breakdown is joinable back to the client's own request.
  batch.trace_id = header.request_id;
  const util::StageSplit decode = lap.Lap();
  service::SubmitStatus status = service_->TrySubmitAsync(
      std::move(batch),
      // Runs on the service worker that executed the join.
      [this, t, conn_id = conn.id, request_id, bytes, admission,
       decode](service::JoinResult result) {
        util::StageTrace& trace = result.trace;
        if (trace.enabled) {
          // The service fills queue/decompose/probe/merge; the server owns
          // the stages on either side of the submit boundary.
          trace.Charge(service::TraceStage::kAdmission, admission);
          trace.Charge(service::TraceStage::kDecode, decode);
          if (trace.counters_enabled) {
            service_->RecordStageCounters(service::TraceStage::kAdmission,
                                          admission.counters);
            service_->RecordStageCounters(service::TraceStage::kDecode,
                                          decode.counters);
          }
        }
        // This hook runs on the worker that executed the join, so the
        // worker's own counter group attributes the response encode.
        util::StageLap respond_lap(service_->StageCounters());
        std::vector<uint8_t> frame = EncodeJoinResultFrame(request_id, result);
        const util::StageSplit respond = respond_lap.Lap();
        if (respond_lap.counting()) {
          service_->RecordStageCounters(service::TraceStage::kRespond,
                                        respond.counters);
        }
        if (trace.enabled) {
          PatchLastStage(&frame, respond.us,
                         trace.counters_enabled ? &respond.counters : nullptr);
        }
        Settle(t, conn_id, bytes, nullptr, std::move(frame));
      });
  if (status != service::SubmitStatus::kAccepted) {
    Settle(t, conn.id, bytes, &conn.peer,
           ErrorFrame(request_id, ToWireError(status)));
  }
}

namespace {

/// Splits a finished crossmatch into PAIR_RESULT frames. Exactly one
/// last-flagged chunk even for an empty result; pairs keep their sorted
/// order, cut at page boundaries.
std::vector<std::vector<uint8_t>> EncodePairChunks(
    uint64_t request_id, const join2::CrossMatchOutcome& outcome,
    uint32_t page_size) {
  uint32_t page = page_size == 0 ? kDefaultPairPageSize : page_size;
  page = std::min(page, kMaxPairPageSize);
  const uint64_t total = outcome.pairs.size();
  const uint64_t num_chunks = total == 0 ? 1 : (total + page - 1) / page;
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    PairChunk chunk;
    chunk.chunk_index = static_cast<uint32_t>(c);
    chunk.last = c + 1 == num_chunks;
    chunk.total_pairs = total;
    const uint64_t lo = c * page;
    const uint64_t hi = std::min(total, lo + page);
    chunk.pairs.assign(outcome.pairs.begin() + static_cast<ptrdiff_t>(lo),
                       outcome.pairs.begin() + static_cast<ptrdiff_t>(hi));
    if (chunk.last) {
      // The trace section rides the last chunk (stream stage still zero; the
      // caller patches it after timing the encode+post of the stream).
      chunk.trace = outcome.trace;
      chunk.stats = {.candidate_pairs = outcome.stats.candidate_pairs,
                     .refined_pairs = outcome.stats.refined_pairs,
                     .pruned_pairs = outcome.stats.pruned_pairs,
                     .max_depth = outcome.stats.max_depth,
                     .epoch_a = outcome.epoch_a,
                     .epoch_b = outcome.epoch_b,
                     .service_us = outcome.service_us,
                     .queue_wait_us = outcome.queue_wait_us};
    }
    frames.push_back(EncodePairChunkFrame(request_id, chunk));
  }
  return frames;
}

}  // namespace

void JoinServer::HandleJoinDatasets(int t, IoThread& io, Connection& conn,
                                    const FrameHeader& header,
                                    std::span<const uint8_t> payload) {
  util::StageLap lap = FrontEndLap(*service_, payload, /*flags byte=*/3);
  const size_t bytes = payload.size();
  if (!Admit(io, conn, header, bytes)) return;
  const util::StageSplit admission = lap.Lap();
  JoinDatasetsRequest wire_req;
  if (!DecodeJoinDatasets(payload, &wire_req)) {
    RejectAdmitted(io, conn, header.request_id, bytes,
                   WireError::kMalformedPayload);
    return;
  }
  // The b-side needs the decoded payload, so its check lands after
  // admission, typed with the side named. The matcher re-validates both
  // sides on the worker — that verdict, not this early out, decides races
  // with in-queue drops.
  if (!service_->catalog().Servable(wire_req.dataset_b)) {
    WireError code = UnservableError(service_->catalog(), wire_req.dataset_b);
    RejectAdmitted(io, conn, header.request_id, bytes, code,
                   SideMessage(code, "dataset_b", wire_req.dataset_b));
    return;
  }
  if (!StartWork(io, conn, header.request_id, bytes)) return;

  const uint64_t request_id = header.request_id;
  const uint16_t dataset_a = header.dataset_id;
  join2::CrossMatchRequest req;
  req.dataset_a = dataset_a;
  req.dataset_b = wire_req.dataset_b;
  req.mode = static_cast<join2::CrossMatchMode>(wire_req.mode);
  req.request_id = request_id;
  req.trace = wire_req.trace;
  const uint32_t page_size = wire_req.page_size;
  const util::StageSplit decode = lap.Lap();
  service::SubmitStatus status = matcher_.TryCrossMatchAsync(
      req,
      // Runs on the service worker that executed the crossmatch. Chunks
      // are posted one DeliverAsync at a time: the owner thread's inbox
      // is FIFO, so the stream arrives in order with nothing interleaved
      // between chunks of one response.
      [this, t, conn_id = conn.id, peer = conn.peer, request_id, bytes,
       dataset_a, page_size, admission,
       decode](join2::CrossMatchOutcome outcome) {
        if (outcome.status != join2::CrossMatchStatus::kOk) {
          WireError code =
              outcome.status == join2::CrossMatchStatus::kDatasetDropped
                  ? WireError::kDatasetDropped
                  : WireError::kUnknownDataset;
          Settle(t, conn_id, bytes, &peer,
                 ErrorFrame(request_id, code,
                            SideMessage(code,
                                        outcome.offending_dataset == dataset_a
                                            ? "dataset_a"
                                            : "dataset_b",
                                        outcome.offending_dataset)));
          return;
        }
        util::StageTrace& trace = outcome.trace;
        if (trace.enabled) {
          // The matcher filled queue/pin/descend/refine; the front-end
          // owns the stages on either side of the submit boundary.
          trace.Charge(join2::CrossMatchStage::kAdmission, admission);
          trace.Charge(join2::CrossMatchStage::kDecode, decode);
        }
        // The stream stage times the chunk encode + the posts to the
        // event loop — the cost of shipping the result — and, like the
        // JOIN_BATCH respond stage, is patched into the frame that carries
        // it after the fact (all chunks but the last are posted before
        // the lap, so their cost is inside).
        util::StageLap stream_lap(
            trace.counters_enabled ? service_->StageCounters() : nullptr);
        std::vector<std::vector<uint8_t>> frames =
            EncodePairChunks(request_id, outcome, page_size);
        for (size_t i = 0; i + 1 < frames.size(); ++i) {
          DeliverAsync(t, conn_id, std::move(frames[i]));
        }
        const util::StageSplit stream = stream_lap.Lap();
        if (trace.enabled) {
          PatchLastStage(&frames.back(), stream.us,
                         trace.counters_enabled ? &stream.counters : nullptr);
        }
        Settle(t, conn_id, bytes, nullptr, std::move(frames.back()));
      });
  if (status != service::SubmitStatus::kAccepted) {
    Settle(t, conn.id, bytes, &conn.peer,
           ErrorFrame(request_id, ToWireError(status)));
  }
}

void JoinServer::HandleMutation(int t, IoThread& io, Connection& conn,
                                const FrameHeader& header,
                                std::span<const uint8_t> payload) {
  const size_t bytes = payload.size();
  if (!Admit(io, conn, header, bytes)) return;
  std::vector<geom::Polygon> add;
  std::vector<uint32_t> remove;
  bool decoded = true;
  switch (header.type) {
    case MessageType::kAddPolygons:
      decoded = DecodeAddPolygons(payload, &add);
      break;
    case MessageType::kRemovePolygons:
      decoded = DecodeRemovePolygons(payload, &remove);
      break;
    default:  // kDropDataset carries no payload
      decoded = payload.empty();
      break;
  }
  if (!decoded) {
    RejectAdmitted(io, conn, header.request_id, bytes,
                   WireError::kMalformedPayload);
    return;
  }
  if (!StartWork(io, conn, header.request_id, bytes)) return;

  const uint64_t request_id = header.request_id;
  const uint16_t dataset_id = header.dataset_id;
  const MessageType op = header.type;
  // The apply itself — clone-on-write of the dataset's trie — takes
  // milliseconds, far too long for the epoll loop: it runs on a service
  // worker via the mutation queue.
  service::SubmitStatus status = service_->TryMutateAsync(
      dataset_id,
      [this, t, conn_id = conn.id, peer = conn.peer, request_id, bytes,
       dataset_id, op, add = std::move(add),
       remove = std::move(remove)]() mutable {
        service::MutationResult r;
        switch (op) {
          case MessageType::kAddPolygons:
            r = service_->AddPolygons(dataset_id, std::move(add));
            break;
          case MessageType::kRemovePolygons:
            r = service_->RemovePolygons(dataset_id, std::move(remove));
            break;
          default:
            r = service_->DropDataset(dataset_id);
            break;
        }
        if (r.status != service::MutationStatus::kApplied) {
          Settle(t, conn_id, bytes, &peer,
                 ErrorFrame(request_id, ToWireError(r.status)));
          return;
        }
        MutationAck ack;
        ack.op = op;
        ack.epoch = r.epoch;
        ack.num_polygons = r.num_polygons;
        ack.first_id = r.first_id;
        Settle(t, conn_id, bytes, nullptr,
               EncodeMutateResultFrame(request_id, ack));
      });
  if (status != service::SubmitStatus::kAccepted) {
    Settle(t, conn.id, bytes, &conn.peer,
           ErrorFrame(request_id, ToWireError(status)));
  }
}

void JoinServer::HandleSubscribe(int t, IoThread& io, Connection& conn,
                                 const FrameHeader& header,
                                 std::span<const uint8_t> payload) {
  const size_t bytes = payload.size();
  if (!Admit(io, conn, header, bytes)) return;
  service::SubscriptionSpec spec;
  if (!DecodeSubscribe(payload, &spec)) {
    RejectAdmitted(io, conn, header.request_id, bytes,
                   WireError::kMalformedPayload);
    return;
  }
  if (conn.subs.size() >= opts_.max_subscriptions_per_connection) {
    RejectAdmitted(io, conn, header.request_id, bytes,
                   WireError::kSubscriptionLimit);
    return;
  }
  const uint64_t conn_id = conn.id;
  std::optional<service::SubscriptionInfo> info = subscriptions_.Add(
      header.dataset_id, std::move(spec),
      // Runs on the service worker that computed the transition; the
      // inbox + eventfd wake is the only cross-thread traffic.
      [this, t, conn_id](service::EventBatch&& batch) {
        DeliverEventAsync(t, conn_id, std::move(batch));
      });
  if (!info.has_value()) {
    // Spec content the matcher refuses (polygon ids out of range, an
    // empty id list) — or a drop that raced the door's Servable check.
    RejectAdmitted(io, conn, header.request_id, bytes,
                   service_->catalog().Servable(header.dataset_id)
                       ? WireError::kMalformedPayload
                       : WireError::kDatasetDropped);
    return;
  }
  // An accepted subscription keeps its admission bytes charged for its
  // whole lifetime: a standing query holds index coverage and an outbox
  // lane, so it holds admission too (released on unsubscribe / close).
  conn.subs.push_back({info->id, bytes});
  QueueResponse(io, conn,
                EncodeSubscriptionResultFrame(header.request_id, *info));
}

void JoinServer::HandleUnsubscribe(IoThread& io, Connection& conn,
                                   const FrameHeader& header,
                                   std::span<const uint8_t> payload) {
  uint64_t sub_id = 0;
  if (!DecodeUnsubscribe(payload, &sub_id)) {
    Reject(io, conn, header.request_id, WireError::kMalformedPayload);
    return;
  }
  auto it = std::find_if(
      conn.subs.begin(), conn.subs.end(),
      [&](const Connection::SubEntry& e) { return e.id == sub_id; });
  if (it == conn.subs.end()) {
    // Unknown — or another connection's: a connection may only retire
    // subscriptions it opened. Recoverable either way.
    Reject(io, conn, header.request_id, WireError::kUnknownSubscription);
    return;
  }
  subscriptions_.Remove(sub_id);
  admission_.Release(it->admitted_bytes);
  conn.subs.erase(it);
  // Announce any hole overflow carved before the ack; the ack echoes the
  // id with the figures zeroed, and nothing for this id follows it.
  FlushPendingGap(conn, sub_id);
  service::SubscriptionInfo info;
  info.id = sub_id;
  QueueResponse(io, conn,
                EncodeSubscriptionResultFrame(header.request_id, info));
}

void JoinServer::QueueResponse(IoThread& io, Connection& conn,
                               std::vector<uint8_t> frame) {
  Connection::OutFrame out;
  out.bytes = std::move(frame);
  conn.out.push_back(std::move(out));
  FlushWrites(io, conn);
}

void JoinServer::FlushPendingGap(Connection& conn, uint64_t sub) {
  auto it = conn.pending_gaps.find(sub);
  if (it == conn.pending_gaps.end()) return;
  EventGap gap;
  gap.subscription_id = sub;
  gap.first_skipped_seq = it->second.first;
  gap.last_skipped_seq = it->second.second;
  conn.pending_gaps.erase(it);
  // Frames whose bytes have started onto the wire are immutable.
  const size_t first_mutable = conn.out_offset > 0 ? 1 : 0;
  // Prefer widening a marker already queued for this subscription over
  // appending another frame. Gap markers are undroppable, so this merge
  // is what bounds the outbox under sustained overflow against a
  // stalled reader: once a marker is queued, every further drop-and-
  // flush cycle rewrites it in place and the queue stops growing.
  // Contiguity holds by construction — drops take the oldest droppable
  // frame first, so everything between a queued marker's range and the
  // pending one was itself dropped into that range. The check guards
  // the one exception (a delivered in-flight frame between two drop
  // windows); a disjoint range gets its own marker below.
  for (size_t i = first_mutable; i < conn.out.size(); ++i) {
    Connection::OutFrame& f = conn.out[i];
    if (f.sub != sub || !f.is_gap) continue;
    if (gap.first_skipped_seq > f.last_seq + 1) continue;
    f.first_seq = std::min(f.first_seq, gap.first_skipped_seq);
    f.last_seq = std::max(f.last_seq, gap.last_skipped_seq);
    gap.first_skipped_seq = f.first_seq;
    gap.last_skipped_seq = f.last_seq;
    f.bytes = EncodeEventGapFrame(gap);
    return;
  }
  // No mergeable marker: queue one where seq order puts it — after this
  // subscription's frames below the skipped range (they are closer to
  // the wire), before its queued events above it, so the client sees
  // the hole announced before the first event that jumps past it.
  // Tagged is_gap: identifiable as push traffic (not counted as a
  // response) yet NOT droppable — the gap marker is the one frame the
  // overflow policy must never eat. The caller flushes.
  Connection::OutFrame frame;
  frame.bytes = EncodeEventGapFrame(gap);
  frame.sub = sub;
  frame.first_seq = gap.first_skipped_seq;
  frame.last_seq = gap.last_skipped_seq;
  frame.is_gap = true;
  gap_frames_.fetch_add(1, std::memory_order_relaxed);
  size_t pos = conn.out.size();
  for (size_t i = first_mutable; i < conn.out.size(); ++i) {
    const Connection::OutFrame& f = conn.out[i];
    if (f.sub == sub && f.first_seq > gap.last_skipped_seq) {
      pos = i;
      break;
    }
  }
  conn.out.insert(conn.out.begin() + static_cast<ptrdiff_t>(pos),
                  std::move(frame));
}

void JoinServer::QueueEvent(IoThread& io, Connection& conn,
                            service::EventBatch&& batch) {
  if (conn.dead || conn.close_after_flush) return;
  if (batch.events.empty()) return;
  const uint64_t sub = batch.subscription_id;
  // A batch for a subscription this connection no longer holds (the
  // worker's sink raced an unsubscribe) dies here: nothing may follow
  // the unsubscribe ack.
  if (!std::any_of(conn.subs.begin(), conn.subs.end(),
                   [&](const Connection::SubEntry& e) { return e.id == sub; })) {
    return;
  }
  // Overflow policy: drop the oldest droppable event frame — never a
  // response, never the partially-written front (its bytes are already on
  // the wire) — and coalesce the hole into that subscription's pending
  // gap. The loop never blocks on a slow push consumer.
  while (conn.event_frames_queued >= opts_.event_outbox_frames) {
    bool dropped = false;
    for (size_t i = 0; i < conn.out.size(); ++i) {
      Connection::OutFrame& f = conn.out[i];
      if (f.sub == 0 || f.is_gap) continue;  // response or gap marker
      if (i == 0 && conn.out_offset > 0) continue;
      const uint64_t dropped_sub = f.sub;
      const uint64_t dropped_first = f.first_seq;
      const uint64_t dropped_last = f.last_seq;
      events_dropped_.fetch_add(dropped_last - dropped_first + 1,
                                std::memory_order_relaxed);
      // Erase before touching pending_gaps: a non-contiguous range below
      // flushes a marker into conn.out, which would shift index i.
      conn.out.erase(conn.out.begin() + static_cast<ptrdiff_t>(i));
      --conn.event_frames_queued;
      event_outbox_depth_.fetch_sub(1, std::memory_order_relaxed);
      auto [git, inserted] = conn.pending_gaps.try_emplace(
          dropped_sub, dropped_first, dropped_last);
      if (!inserted) {
        if (dropped_first > git->second.second + 1) {
          // Seqs between the pending range and this drop were delivered
          // (an in-flight front frame that has since left): one merged
          // range would falsely claim them skipped. Announce the pending
          // range as its own marker and start a fresh one.
          FlushPendingGap(conn, dropped_sub);
          conn.pending_gaps.emplace(
              dropped_sub, std::make_pair(dropped_first, dropped_last));
        } else {
          git->second.first = std::min(git->second.first, dropped_first);
          git->second.second = std::max(git->second.second, dropped_last);
        }
      }
      dropped = true;
      break;
    }
    // Only undroppable frames left (responses, gap markers, in-flight
    // front): exceed the bound by this one frame rather than blocking or
    // losing it.
    if (!dropped) break;
  }
  // Announce the hole before this subscription's queued events with
  // newer seqs (FlushPendingGap orders — or merges — the marker by seq,
  // so a client never sees a jump before the gap explaining it).
  FlushPendingGap(conn, sub);
  Connection::OutFrame frame;
  frame.bytes = EncodeEventFrame(batch);
  frame.sub = sub;
  frame.first_seq = batch.first_seq;
  frame.last_seq = batch.first_seq + batch.events.size() - 1;
  frame.born_us = uptime_timer_.ElapsedSeconds() * 1e6;
  conn.out.push_back(std::move(frame));
  ++conn.event_frames_queued;
  event_outbox_depth_.fetch_add(1, std::memory_order_relaxed);
  events_pushed_.fetch_add(batch.events.size(), std::memory_order_relaxed);
  FlushWrites(io, conn);
}

ssize_t JoinServer::SendFront(Connection& conn) {
  const Connection::OutFrame& front = conn.out.front();
  ssize_t w = ::send(conn.fd.get(), front.bytes.data() + conn.out_offset,
                     front.bytes.size() - conn.out_offset, MSG_NOSIGNAL);
  if (w <= 0) return w;
  conn.out_offset += static_cast<size_t>(w);
  if (conn.out_offset < front.bytes.size()) return w;
  if (front.sub == 0) {
    responses_sent_.fetch_add(1, std::memory_order_relaxed);
  } else if (!front.is_gap) {
    --conn.event_frames_queued;  // a droppable event frame left the box
    event_outbox_depth_.fetch_sub(1, std::memory_order_relaxed);
    if (event_delivery_lag_us_ != nullptr) {
      event_delivery_lag_us_->Record(uptime_timer_.ElapsedSeconds() * 1e6 -
                                     front.born_us);
    }
  }
  conn.out.pop_front();
  conn.out_offset = 0;
  return w;
}

bool JoinServer::FlushWrites(IoThread& io, Connection& conn) {
  while (!conn.out.empty()) {
    if (SendFront(conn) >= 0 || errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      UpdateEpollInterest(io, conn, /*want_write=*/true);
      return true;
    }
    conn.dead = true;
    return false;
  }
  UpdateEpollInterest(io, conn, /*want_write=*/false);
  return true;
}

void JoinServer::UpdateEpollInterest(IoThread& io, Connection& conn,
                                     bool want_write) {
  if (conn.want_write == want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ACT_CHECK(::epoll_ctl(io.epoll.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev) ==
            0);
}

void JoinServer::ReleaseSubscriptions(Connection& conn) {
  for (const Connection::SubEntry& e : conn.subs) {
    subscriptions_.Remove(e.id);
    admission_.Release(e.admitted_bytes);
  }
  conn.subs.clear();
  conn.pending_gaps.clear();
}

void JoinServer::CloseConnection(IoThread& io, uint64_t conn_id) {
  auto it = io.conns.find(conn_id);
  if (it == io.conns.end()) return;
  // A dying connection takes its standing queries with it: unregister
  // them and give their admission bytes back before the fd goes. Event
  // frames still queued die with the outbox — the depth gauge must not
  // count ghosts.
  event_outbox_depth_.fetch_sub(
      static_cast<int64_t>(it->second->event_frames_queued),
      std::memory_order_relaxed);
  ReleaseSubscriptions(*it->second);
  // close() removes the fd from the epoll set implicitly.
  io.conns.erase(it);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

void JoinServer::DeliverAsync(int t, uint64_t conn_id,
                              std::vector<uint8_t> frame) {
  IoThread& io = *io_[static_cast<size_t>(t)];
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    io.pending_responses.emplace_back(conn_id, std::move(frame));
  }
  WakeThread(io);
}

void JoinServer::DeliverEventAsync(int t, uint64_t conn_id,
                                   service::EventBatch batch) {
  IoThread& io = *io_[static_cast<size_t>(t)];
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    io.pending_events.emplace_back(conn_id, std::move(batch));
  }
  WakeThread(io);
}

}  // namespace actjoin::net
