#include "net/admin_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "service/service_catalog.h"
#include "service/service_stats.h"
#include "service/slow_query_log.h"
#include "service/trace.h"
#include "util/cpu_profiler.h"
#include "util/metrics.h"

namespace actjoin::net {

namespace {

/// One request must fit in this; HTTP scrapers send a few hundred bytes.
constexpr size_t kMaxRequestBytes = 8 * 1024;
/// A client that connects and then trickles its request line gets this
/// long before the worker gives up on it.
constexpr int kReadTimeoutSecs = 5;
/// Poll interval of the accept loop; bounds Stop() latency.
constexpr int kAcceptPollMs = 100;

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string MakeResponse(int code, const std::string& content_type,
                         const std::string& body,
                         const std::string& extra_headers = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " +
                    ReasonPhrase(code) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += extra_headers;
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

/// Value of `key=` in an HTTP query string, or "" when absent.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string piece = query.substr(pos, amp - pos);
    const size_t eq = piece.find('=');
    if (eq != std::string::npos && piece.substr(0, eq) == key) {
      return piece.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return {};
}

}  // namespace

AdminServer::AdminServer(service::JoinService* service,
                         const AdminOptions& opts, JoinServer* server)
    : service_(service), server_(server), opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.max_profile_seconds < 0.05) opts_.max_profile_seconds = 0.05;
}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "admin server already running";
    return false;
  }
  listener_ = ListenTcp(opts_.host, opts_.port, /*backlog=*/16, &port_, error);
  if (!listener_.valid()) return false;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  listener_.Reset();
}

void AdminServer::WorkerLoop() {
  // Every worker polls the shared nonblocking listener; whoever wins the
  // accept race serves the connection, the others see EAGAIN and re-poll.
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listener_.get();
    pfd.events = POLLIN;
    const int rc = poll(&pfd, 1, kAcceptPollMs);
    if (rc <= 0) continue;  // timeout or EINTR: re-check stop_
    const int fd = accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) continue;  // EAGAIN (lost the race) or transient error
    ServeConnection(fd);
    close(fd);
  }
}

void AdminServer::ServeConnection(int fd) const {
  // The accepted socket is blocking (O_NONBLOCK does not inherit across
  // accept); a receive timeout bounds a client that stalls mid-request.
  timeval tv{};
  tv.tv_sec = kReadTimeoutSecs;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() >= kMaxRequestBytes) return;  // oversized: drop
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // closed, timed out, or errored: drop
    request.append(buf, static_cast<size_t>(n));
  }

  // Request line: METHOD SP TARGET SP VERSION CRLF. Headers are read (to
  // drain the request) but ignored — no route needs them.
  const size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return;  // malformed: drop
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);

  const std::string response = HandleRequest(method, target);
  std::string error;
  SendAll(fd, reinterpret_cast<const uint8_t*>(response.data()),
          response.size(), &error);
}

std::string AdminServer::HandleRequest(const std::string& method,
                                       const std::string& target) const {
  if (method != "GET") {
    return MakeResponse(405, "text/plain; charset=utf-8",
                        "method not allowed\n", "Allow: GET\r\n");
  }
  const size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  const std::string query =
      q == std::string::npos ? std::string() : target.substr(q + 1);

  if (path == "/metrics") {
    return MakeResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                        RouteMetrics());
  }
  if (path == "/healthz") {
    return MakeResponse(200, "text/plain; charset=utf-8", "ok\n");
  }
  if (path == "/readyz") {
    const std::string body = RouteReadyz();
    return MakeResponse(body == "ready\n" ? 200 : 503,
                        "text/plain; charset=utf-8", body);
  }
  if (path == "/statusz") {
    return MakeResponse(200, "text/plain; charset=utf-8", RouteStatusz());
  }
  if (path == "/tracez") {
    return MakeResponse(200, "text/plain; charset=utf-8", RouteTracez());
  }
  if (path == "/profilez") {
    if (!util::CpuProfiler::Supported()) {
      return MakeResponse(503, "text/plain; charset=utf-8",
                          "cpu profiling unsupported on this platform\n");
    }
    return MakeResponse(
        200, "text/plain; charset=utf-8", RouteProfilez(query),
        "X-Profile-Samples: " +
            std::to_string(util::CpuProfiler::last_sample_count()) + "\r\n");
  }
  return MakeResponse(404, "text/plain; charset=utf-8", "not found\n");
}

std::string AdminServer::RouteMetrics() const {
  return service_->metrics()->RenderPrometheus();
}

std::string AdminServer::RouteReadyz() const {
  for (const service::DatasetInfo& ds : service_->catalog().List()) {
    if (ds.epoch != 0 && !ds.dropped) return "ready\n";
  }
  return "no servable dataset\n";
}

std::string AdminServer::RouteStatusz() const {
  // One Collect() feeds [service] and [wire]: every number in them is a
  // /metrics series, all read at the same instant.
  std::vector<util::MetricSample> samples;
  if (const util::MetricsRegistry* registry = service_->metrics()) {
    samples = util::FlattenSamples(registry->Collect());
  }
  const service::ServiceStats stats = service::StatsFromSamples(samples);
  std::string out;
  AppendF(&out, "actjoin statusz\n");
  AppendF(&out, "build: wire v%u, %s, %s\n",
          static_cast<unsigned>(kWireVersion), __VERSION__,
#ifdef NDEBUG
          "release"
#else
          "debug"
#endif
  );
  AppendF(&out, "uptime_s: %.1f\n", stats.uptime_s);
  AppendF(&out, "\n[service]\n");
  AppendF(&out, "completed_requests: %llu\n",
          static_cast<unsigned long long>(stats.completed_requests));
  AppendF(&out, "rejected_requests: %llu\n",
          static_cast<unsigned long long>(stats.rejected_requests));
  AppendF(&out, "queue_depth: %llu\n",
          static_cast<unsigned long long>(stats.queue_depth));
  AppendF(&out, "qps: %.1f\n", stats.qps);
  AppendF(&out, "points_per_s: %.0f\n", stats.points_per_s);
  AppendF(&out, "service_ms p50/p99/p999: %.3f / %.3f / %.3f\n",
          stats.service_p50_ms, stats.service_p99_ms, stats.service_p999_ms);
  AppendF(&out, "queue_wait_ms p50/p99/p999: %.3f / %.3f / %.3f\n",
          stats.queue_wait_p50_ms, stats.queue_wait_p99_ms,
          stats.queue_wait_p999_ms);
  AppendF(&out, "mutations_applied: %llu  rejected_mutations: %llu\n",
          static_cast<unsigned long long>(stats.mutations_applied),
          static_cast<unsigned long long>(stats.rejected_mutations));

  AppendF(&out, "\n[datasets]\n");
  for (const service::DatasetInfo& ds : service_->catalog().List()) {
    AppendF(&out, "  %u %s epoch=%llu polygons=%llu%s\n",
            static_cast<unsigned>(ds.id), ds.name.c_str(),
            static_cast<unsigned long long>(ds.epoch),
            static_cast<unsigned long long>(ds.num_polygons),
            ds.dropped ? " DROPPED" : "");
  }

  const service::JoinService::StagePerfTotals perf =
      service_->StagePerfSnapshot();
  AppendF(&out, "\n[stage_perf_counters] enabled=%d available=%d\n",
          perf.enabled ? 1 : 0, perf.available ? 1 : 0);
  if (perf.enabled) {
    AppendF(&out, "  %-10s %16s %16s %12s\n", "stage", "cycles",
            "instructions", "llc_misses");
    for (int s = 0; s < service::kNumTraceStages; ++s) {
      const util::StageCounterSample& c = perf.stage[static_cast<size_t>(s)];
      AppendF(&out, "  %-10s %16llu %16llu %12llu\n",
              service::TraceStageName(static_cast<service::TraceStage>(s)),
              static_cast<unsigned long long>(c.cycles),
              static_cast<unsigned long long>(c.instructions),
              static_cast<unsigned long long>(c.llc_misses));
    }
  }

  if (server_ != nullptr) {
    auto count = [&samples](std::string_view name,
                            std::string_view labels = {}) {
      for (const util::MetricSample& s : samples) {
        if (s.name == name && s.labels == labels) {
          return static_cast<unsigned long long>(s.value);
        }
      }
      return 0ULL;
    };
    AppendF(&out, "\n[wire]\n");
    AppendF(&out, "connections accepted/closed: %llu / %llu\n",
            count("server_connections_accepted_total"),
            count("server_connections_closed_total"));
    AppendF(&out, "frames_received: %llu  responses_sent: %llu\n",
            count("server_frames_received_total"),
            count("server_responses_sent_total"));
    AppendF(&out, "protocol_errors: %llu\n",
            count("server_protocol_errors_total"));
    AppendF(&out, "events pushed/dropped: %llu / %llu  gap_frames: %llu\n",
            count("server_events_pushed_total"),
            count("server_events_dropped_total"),
            count("server_event_gap_frames_total"));
    AppendF(&out,
            "admission admitted: %llu  rejected rate/bytes/watermark: "
            "%llu / %llu / %llu  refunded: %llu\n",
            count("admission_admitted_total"),
            count("admission_rejected_total", "reason=\"rate_limit\""),
            count("admission_rejected_total", "reason=\"inflight_bytes\""),
            count("admission_rejected_total", "reason=\"queue_watermark\""),
            count("admission_refunded_total"));
    AppendF(&out, "active_subscriptions: %llu  outstanding_requests: %llu\n",
            static_cast<unsigned long long>(stats.active_subscriptions),
            static_cast<unsigned long long>(stats.outstanding_requests));
  }
  return out;
}

std::string AdminServer::RouteTracez() const {
  std::string out;
  AppendF(&out, "[slow_queries] top-%zu by service time\n",
          service_->slow_queries().capacity());
  for (const service::SlowQuery& q : service_->slow_queries().TopK()) {
    AppendF(&out,
            "  req=%llu dataset=%u points=%llu epoch=%llu "
            "queue_wait_us=%.1f service_us=%.1f\n",
            static_cast<unsigned long long>(q.request_id),
            static_cast<unsigned>(q.dataset_id),
            static_cast<unsigned long long>(q.num_points),
            static_cast<unsigned long long>(q.epoch), q.queue_wait_us,
            q.service_us);
  }
  const util::EventLog& events = service_->metrics()->events();
  AppendF(&out, "\n[events] %llu appended, ring holds:\n",
          static_cast<unsigned long long>(events.total_appended()));
  for (const util::MetricEvent& e : events.Snapshot()) {
    AppendF(&out, "  #%llu +%.3fs %s %s %s\n",
            static_cast<unsigned long long>(e.seq), e.uptime_s, e.kind.c_str(),
            e.subject.c_str(), e.detail.c_str());
  }
  return out;
}

std::string AdminServer::RouteProfilez(const std::string& query) const {
  double seconds = 1.0;
  const std::string param = QueryParam(query, "seconds");
  if (!param.empty()) {
    char* end = nullptr;
    const double v = strtod(param.c_str(), &end);
    if (end != param.c_str() && v > 0) seconds = v;
  }
  if (seconds > opts_.max_profile_seconds) seconds = opts_.max_profile_seconds;
  util::CpuProfiler::Options popts;
  popts.hz = opts_.profile_hz;
  std::string collapsed = util::CpuProfiler::ProfileFor(seconds, popts);
  if (collapsed.empty()) {
    collapsed = "# no samples (process idle during the window)\n";
  }
  return collapsed;
}

}  // namespace actjoin::net
