#include "net/admission.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace actjoin::net {

const char* ToString(Admission verdict) {
  switch (verdict) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kRateLimited:
      return "rate limited";
    case Admission::kInFlightBytes:
      return "in-flight bytes exceeded";
    case Admission::kQueueWatermark:
      return "queue over watermark";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const AdmissionPolicy& policy,
                                         size_t queue_capacity)
    : policy_(policy) {
  ACT_CHECK_MSG(policy_.rate_limit_qps >= 0 && policy_.queue_watermark <= 1.0,
                "AdmissionPolicy: qps must be >= 0, watermark in [0, 1]");
  if (policy_.rate_burst <= 0) {
    policy_.rate_burst = std::max(1.0, policy_.rate_limit_qps);
  }
  if (policy_.max_peer_buckets < 1) policy_.max_peer_buckets = 1;
  if (policy_.queue_watermark > 0) {
    // "Deeper than watermark * capacity rejects"; floor keeps a watermark
    // below 1/capacity meaningful (threshold 0 => any backlog rejects).
    queue_threshold_ = static_cast<size_t>(
        policy_.queue_watermark * static_cast<double>(queue_capacity));
  } else {
    queue_threshold_ = std::numeric_limits<size_t>::max();
  }
}

AdmissionController::PeerBucket& AdmissionController::BucketFor(
    std::string_view peer) {
  auto it = buckets_.find(peer);
  if (it == buckets_.end()) {
    if (buckets_.size() >= policy_.max_peer_buckets) {
      // Evict the longest-idle bucket: its peer has not sent a request
      // for the longest time, so forgetting its split (never the global
      // counters) is the cheapest memory to reclaim. O(buckets) only on
      // the new-peer-at-cap path.
      auto victim = buckets_.begin();
      for (auto b = buckets_.begin(); b != buckets_.end(); ++b) {
        if (b->second.last_refill < victim->second.last_refill) victim = b;
      }
      buckets_.erase(victim);
    }
    PeerBucket bucket;
    bucket.tokens = policy_.rate_burst;  // start full: the first burst is free
    bucket.last_refill = Clock::now();
    it = buckets_.emplace(std::string(peer), bucket).first;
  }
  return it->second;
}

Admission AdmissionController::TryAdmit(size_t request_bytes,
                                        size_t queue_depth,
                                        std::string_view peer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_depth > queue_threshold_) {
    ++counters_.queue_watermark;
    return Admission::kQueueWatermark;
  }
  if (policy_.max_in_flight_bytes > 0 &&
      counters_.bytes_in_flight + request_bytes >
          policy_.max_in_flight_bytes) {
    ++counters_.inflight_bytes;
    return Admission::kInFlightBytes;
  }
  PeerBucket& bucket = BucketFor(peer);
  if (policy_.rate_limit_qps > 0) {
    Clock::time_point now = Clock::now();
    double elapsed_s =
        std::chrono::duration<double>(now - bucket.last_refill).count();
    bucket.last_refill = now;
    bucket.tokens = std::min(policy_.rate_burst,
                             bucket.tokens + elapsed_s * policy_.rate_limit_qps);
    if (bucket.tokens < 1.0) {
      ++counters_.rate_limited;
      ++bucket.rate_limited;
      return Admission::kRateLimited;
    }
    bucket.tokens -= 1.0;
  }
  counters_.bytes_in_flight += request_bytes;
  ++counters_.admitted;
  ++bucket.admitted;
  return Admission::kAdmitted;
}

void AdmissionController::Release(size_t request_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ACT_CHECK_MSG(counters_.bytes_in_flight >= request_bytes,
                "Release without a matching TryAdmit admission");
  counters_.bytes_in_flight -= request_bytes;
}

void AdmissionController::Refund(size_t request_bytes, std::string_view peer) {
  std::lock_guard<std::mutex> lock(mu_);
  ACT_CHECK_MSG(counters_.bytes_in_flight >= request_bytes,
                "Refund without a matching TryAdmit admission");
  counters_.bytes_in_flight -= request_bytes;
  if (policy_.rate_limit_qps > 0) {
    // Re-credit the token TryAdmit took from this peer's bucket; the burst
    // ceiling still applies (refill may have topped the bucket up since).
    PeerBucket& bucket = BucketFor(peer);
    bucket.tokens = std::min(policy_.rate_burst, bucket.tokens + 1.0);
  }
  ++counters_.refunded;
}

AdmissionController::Counters AdmissionController::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<service::PeerAdmissionStats> AdmissionController::PerPeer() const {
  std::vector<service::PeerAdmissionStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(buckets_.size());
    for (const auto& [peer, bucket] : buckets_) {
      out.push_back({peer, bucket.admitted, bucket.rate_limited});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const service::PeerAdmissionStats& a,
               const service::PeerAdmissionStats& b) { return a.peer < b.peer; });
  return out;
}

size_t AdmissionController::in_flight_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.bytes_in_flight;
}

void AdmissionController::RegisterMetrics(
    util::MetricsRegistry* registry) const {
  registry->RegisterCounterFn("admission_admitted_total",
                              "Requests admitted at the door", "",
                              [this] { return counters().admitted; });
  registry->RegisterCounterFn(
      "admission_rejected_total", "Admission rejections by knob",
      "reason=\"rate_limit\"", [this] { return counters().rate_limited; });
  registry->RegisterCounterFn(
      "admission_rejected_total", "", "reason=\"inflight_bytes\"",
      [this] { return counters().inflight_bytes; });
  registry->RegisterCounterFn(
      "admission_rejected_total", "", "reason=\"queue_watermark\"",
      [this] { return counters().queue_watermark; });
  registry->RegisterCounterFn("admission_refunded_total",
                              "Admissions rolled back without work", "",
                              [this] { return counters().refunded; });
  registry->RegisterGaugeFn(
      "admission_inflight_bytes", "Payload bytes admitted but not completed",
      "", [this] { return static_cast<double>(in_flight_bytes()); });
  registry->RegisterCounterFamilyFn(
      "peer_admitted_total", "Requests admitted per peer", [this] {
        util::MetricsRegistry::FamilySeries out;
        for (const service::PeerAdmissionStats& p : PerPeer()) {
          out.emplace_back("peer=\"" + p.peer + "\"",
                           static_cast<double>(p.admitted));
        }
        return out;
      });
  registry->RegisterCounterFamilyFn(
      "peer_rate_limited_total", "Rate-limit rejections per peer", [this] {
        util::MetricsRegistry::FamilySeries out;
        for (const service::PeerAdmissionStats& p : PerPeer()) {
          out.emplace_back("peer=\"" + p.peer + "\"",
                           static_cast<double>(p.rate_limited));
        }
        return out;
      });
}

}  // namespace actjoin::net
