// Admission control for the network front-end: a first-class policy
// object, not an emergent property of queue sizing.
//
// Queue-full rejection alone sheds load only after the queue has already
// soaked up latency; the ROADMAP asks for admission control *beyond* that.
// AdmissionController evaluates three independent knobs at the door, before
// a request touches the service queue:
//
//   * token-bucket rate limit (requests/s with a burst allowance) — since
//     the bucket is sharded by peer key, this caps each *client's*
//     sustained rate: one greedy client drains its own bucket and is
//     rejected while every other peer's bucket stays full (a global bucket
//     let one flood starve everyone),
//   * max in-flight bytes — caps the memory a flood of giant batches can
//     pin between admission and response completion (global: memory is a
//     per-server resource, not a per-client one),
//   * queue-depth watermark — sheds early, at a fraction of the service
//     queue's capacity, so latency-sensitive traffic keeps a short queue
//     (global, for the same reason).
//
// A rejection is typed (which knob fired) so the wire layer can answer
// with the matching error code instead of blocking or dropping the
// connection, and each reason keeps its own counter — globally and per
// peer — exported through the metrics registry.
//
// The peer key is an opaque string chosen by the caller (the server uses
// the peer IP, or IP:port under PeerKeyPolicy::kIpPort); "" is a valid key
// (one shared bucket), which is what single-tenant callers and the unit
// tests use. Buckets are created on first sight; the population is capped
// at AdmissionPolicy::max_peer_buckets, with the longest-idle bucket
// evicted at the cap. Under the default per-IP keying a reconnecting
// flooder lands back in its own (possibly drained) bucket; kIpPort trades
// that stickiness for per-connection isolation, which is why it is the
// NAT/test knob, not the default.
//
// Thread safety: one mutex; TryAdmit/Release cost a few dozen ns per
// *request* (not per point), invisible next to a join.

#ifndef ACTJOIN_NET_ADMISSION_H_
#define ACTJOIN_NET_ADMISSION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/service_stats.h"

namespace actjoin::net {

struct AdmissionPolicy {
  /// Sustained JOIN_BATCH admissions per second *per peer key*; 0 disables
  /// the limit.
  double rate_limit_qps = 0;
  /// Token-bucket depth per peer (instantaneous burst allowance); <= 0
  /// means max(1, rate_limit_qps).
  double rate_burst = 0;
  /// Cap on total payload bytes admitted but not yet completed, across all
  /// peers; 0 disables. A single request larger than the cap is always
  /// rejected.
  size_t max_in_flight_bytes = 0;
  /// Reject when the service queue is deeper than this fraction of its
  /// capacity ((0, 1]); 0 disables. Strictly stronger than queue-full:
  /// it sheds while TrySubmit would still succeed.
  double queue_watermark = 0;
  /// Cap on tracked peer buckets (clamped to >= 1). At the cap, a new
  /// peer evicts the longest-idle bucket, so memory and the exported
  /// per-peer series stay bounded on a long-running server no matter how
  /// many distinct peers (or, under PeerKeyPolicy::kIpPort, ephemeral
  /// ports) it has seen. Global counters are unaffected by eviction;
  /// only the evicted peer's *split* is forgotten.
  size_t max_peer_buckets = 1024;
};

enum class Admission : uint8_t {
  kAdmitted = 0,
  kRateLimited,
  kInFlightBytes,
  kQueueWatermark,
};

const char* ToString(Admission verdict);

class AdmissionController {
 public:
  struct Counters {
    uint64_t admitted = 0;
    uint64_t rate_limited = 0;
    uint64_t inflight_bytes = 0;
    uint64_t queue_watermark = 0;
    /// Admissions rolled back via Refund (the request never did work).
    uint64_t refunded = 0;
    /// Payload bytes admitted and not yet Released or Refunded (a gauge,
    /// not a counter: zero whenever nothing is in flight).
    uint64_t bytes_in_flight = 0;

    uint64_t TotalRejected() const {
      return rate_limited + inflight_bytes + queue_watermark;
    }
  };

  /// `queue_capacity` is the service queue's capacity, used to turn the
  /// watermark fraction into an absolute depth threshold.
  AdmissionController(const AdmissionPolicy& policy, size_t queue_capacity);

  /// Checks all knobs; on kAdmitted the request's bytes are reserved
  /// against the in-flight budget (pair with exactly one Release or
  /// Refund). Checks run cheapest-recovery-first — watermark, then bytes,
  /// then the peer's rate bucket — so a request bounced by load does not
  /// also burn a rate token.
  Admission TryAdmit(size_t request_bytes, size_t queue_depth,
                     std::string_view peer = "");

  /// Returns an admitted request's bytes to the budget; call when its
  /// real response is complete. The rate token stays consumed — the
  /// request did real work.
  void Release(size_t request_bytes);

  /// Rolls back an admission whose request did *no* work because this
  /// server refused it after the fact (undecodable payload, service queue
  /// full, shutting down — any typed error reply): returns the bytes like
  /// Release and re-credits the rate token TryAdmit consumed from `peer`'s
  /// bucket, so a burst of refused requests cannot drain the bucket and
  /// double-penalize that client. Pair with exactly one kAdmitted, in
  /// place of (never in addition to) Release.
  void Refund(size_t request_bytes, std::string_view peer = "");

  Counters counters() const;
  /// Per-peer admitted / rate-limited splits, sorted by peer key (the
  /// peer_* metric families). Empty until the first TryAdmit.
  std::vector<service::PeerAdmissionStats> PerPeer() const;
  size_t in_flight_bytes() const;
  const AdmissionPolicy& policy() const { return policy_; }

  /// Registers the controller's counters (global splits + per-peer
  /// families) into `registry` as collection-time callbacks; the
  /// controller must outlive collections.
  void RegisterMetrics(util::MetricsRegistry* registry) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct PeerBucket {
    double tokens = 0;
    Clock::time_point last_refill;
    uint64_t admitted = 0;
    uint64_t rate_limited = 0;
  };

  /// Finds or creates the peer's bucket (created full: the first burst is
  /// free). Caller holds mu_.
  PeerBucket& BucketFor(std::string_view peer);

  /// Heterogeneous lookup: the per-request path probes the map with the
  /// caller's string_view directly — no temporary std::string allocation
  /// under the admission mutex.
  struct PeerHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  AdmissionPolicy policy_;
  size_t queue_threshold_;  // absolute depth; SIZE_MAX when disabled

  mutable std::mutex mu_;
  std::unordered_map<std::string, PeerBucket, PeerHash, std::equal_to<>>
      buckets_;
  Counters counters_;
};

}  // namespace actjoin::net

#endif  // ACTJOIN_NET_ADMISSION_H_
