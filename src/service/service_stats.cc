#include "service/service_stats.h"

#include <string_view>

namespace actjoin::service {

namespace {

/// The value of a one-label list such as `dataset="zones"`.
std::string LabelValue(const std::string& labels) {
  const size_t open = labels.find('"');
  if (open == std::string::npos || labels.size() < open + 2 ||
      labels.back() != '"') {
    return labels;
  }
  return labels.substr(open + 1, labels.size() - open - 2);
}

/// The row keyed by the sample's label value, appended on first sight so
/// rows keep the order the registry exports them in.
template <typename Row>
Row& RowFor(std::vector<Row>* rows, std::string Row::*key,
            const std::string& labels) {
  std::string value = LabelValue(labels);
  for (Row& row : *rows) {
    if (row.*key == value) return row;
  }
  rows->emplace_back();
  rows->back().*key = std::move(value);
  return rows->back();
}

/// A sample value as a count. Samples may come off the wire, so a
/// negative, NaN or out-of-range value reads as 0 instead of reaching an
/// undefined float-to-integer conversion.
uint64_t CountOf(double value) {
  return value >= 0 && value < 18446744073709551616.0
             ? static_cast<uint64_t>(value)
             : 0;
}

struct CountField {
  std::string_view name;
  std::string_view labels;
  uint64_t ServiceStats::*field;
};

constexpr CountField kCountFields[] = {
    {"requests_completed_total", "", &ServiceStats::completed_requests},
    {"requests_rejected_total", "reason=\"queue_full\"",
     &ServiceStats::rejected_queue_full},
    {"requests_rejected_total", "reason=\"shutdown\"",
     &ServiceStats::rejected_shutdown},
    {"requests_rejected_total", "reason=\"unknown_dataset\"",
     &ServiceStats::rejected_unknown_dataset},
    {"admission_rejected_total", "reason=\"rate_limit\"",
     &ServiceStats::rejected_rate_limit},
    {"admission_rejected_total", "reason=\"inflight_bytes\"",
     &ServiceStats::rejected_inflight_bytes},
    {"admission_rejected_total", "reason=\"queue_watermark\"",
     &ServiceStats::rejected_queue_watermark},
    {"mutations_applied_total", "", &ServiceStats::mutations_applied},
    {"mutations_rejected_total", "", &ServiceStats::rejected_mutations},
    {"points_served_total", "", &ServiceStats::points_served},
    {"queue_depth", "", &ServiceStats::queue_depth},
    {"datasets", "", &ServiceStats::num_datasets},
    {"active_subscriptions", "", &ServiceStats::active_subscriptions},
    {"server_outstanding_requests", "", &ServiceStats::outstanding_requests},
    {"server_events_pushed_total", "", &ServiceStats::events_pushed},
    {"server_events_dropped_total", "", &ServiceStats::events_dropped},
};

/// Real-valued fields; `scale` converts the exported unit (seconds) to the
/// field's.
struct RealField {
  std::string_view name;
  double ServiceStats::*field;
  double scale;
};

constexpr RealField kRealFields[] = {
    {"uptime_seconds", &ServiceStats::uptime_s, 1},
    {"queue_wait_seconds_p50", &ServiceStats::queue_wait_p50_ms, 1e3},
    {"queue_wait_seconds_p99", &ServiceStats::queue_wait_p99_ms, 1e3},
    {"queue_wait_seconds_p999", &ServiceStats::queue_wait_p999_ms, 1e3},
    {"service_seconds_p50", &ServiceStats::service_p50_ms, 1e3},
    {"service_seconds_p99", &ServiceStats::service_p99_ms, 1e3},
    {"service_seconds_p999", &ServiceStats::service_p999_ms, 1e3},
};

}  // namespace

ServiceStats StatsFromSamples(const std::vector<util::MetricSample>& samples) {
  ServiceStats out;
  for (const util::MetricSample& s : samples) {
    const uint64_t count = CountOf(s.value);
    for (const CountField& f : kCountFields) {
      if (s.name == f.name && s.labels == f.labels) out.*f.field += count;
    }
    for (const RealField& f : kRealFields) {
      if (s.name == f.name && s.labels.empty()) {
        out.*f.field += s.value * f.scale;
      }
    }
    if (s.name == "peer_admitted_total") {
      RowFor(&out.peers, &PeerAdmissionStats::peer, s.labels).admitted +=
          count;
    } else if (s.name == "peer_rate_limited_total") {
      RowFor(&out.peers, &PeerAdmissionStats::peer, s.labels).rate_limited +=
          count;
    } else if (s.name == "dataset_epoch") {
      RowFor(&out.dataset_splits, &DatasetSplit::name, s.labels).epoch =
          count;
    } else if (s.name == "dataset_points_served_total") {
      RowFor(&out.dataset_splits, &DatasetSplit::name, s.labels)
          .points_served += count;
    } else if (s.name == "dataset_requests_completed_total") {
      RowFor(&out.dataset_splits, &DatasetSplit::name, s.labels)
          .completed_requests += count;
    }
  }
  out.rejected_requests = out.rejected_queue_full + out.rejected_shutdown +
                          out.rejected_unknown_dataset +
                          out.rejected_rate_limit +
                          out.rejected_inflight_bytes +
                          out.rejected_queue_watermark;
  if (out.uptime_s > 0) {
    out.qps = static_cast<double>(out.completed_requests) / out.uptime_s;
    out.points_per_s = static_cast<double>(out.points_served) / out.uptime_s;
  }
  // Catalog ids are dense from 0, so dataset 0 is the first split.
  if (!out.dataset_splits.empty()) out.epoch = out.dataset_splits[0].epoch;
  return out;
}

}  // namespace actjoin::service
