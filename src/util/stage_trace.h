// Per-request stage tracing, one mechanism for every request kind. A
// traced request carries a StageTrace through the serving stack and gets
// it back inline in its response: seven stage wall times that tile its
// server-side lifetime and, under ServiceOptions::stage_perf_counters, a
// cycles / instructions / LLC-miss delta per stage. Each kind names the
// seven slots with its own enum (service::TraceStage for JOIN_BATCH,
// join2::CrossMatchStage for JOIN_DATASETS): admission, decode and queue
// first, the kind's three execution stages, response delivery last.

#ifndef ACTJOIN_UTIL_STAGE_TRACE_H_
#define ACTJOIN_UTIL_STAGE_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/perf_counters.h"
#include "util/timer.h"

namespace actjoin::util {

inline constexpr int kNumStages = 7;

/// A per-kind stage enum whose values index the seven trace slots.
template <typename S>
concept StageEnum = std::is_enum_v<S>;

/// One measured stage: wall time and counter delta (all-zero when the lap
/// had no available counter group).
struct StageSplit {
  double us = 0;
  StageCounterSample counters;
};

struct StageTrace {
  uint64_t request_id = 0;
  bool enabled = false;
  /// Wall time per stage, microseconds.
  std::array<double, kNumStages> stage_us{};
  /// `counters_enabled`: the mode is on for this request (the wire carries
  /// the counter block). `counters_available` is false when the kernel
  /// denied perf_event_open — every delta is then zero, never fabricated.
  /// The queue stage stays zero by construction (a queued request burns no
  /// CPU anywhere attributable).
  bool counters_enabled = false;
  bool counters_available = false;
  std::array<StageCounterSample, kNumStages> stage_counters{};

  template <StageEnum S>
  static size_t Slot(S s) { return static_cast<size_t>(s); }
  template <StageEnum S>
  double& at(S s) { return stage_us[Slot(s)]; }
  template <StageEnum S>
  double at(S s) const { return stage_us[Slot(s)]; }
  template <StageEnum S>
  StageCounterSample& counters(S s) { return stage_counters[Slot(s)]; }
  template <StageEnum S>
  const StageCounterSample& counters(S s) const {
    return stage_counters[Slot(s)];
  }

  /// Records one lapped stage: its wall time, and its counter delta when
  /// this trace carries counters.
  template <StageEnum S>
  void Charge(S s, const StageSplit& split) {
    at(s) = split.us;
    if (counters_enabled) counters(s) = split.counters;
  }

  double TotalMicros() const {
    double total = 0;
    for (double v : stage_us) total += v;
    return total;
  }

  friend bool operator==(const StageTrace&, const StageTrace&) = default;
};

/// The one way a stage gets measured. Each Lap() returns the wall time
/// since construction or the previous Lap() (one clock read) and, with an
/// available counter group opened by this thread attached, the counter
/// delta over the same interval (one group read()).
class StageLap {
 public:
  explicit StageLap(const StagePerfCounters* counters = nullptr)
      : counters_(counters != nullptr && counters->available() ? counters
                                                               : nullptr) {
    if (counters_ != nullptr) mark_ = counters_->Read();
  }

  /// True when laps carry real counter deltas.
  bool counting() const { return counters_ != nullptr; }

  StageSplit Lap() {
    StageSplit split;
    split.us = timer_.LapSeconds() * 1e6;
    if (counters_ != nullptr) {
      const StageCounterSample now = counters_->Read();
      split.counters = now - mark_;
      mark_ = now;
    }
    return split;
  }

 private:
  WallTimer timer_;
  const StagePerfCounters* counters_;
  StageCounterSample mark_;
};

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_STAGE_TRACE_H_
