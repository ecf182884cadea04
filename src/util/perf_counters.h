// Hardware performance counter sampling (paper Table 5 + serving-stage
// attribution).
//
// Table 5 reports cycles, instructions, branch misses, and cache misses per
// probed point. We read them through perf_event_open when the kernel allows
// it; inside unprivileged containers that syscall is typically denied, in
// which case cycles fall back to the TSC and the other counters are reported
// as unavailable. Callers must check the per-counter validity flags.
//
// Two shapes, one fallback story:
//
//   * PerfCounterGroup — start/stop deltas around one measured region (the
//     bench shape: arm, run the workload, read).
//   * StagePerfCounters — a per-thread, permanently-enabled 3-event group
//     (cycles / instructions / LLC misses) read as one group read() at
//     serving-stage boundaries. Each serving thread opens its own once
//     (ThreadStageCounters) and util::StageLap charges each trace stage
//     the delta between two reads, so the hot-path cost is one syscall
//     per boundary, not an ioctl dance per request.
//
// Both degrade to `available() == false` (all-zero samples) when
// perf_event_open is denied, and both take a simulate_denied seam that
// forces the open through the kernel's invalid-attr rejection path so the
// fallback is testable on machines where the real open succeeds.

#ifndef ACTJOIN_UTIL_PERF_COUNTERS_H_
#define ACTJOIN_UTIL_PERF_COUNTERS_H_

#include <cstdint>

namespace actjoin::util {

/// One sampled counter value; `valid` is false when the counter could not be
/// programmed (e.g., perf_event_open denied by the container runtime).
struct CounterValue {
  uint64_t value = 0;
  bool valid = false;
};

/// Deltas observed between Start() and Stop().
struct PerfSample {
  CounterValue cycles;
  CounterValue instructions;
  CounterValue branch_misses;
  CounterValue cache_misses;
};

/// Groups the four Table-5 counters. Usage:
///   PerfCounterGroup g;
///   g.Start(); ... workload ...; PerfSample s = g.Stop();
class PerfCounterGroup {
 public:
  struct Options {
    /// Test seam: submit an invalid perf_event_attr so the kernel rejects
    /// every open and the group takes the same unavailable/TSC-fallback
    /// path a denied container does.
    bool simulate_denied = false;
  };

  PerfCounterGroup() : PerfCounterGroup(Options{}) {}
  explicit PerfCounterGroup(const Options& opts);
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True if at least the hardware cycle counter is being read via perf
  /// events (as opposed to the TSC fallback).
  bool UsingHardwareEvents() const;

  void Start();
  /// Deltas since the matching Start(). Without a prior Start() this is a
  /// safe no-op returning an all-invalid sample (no ioctls are issued, no
  /// garbage TSC delta is fabricated).
  PerfSample Stop();

 private:
  int fds_[4];
  uint64_t tsc_start_ = 0;
  bool started_ = false;
};

/// Running totals of one StagePerfCounters group. Deltas between two Read()
/// calls attribute the work done in between to a stage.
struct StageCounterSample {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;

  StageCounterSample operator-(const StageCounterSample& o) const {
    return {cycles - o.cycles, instructions - o.instructions,
            llc_misses - o.llc_misses};
  }
  StageCounterSample& operator+=(const StageCounterSample& o) {
    cycles += o.cycles;
    instructions += o.instructions;
    llc_misses += o.llc_misses;
    return *this;
  }
  friend bool operator==(const StageCounterSample&,
                         const StageCounterSample&) = default;
};

/// Per-thread 3-event counter group (cycles leader + instructions +
/// LLC misses), opened once, enabled for the thread's lifetime, and read
/// with a single group read() per call. Counts only the opening thread —
/// open it on the thread whose stages you are attributing.
///
/// All-or-nothing: if any of the three events fails to open, the whole
/// group reports available() == false and Read() returns zeros, so a
/// partially-programmed group can never mislabel a stage.
class StagePerfCounters {
 public:
  struct Options {
    /// Test seam: see PerfCounterGroup::Options::simulate_denied.
    bool simulate_denied = false;
  };

  StagePerfCounters() : StagePerfCounters(Options{}) {}
  explicit StagePerfCounters(const Options& opts);
  ~StagePerfCounters();

  StagePerfCounters(const StagePerfCounters&) = delete;
  StagePerfCounters& operator=(const StagePerfCounters&) = delete;

  bool available() const { return available_; }

  /// Running totals since open; all-zero when unavailable (or if the
  /// group read itself fails, so a torn read can't fabricate deltas).
  StageCounterSample Read() const;

 private:
  int group_fd_ = -1;
  int member_fds_[2] = {-1, -1};
  bool available_ = false;
};

/// The calling thread's StagePerfCounters group, opened lazily on the
/// thread's first call and closed when the thread exits (perf counts the
/// opening thread, so every thread that charges stages needs its own).
/// Never null; check available(). A call asking for the other
/// `simulate_denied` mode reopens the group in that mode.
StagePerfCounters* ThreadStageCounters(bool simulate_denied = false);

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_PERF_COUNTERS_H_
