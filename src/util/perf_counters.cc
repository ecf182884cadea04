#include "util/perf_counters.h"

#include <cstring>
#include <memory>

#include "util/timer.h"

#if defined(__linux__)
#include <fcntl.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace actjoin::util {

namespace {

#if defined(__linux__)

#ifndef PERF_FLAG_FD_CLOEXEC
#define PERF_FLAG_FD_CLOEXEC (1UL << 3)
#endif

/// Opens one counter for the calling thread. `group_fd` = -1 starts a new
/// group; otherwise the event joins that group (same enable/disable fate,
/// readable in one group read). `read_format` must match the group leader.
/// `simulate_denied` submits a deliberately invalid attr (an impossible
/// event type) so the kernel itself rejects the open — the same -1/-EINVAL
/// surface a denied perf_event_paranoid setting produces.
int OpenCounter(uint32_t type, uint64_t config, int group_fd,
                uint64_t read_format, bool simulate_denied) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = simulate_denied ? 0xffffffffu : type;
  attr.config = config;
  attr.disabled = group_fd < 0 ? 1 : 0;  // members follow the leader
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = read_format;
  // FD_CLOEXEC at open: counter fds must not leak into forked/exec'd
  // children (a snapshot-shipping helper, a test harness re-exec).
  long fd = syscall(SYS_perf_event_open, &attr, 0, -1, group_fd,
                    PERF_FLAG_FD_CLOEXEC);
  if (fd >= 0) return static_cast<int>(fd);
  // Older kernels without PERF_FLAG_FD_CLOEXEC reject the flag with
  // EINVAL; retry flagless and set the bit via fcntl instead. The
  // simulated-denied path must not retry (the attr is the thing being
  // rejected, and we want the denial).
  if (!simulate_denied) {
    fd = syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0);
    if (fd >= 0) fcntl(static_cast<int>(fd), F_SETFD, FD_CLOEXEC);
  }
  return static_cast<int>(fd);
}

uint64_t ReadCounter(int fd) {
  uint64_t value = 0;
  if (fd >= 0 && read(fd, &value, sizeof(value)) != sizeof(value)) value = 0;
  return value;
}

#endif  // defined(__linux__)

}  // namespace

PerfCounterGroup::PerfCounterGroup(const Options& opts) {
  for (int& fd : fds_) fd = -1;
#if defined(__linux__)
  const bool deny = opts.simulate_denied;
  fds_[0] = OpenCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1, 0,
                        deny);
  fds_[1] = OpenCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, -1, 0,
                        deny);
  fds_[2] = OpenCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, -1, 0,
                        deny);
  fds_[3] = OpenCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, -1, 0,
                        deny);
#else
  (void)opts;
#endif
}

PerfCounterGroup::~PerfCounterGroup() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

bool PerfCounterGroup::UsingHardwareEvents() const { return fds_[0] >= 0; }

void PerfCounterGroup::Start() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) {
      ioctl(fd, PERF_EVENT_IOC_RESET, 0);
      ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
    }
  }
#endif
  tsc_start_ = ReadTsc();
  started_ = true;
}

PerfSample PerfCounterGroup::Stop() {
  PerfSample s;
  if (!started_) return s;  // no Start(): nothing armed, nothing to read
  started_ = false;
  uint64_t tsc_end = ReadTsc();
#if defined(__linux__)
  CounterValue* out[4] = {&s.cycles, &s.instructions, &s.branch_misses,
                          &s.cache_misses};
  for (int i = 0; i < 4; ++i) {
    if (fds_[i] >= 0) {
      ioctl(fds_[i], PERF_EVENT_IOC_DISABLE, 0);
      out[i]->value = ReadCounter(fds_[i]);
      out[i]->valid = true;
    }
  }
#endif
  if (!s.cycles.valid) {
    // TSC fallback: reference cycles rather than core cycles, but preserves
    // the relative ordering across index structures that Table 5 is about.
    s.cycles.value = tsc_end - tsc_start_;
    s.cycles.valid = true;
  }
  return s;
}

StagePerfCounters::StagePerfCounters(const Options& opts) {
#if defined(__linux__)
  const bool deny = opts.simulate_denied;
  // Leader reads the whole group in one syscall; members inherit its
  // enabled state, so one ENABLE arms all three for the thread's lifetime.
  group_fd_ = OpenCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1,
                          PERF_FORMAT_GROUP, deny);
  if (group_fd_ >= 0) {
    member_fds_[0] = OpenCounter(PERF_TYPE_HARDWARE,
                                 PERF_COUNT_HW_INSTRUCTIONS, group_fd_,
                                 PERF_FORMAT_GROUP, deny);
    member_fds_[1] = OpenCounter(PERF_TYPE_HARDWARE,
                                 PERF_COUNT_HW_CACHE_MISSES, group_fd_,
                                 PERF_FORMAT_GROUP, deny);
  }
  if (group_fd_ >= 0 && member_fds_[0] >= 0 && member_fds_[1] >= 0) {
    ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    available_ = true;
  } else {
    // All-or-nothing: close any partial opens so a half-programmed group
    // can never report misattributed deltas.
    for (int* fd : {&group_fd_, &member_fds_[0], &member_fds_[1]}) {
      if (*fd >= 0) close(*fd);
      *fd = -1;
    }
  }
#else
  (void)opts;
#endif
}

StagePerfCounters::~StagePerfCounters() {
#if defined(__linux__)
  for (int fd : {member_fds_[0], member_fds_[1], group_fd_}) {
    if (fd >= 0) close(fd);
  }
#endif
}

StageCounterSample StagePerfCounters::Read() const {
  StageCounterSample s;
#if defined(__linux__)
  if (!available_) return s;
  struct {
    uint64_t nr;
    uint64_t values[3];  // leader (cycles), instructions, LLC misses
  } buf;
  ssize_t n = read(group_fd_, &buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf)) || buf.nr != 3) return s;
  s.cycles = buf.values[0];
  s.instructions = buf.values[1];
  s.llc_misses = buf.values[2];
#endif
  return s;
}

StagePerfCounters* ThreadStageCounters(bool simulate_denied) {
  thread_local std::unique_ptr<StagePerfCounters> group;
  thread_local bool denied = false;
  if (group == nullptr || denied != simulate_denied) {
    group = std::make_unique<StagePerfCounters>(
        StagePerfCounters::Options{.simulate_denied = simulate_denied});
    denied = simulate_denied;
  }
  return group.get();
}

}  // namespace actjoin::util
