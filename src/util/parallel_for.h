// Batched parallel loop used by the probe phase of all joins.
//
// The paper parallelizes index probing by having worker threads fetch
// batches of 16 tuples at a time, synchronizing on a single atomic counter
// (Sec. 3.4). ParallelFor implements that scheme. The point-polygon join
// runs it with its kernel's block (act::kJoinBlock points) as the batch;
// the covering computation and other per-polygon loops reuse it too.
//
// ParallelFor is a template over the callable so the per-batch dispatch in
// the hot probe loop is a direct (inlinable) call, not a type-erased
// std::function invocation.

#ifndef ACTJOIN_UTIL_PARALLEL_FOR_H_
#define ACTJOIN_UTIL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/check.h"

namespace actjoin::util {

/// Default batch size from the paper: "Individual processing threads fetch
/// batches of 16 tuples at a time and synchronize using an atomic counter."
inline constexpr uint64_t kDefaultBatchSize = 16;

/// Number of worker threads to use when `requested` is 0. This is the
/// library-wide convention: a thread-count option of 0 means "use
/// DefaultThreadCount()" (hardware concurrency), and positive values are
/// taken literally.
int DefaultThreadCount();

/// Runs fn(begin, end, thread_id) over [0, n) in batches of `batch` items.
/// With threads == 1 the loop runs inline on the calling thread (no spawn),
/// which keeps single-threaded measurements clean.
template <typename Fn>
void ParallelFor(uint64_t n, int threads, uint64_t batch, Fn&& fn) {
  ACT_CHECK(batch > 0);
  if (threads <= 0) threads = DefaultThreadCount();
  if (n == 0) return;

  if (threads == 1) {
    // Inline execution preserves batching so per-batch overheads are
    // comparable with the multi-threaded path.
    for (uint64_t begin = 0; begin < n; begin += batch) {
      fn(begin, std::min(begin + batch, n), 0);
    }
    return;
  }

  std::atomic<uint64_t> next{0};
  auto worker = [&](int tid) {
    for (;;) {
      uint64_t begin = next.fetch_add(batch, std::memory_order_relaxed);
      if (begin >= n) return;
      fn(begin, std::min(begin + batch, n), tid);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& t : pool) t.join();
}

/// Convenience overload with the paper's batch size.
template <typename Fn>
void ParallelFor(uint64_t n, int threads, Fn&& fn) {
  ParallelFor(n, threads, kDefaultBatchSize, fn);
}

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_PARALLEL_FOR_H_
