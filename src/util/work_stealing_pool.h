// Work-stealing task pool shared by the serving layer's join executors.
//
// ParallelFor's atomic-counter loop balances one flat range perfectly, but
// the serving executors need something it cannot give: several
// *concurrent* joins, each decomposed into coarse sub-range task units, all
// drawing from one fixed thread budget without nested spawns. A static
// split of that budget would leave threads idle behind the slow tasks of
// the skewed taxi/Twitter-style batches the paper targets; here every
// thread of the budget drains whatever work is left.
//
// Design: a fixed set of worker threads, one mutex-protected deque per
// worker. A Run(n, fn) call block-distributes its n task indices across
// the worker deques in order — the static split is the starting
// assignment, so the uniform case behaves like before — and the stealing
// only rebalances: a worker pops its own deque from the front (its block,
// in order, so per-task memory access stays sequential) and, when empty,
// steals from the *back* of a victim's deque (the work farthest from what
// the victim will touch next). The submitting thread participates in the
// drain instead of blocking, so a pool of W workers runs a lone job W+1
// wide.
//
// Tasks here are coarse — thousands of probe points each, microseconds to
// milliseconds of work — so a per-deque mutex costs noise; the lock-free
// Chase-Lev refinement is not worth its memory-model subtlety at this
// granularity.
//
// Determinism contract: the pool guarantees every task runs exactly once
// and that all task side effects happen-before Run() returns. Callers that
// need deterministic *results* (the join executors do) have each task
// write to its own pre-allocated slot and merge the slots in fixed task
// order after Run() returns; execution interleaving then cannot be
// observed. See docs/executor.md.
//
// Lifecycle: Run() may be called from any thread, including several
// threads at once (the JoinService worker pool shares one instance).
// Tasks must not call Run() on their own pool. The destructor requires
// all Run() calls to have returned (each Run blocks until its own tasks
// finish, so quiescing the callers quiesces the pool).

#ifndef ACTJOIN_UTIL_WORK_STEALING_POOL_H_
#define ACTJOIN_UTIL_WORK_STEALING_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace actjoin::util {

class WorkStealingPool {
 public:
  /// Spawns `workers` threads (clamped to >= 0). A pool with 0 workers is
  /// valid: Run() then executes every task inline on the calling thread,
  /// preserving the library's "width 1 means no spawn" convention.
  explicit WorkStealingPool(int workers);

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Joins the workers. All Run() calls must have returned.
  ~WorkStealingPool();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(task_index) for every index in [0, num_tasks) and returns when
  /// all of them have finished. The calling thread helps drain the pool
  /// while it waits. Thread-safe: concurrent Run() calls interleave their
  /// tasks over the same workers.
  template <typename Fn>
  void Run(uint64_t num_tasks, Fn&& fn) {
    auto thunk = [](void* ctx, uint64_t index) {
      (*static_cast<std::remove_reference_t<Fn>*>(ctx))(index);
    };
    RunImpl(num_tasks, &fn, thunk);
  }

 private:
  using TaskFn = void (*)(void* ctx, uint64_t task_index);

  /// One Run() call in flight. Lives on the submitting thread's stack;
  /// `pending` counts tasks not yet finished and gates both the caller's
  /// return and the job's destruction.
  struct Job {
    void* ctx = nullptr;
    TaskFn fn = nullptr;
    std::atomic<uint64_t> pending{0};
    std::mutex mu;
    std::condition_variable done_cv;
  };

  struct Task {
    Job* job = nullptr;
    uint64_t index = 0;
  };

  /// Per-worker deque. Owner pops the front; thieves (other workers and
  /// helping submitters) take the back.
  struct WorkDeque {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void RunImpl(uint64_t num_tasks, void* ctx, TaskFn fn);
  void WorkerMain(int self);
  /// Executes one task from self's deque or, failing that, steals one.
  /// `self` is -1 for helping submitters (no own deque, steal only).
  bool RunOneTask(int self);
  static void ExecuteTask(const Task& task);

  std::vector<std::unique_ptr<WorkDeque>> deques_;
  std::vector<std::thread> workers_;

  // Sleep/wake protocol: submit_epoch_ bumps after every task injection,
  // so a worker that saw empty deques before the bump re-scans instead of
  // sleeping through the notify.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  uint64_t submit_epoch_ = 0;  // guarded by idle_mu_
  bool stop_ = false;          // guarded by idle_mu_
};

/// Effective parallel width of a Run() submitted to `pool` — its workers
/// plus the submitting caller — or, when `pool` is null or worker-less,
/// of a transient pool of `threads` (library convention: <= 0 means
/// DefaultThreadCount()). The one place the executors resolve "how wide
/// is this join" from (pool, thread-budget) pairs.
int EffectiveWidth(const WorkStealingPool* pool, int threads);

/// Runs fn(t) for every t in [0, num_tasks), `width` wide — the one
/// dispatcher the executors share. A lone task, or width <= 1, runs inline
/// on the calling thread even when `pool` has workers: waking them costs
/// more than the task, and the serving path's small batches hit this case
/// on every request. Otherwise the tasks drain through `pool` when it has
/// workers, else through a transient pool of width - 1 workers (the
/// caller is the +1). Pass `width` from EffectiveWidth(pool, ...).
template <typename Fn>
void RunTasks(WorkStealingPool* pool, int width, uint64_t num_tasks,
              Fn&& fn) {
  if (num_tasks <= 1 || width <= 1) {
    for (uint64_t t = 0; t < num_tasks; ++t) fn(t);
    return;
  }
  if (pool != nullptr && pool->num_workers() > 0) {
    pool->Run(num_tasks, fn);
    return;
  }
  WorkStealingPool transient(width - 1);
  transient.Run(num_tasks, fn);
}

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_WORK_STEALING_POOL_H_
