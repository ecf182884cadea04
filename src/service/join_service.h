// JoinService: the embeddable geo-join server.
//
// Turns the paper's batch pipeline (build one index, run one Join) into a
// concurrent serving layer:
//
//   * Clients Submit() QueryBatches and get std::future<JoinResult> back;
//     a bounded MPMC queue (util::MpmcQueue) decouples producers from the
//     worker pool and applies backpressure (Submit blocks when full;
//     TrySubmit / TrySubmitAsync never block and return a typed
//     SubmitStatus rejection instead — the contract the network
//     front-end's event loop depends on).
//   * A pool of worker threads drains the queue; each request is joined
//     against the snapshot pinned at execution time, with the per-request
//     JoinMode (exact / approximate).
//   * The service serves a catalog of named datasets (ServiceCatalog):
//     each request routes by QueryBatch::dataset_id, an unknown id is a
//     typed kUnknownDataset rejection, and every dataset hot-swaps
//     independently: SwapIndex() publishes a new ShardedIndex through that
//     dataset's SnapshotRegistry while in-flight queries finish on the
//     snapshot they pinned — no stop-the-world, no torn reads.
//   * Per-service stats: QPS, queue-wait and service-latency p50/p99,
//     queue depth, snapshot epoch (see service_stats.h).
//
// Typical use:
//   auto idx = std::make_shared<const service::ShardedIndex>(
//       service::ShardedIndex::Build(polygons, grid, {}));
//   service::JoinService server(idx, {.worker_threads = 4});
//   auto future = server.Submit({cell_ids, points, act::JoinMode::kExact});
//   act::JoinStats stats = future.get().stats;

#ifndef ACTJOIN_SERVICE_JOIN_SERVICE_H_
#define ACTJOIN_SERVICE_JOIN_SERVICE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "act/join.h"
#include "geometry/point.h"
#include "service/index_registry.h"
#include "service/service_catalog.h"
#include "service/service_stats.h"
#include "service/sharded_index.h"
#include "service/slow_query_log.h"
#include "service/trace.h"
#include "util/metrics.h"
#include "util/mpmc_queue.h"
#include "util/timer.h"
#include "util/work_stealing_pool.h"

namespace actjoin::service {

class SubscriptionMatcher;

struct ServiceOptions {
  /// Worker threads draining the request queue. Library convention:
  /// 0 => util::DefaultThreadCount().
  int worker_threads = 0;
  /// Bounded request-queue capacity (backpressure threshold); clamped to
  /// >= 1 like the other options here.
  size_t queue_capacity = 256;
  /// Join width *inside* one request — the one width knob, for point
  /// joins and crossmatches alike (clamped to >= 1). The service owns one
  /// util::WorkStealingPool of threads_per_join - 1 workers, shared by
  /// every worker's join: all concurrent requests' task units drain
  /// through that fixed thread set (no per-request spawns, no nesting),
  /// and the submitting worker helps, so a lone request on an idle
  /// service runs threads_per_join wide. Default 1: the pool has no
  /// threads and every join runs inline on its worker — with a pool of
  /// workers, cross-request parallelism already saturates the cores.
  int threads_per_join = 1;
  /// Start the worker pool in the constructor. Tests set false to fill the
  /// queue deterministically, then call Start().
  bool autostart = true;
  /// Retired: every request runs the one ShardedIndex::Join executor, and
  /// this field has no effect. It stays only so that existing callers that
  /// set it to 0 still compile; it is deleted with the last such caller.
  size_t cell_cache_capacity = 0;
  /// Own a util::MetricsRegistry and register every subsystem's counters,
  /// latency histograms, per-dataset splits, slow-query log, and event log
  /// into it — the one source of every exported number (GET_METRICS,
  /// /metrics, /statusz, Stats()). Instruments are collection-time
  /// callbacks over state the hot path already maintains, so the recording
  /// cost is two relaxed counter adds per request — the bench smoke gates
  /// the end-to-end overhead at < 5%. Off: no registry, so those exits
  /// are all empty.
  bool enable_metrics = true;
  /// Capacity of the slow-query log (top-K completed requests by service
  /// time, always on) and of the structured event ring.
  size_t slow_query_log_capacity = 32;
  size_t event_log_capacity = 256;
  /// Opt-in hardware-counter stage attribution for both request kinds:
  /// every thread that runs a stage charges it through its own
  /// util::ThreadStageCounters group (cycles / instructions / LLC misses),
  /// one group read() per stage boundary, so the hot-path cost stays
  /// inside the bench smoke's 5% gate. Traced JOIN_BATCH and JOIN_DATASETS
  /// requests carry the per-stage deltas inline in the wire response's
  /// trace section; every JOIN_BATCH (traced or not) also feeds the
  /// stage_cycles / stage_instructions / stage_llc_misses registry
  /// histograms and the /statusz totals. When the kernel denies
  /// perf_event_open the mode degrades to all-zero deltas flagged
  /// unavailable — never fabricated numbers.
  bool stage_perf_counters = false;
  /// Test seam: force the denied-open fallback even where perf works (see
  /// util::StagePerfCounters::Options::simulate_denied).
  bool stage_perf_simulate_denied = false;
};

/// Typed verdict of a non-blocking submit. Everything except kAccepted is
/// a rejection *reason* the caller can surface (the network front-end maps
/// these onto wire error codes instead of blocking its event loop).
enum class SubmitStatus {
  kAccepted = 0,
  kQueueFull,        // bounded queue at capacity; retry is reasonable
  kShutDown,         // service no longer accepts work; retry is not
  kUnknownDataset,   // dataset_id was never assigned by the catalog
};

const char* ToString(SubmitStatus status);

/// Typed verdict of a live mutation (AddPolygons / RemovePolygons /
/// DropDataset). Everything except kApplied left the dataset untouched.
enum class MutationStatus {
  kApplied = 0,
  kUnknownDataset,   // id unassigned, or assigned but offline (no snapshot)
  kDropped,          // tombstoned: only a full SwapIndex can resurrect it
  kInvalidMutation,  // empty batch, out-of-range ids, or id space exhausted
  kShutDown,         // service no longer accepts work
};

const char* ToString(MutationStatus status);

struct MutationResult {
  MutationStatus status = MutationStatus::kApplied;
  /// Epoch the mutation published (0 unless kApplied).
  uint64_t epoch = 0;
  /// AddPolygons: global id assigned to the first added polygon (they are
  /// contiguous from here). 0 for the other operations.
  uint32_t first_id = 0;
  /// Size of the dataset's id space after the mutation (assign-only, so
  /// removals do not shrink it).
  uint64_t num_polygons = 0;
};

/// One request: owned point data (the service outlives the caller's
/// buffers), the join mode, and the target dataset. dataset_id 0 is the
/// first dataset added — for a single-dataset service constructed the
/// pre-catalog way, the default routes exactly as before.
struct QueryBatch {
  std::vector<uint64_t> cell_ids;
  std::vector<geom::Point> points;
  act::JoinMode mode = act::JoinMode::kExact;
  uint16_t dataset_id = 0;
  /// Request a per-stage trace: JoinResult::trace comes back enabled with
  /// the stage breakdown (and, over the wire, inline in the response).
  bool trace = false;
  /// Request id carried into the trace and the slow-query log. The network
  /// front-end sets it from the frame header; in-process callers may leave
  /// it 0.
  uint64_t trace_id = 0;
};

struct JoinResult {
  act::JoinStats stats;
  /// Registry epoch of the snapshot that served this request.
  uint64_t epoch = 0;
  double queue_wait_ms = 0;
  double service_ms = 0;
  /// Stage breakdown; enabled iff the request set QueryBatch::trace. The
  /// service fills queue/decompose/probe/merge; the network front-end
  /// fills admission/decode/respond around them.
  util::StageTrace trace;
};

class JoinService {
 public:
  using Snapshot = std::shared_ptr<const ShardedIndex>;

  /// Serves `initial` as dataset 0 ("default") until the first SwapIndex.
  /// `initial` must be non-null.
  explicit JoinService(Snapshot initial, const ServiceOptions& opts = {});

  /// Starts with an empty catalog: every submit is kUnknownDataset until
  /// datasets are added via catalog().Add (the warm-restart boot path —
  /// the store populates the catalog from its manifest, then the server
  /// opens its port).
  explicit JoinService(const ServiceOptions& opts);

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Shuts down (drains queued requests first).
  ~JoinService();

  /// Launches the worker pool; idempotent. Only needed when constructed
  /// with autostart = false.
  void Start();

  /// Enqueues a batch; blocks while the queue is full. After Shutdown the
  /// returned future carries a std::runtime_error.
  std::future<JoinResult> Submit(QueryBatch batch);

  /// Non-blocking submit with a typed verdict: on kAccepted, `*result` (if
  /// non-null) receives the future; on rejection no future is produced and
  /// the reason is counted in requests_rejected_total. Never blocks — the
  /// contract the event-driven network front-end depends on.
  SubmitStatus TrySubmit(QueryBatch batch, std::future<JoinResult>* result);

  /// Event-driven submit for callers that must not block *or* poll a
  /// future (the epoll server): on kAccepted, `done` runs exactly once on
  /// the worker thread that executed the batch, with the finished result.
  /// On rejection `done` is dropped without being invoked. `done` must not
  /// re-enter the service.
  SubmitStatus TrySubmitAsync(QueryBatch batch,
                              std::function<void(JoinResult)> done);

  /// Publishes a new snapshot for dataset 0 and returns its epoch (the
  /// single-dataset API; datasets must be non-empty). In-flight and
  /// already-dequeued requests finish on the snapshot they pinned;
  /// requests dequeued after the swap see the new one.
  uint64_t SwapIndex(Snapshot next) { return SwapIndex(0, std::move(next)); }

  /// Publishes a new snapshot for one dataset of the catalog; the id must
  /// be assigned. A full publish resets the dataset's mutation journal
  /// (the next checkpoint starts a fresh delta chain) and clears a
  /// DROP_DATASET tombstone — this is how a dropped dataset is
  /// resurrected.
  uint64_t SwapIndex(uint16_t dataset_id, Snapshot next);

  // --- Live mutation (wire protocol v3 meets the paper's update path) ------
  //
  // Each call applies one delta copy-on-write (ShardedIndex::ApplyDelta)
  // and publishes the result through the dataset's SnapshotRegistry:
  // in-flight joins finish on the snapshot they pinned, every request
  // dequeued after the publish probes the new one, and the mutation is
  // appended to the dataset's journal so the Checkpointer can persist it
  // as an O(churn) delta file. Mutations serialize on one mutation mutex
  // (publishes stay epoch-contiguous for the journal); joins never take
  // it.

  /// Appends polygons; ids are assigned contiguously from the dataset's
  /// current num_polygons (MutationResult::first_id).
  MutationResult AddPolygons(uint16_t dataset_id,
                             std::vector<geom::Polygon> polygons);

  /// Removes polygons by global id; ids stay assigned (zero counts
  /// forever) and are never reused. Out-of-range ids reject the whole
  /// batch typed; removing an already-removed id is a no-op.
  MutationResult RemovePolygons(uint16_t dataset_id,
                                std::vector<uint32_t> polygon_ids);

  /// Retires the dataset: publishes an empty snapshot and tombstones the
  /// id (joins and further mutations reject typed; the id and name stay
  /// assigned). A later full SwapIndex resurrects it.
  MutationResult DropDataset(uint16_t dataset_id);

  /// Queue-routed mutation for the event-driven front-end: on kAccepted,
  /// `work` runs exactly once on a worker thread — mutations take
  /// milliseconds and must never run on the epoll loop. `work` itself
  /// calls AddPolygons / RemovePolygons / DropDataset and delivers the
  /// typed result; the door here only rejects ids the catalog never
  /// assigned (a dropped or offline dataset still enqueues, so the
  /// mutation's own typed verdict — not a generic door rejection — makes
  /// it back to the client). On rejection `work` is dropped unrun.
  SubmitStatus TryMutateAsync(uint16_t dataset_id,
                              std::function<void()> work);

  /// Queue-routed generic task: on kAccepted, `work` runs exactly once on
  /// a worker thread. The seam higher layers (join2's dataset crossmatch)
  /// use to run multi-dataset operations on the service's workers with
  /// the service's backpressure — no catalog door here, because such an
  /// operation validates its datasets itself and delivers typed verdicts;
  /// queue-full / shutdown rejections are counted like any join's. On
  /// rejection `work` is dropped unrun.
  SubmitStatus TryRunAsync(std::function<void()> work);

  /// Pins and returns dataset 0's published snapshot (null before any
  /// dataset exists).
  Snapshot CurrentIndex() const {
    const ServiceCatalog::Registry* r = catalog_.Find(0);
    return r == nullptr ? nullptr : r->Acquire();
  }

  /// Dataset 0's epoch (0 before any dataset exists). Per-dataset epochs
  /// come from catalog().List().
  uint64_t epoch() const {
    const ServiceCatalog::Registry* r = catalog_.Find(0);
    return r == nullptr ? 0 : r->epoch();
  }

  /// The dataset catalog: add datasets, list them, reach per-dataset
  /// registries. Lives exactly as long as the service.
  ServiceCatalog& catalog() { return catalog_; }
  const ServiceCatalog& catalog() const { return catalog_; }

  /// Closes the queue, drains every already-accepted request, and joins
  /// the workers. Idempotent; called by the destructor.
  void Shutdown();

  /// The registry's samples mapped by StatsFromSamples: every series the
  /// registry holds, including a JoinServer's once one is attached. Empty
  /// when ServiceOptions enable_metrics is false (there is no registry).
  ServiceStats Stats() const;

  /// The service's metrics registry (null when ServiceOptions
  /// enable_metrics is false). Other layers — the network front-end, the
  /// store, the checkpointer — register their instruments here so one
  /// GET_METRICS collects the whole stack.
  util::MetricsRegistry* metrics() { return metrics_.get(); }
  const util::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Always-on top-K slow-query log (dumpable via GET_METRICS).
  const SlowQueryLog& slow_queries() const { return slow_queries_; }

  /// Entry point for higher layers that execute on the service's workers
  /// (TryRunAsync) and want their requests ranked with everything else.
  void RecordSlowQuery(const SlowQuery& q) { slow_queries_.Record(q); }

  /// Stage-attribution snapshot for /statusz: whether the mode is on,
  /// whether any worker actually opened its counter group, and per-stage
  /// totals accumulated across all workers since start.
  struct StagePerfTotals {
    bool enabled = false;
    bool available = false;
    std::array<util::StageCounterSample, kNumTraceStages> stage{};
  };
  StagePerfTotals StagePerfSnapshot() const;

  /// The calling thread's counter group (util::ThreadStageCounters, in
  /// this service's simulate_denied mode) when stage_perf_counters is on;
  /// null when it is off. What every stage lap of this service's requests
  /// charges, on whichever thread runs the stage.
  util::StagePerfCounters* StageCounters() const;

  /// Adds one stage's counter delta to the totals and the registry
  /// histograms. The worker path charges decompose/probe/merge through
  /// this; the network front-end charges admission/decode/respond (its
  /// stages run on its own threads, with their own per-thread groups).
  void RecordStageCounters(TraceStage stage,
                           const util::StageCounterSample& delta);

  /// The service's join pool: threads_per_join - 1 workers, never null
  /// (zero workers at the default width of 1). Pass it together with
  /// options().threads_per_join to a parallel executor; tasks run via
  /// TryRunAsync do so. It must never be used from *inside* one of its
  /// own pool tasks.
  util::WorkStealingPool* shared_pool() { return &join_pool_; }

  /// Charges one completed request of `points` work units against a
  /// dataset's traffic counters (points_served / completed). Joins charge
  /// automatically; queue-routed tasks (TryRunAsync) charge each dataset
  /// they touched through this — the crossmatch charges both sides.
  void ChargeDatasetServed(uint16_t dataset_id, uint64_t points);

  size_t QueueDepth() const { return queue_.size(); }
  const ServiceOptions& options() const { return opts_; }

  /// Attaches a continuous-query matcher (owned by the caller; must
  /// outlive the service or be detached with nullptr first). When set,
  /// every executed point batch feeds SubscriptionMatcher::OnPointBatch
  /// on the worker that ran it, and every publish (mutation or full
  /// swap) triggers OnEpochSwap on the publishing thread — the two hooks
  /// that turn standing subscriptions into pushed ENTER/LEAVE events.
  void set_subscription_matcher(SubscriptionMatcher* matcher) {
    subscriptions_.store(matcher, std::memory_order_release);
  }
  SubscriptionMatcher* subscription_matcher() const {
    return subscriptions_.load(std::memory_order_acquire);
  }

 private:
  struct Request {
    QueryBatch batch;
    std::promise<JoinResult> promise;
    /// Completion hook (TrySubmitAsync); when set, the result goes here
    /// instead of the promise.
    std::function<void(JoinResult)> done;
    /// Mutation task (TryMutateAsync); when set, the worker runs it and
    /// the join fields above are unused.
    std::function<void()> work;
    util::WallTimer enqueued;  // starts ticking at Submit time
  };

  /// Per-dataset traffic counters, catalog-style: a slot vector reserved
  /// to the full u16 id space so growth never invalidates the lock-free
  /// id-indexed read, with two relaxed adds per request on the hot path.
  struct DatasetCounters {
    std::atomic<uint64_t> points_served{0};
    std::atomic<uint64_t> completed{0};
  };

  void WorkerLoop(int worker_id);
  void Execute(Request& req, int worker_id);
  /// TrySubmit / TrySubmitAsync: the catalog door, then TryPush.
  SubmitStatus Enqueue(std::unique_ptr<Request> req);
  /// The one queue-push tail of every non-blocking submit: kAccepted, or
  /// the typed refusal (closed queue => kShutDown, else kQueueFull),
  /// counted in the stats.
  SubmitStatus TryPush(std::unique_ptr<Request> req);
  /// The dataset's counter slot, growing the vector on first touch (ids
  /// are catalog-assigned, hence dense and < 2^16).
  DatasetCounters& CountersFor(uint16_t dataset_id);
  void RegisterMetrics();
  void AppendEvent(std::string kind, std::string subject, std::string detail);
  MutationResult Mutate(uint16_t dataset_id, MutationRecord::Kind kind,
                        std::vector<geom::Polygon> add,
                        std::vector<uint32_t> remove);
  /// Runs the attached matcher's OnEpochSwap (outside mutation_mu_, so
  /// the track resync never extends the publish critical section).
  void NotifyEpochSwap(uint16_t dataset_id);

  ServiceOptions opts_;
  ServiceCatalog catalog_;
  util::MpmcQueue<std::unique_ptr<Request>> queue_;
  /// threads_per_join - 1 workers. ~JoinService() runs Shutdown(), which
  /// joins every service worker, before any member is destroyed, so no
  /// join is still running on this pool when it goes.
  util::WorkStealingPool join_pool_;
  ServiceStatsRecorder stats_;
  std::unique_ptr<util::MetricsRegistry> metrics_;     // null when disabled
  SlowQueryLog slow_queries_;
  /// Stage-attribution accumulators (relaxed adds on the worker path) and
  /// cached histogram instruments (null when metrics or the mode is off).
  struct StageCounterTotals {
    std::atomic<uint64_t> cycles{0};
    std::atomic<uint64_t> instructions{0};
    std::atomic<uint64_t> llc_misses{0};
  };
  std::array<StageCounterTotals, kNumTraceStages> stage_perf_totals_{};
  std::atomic<bool> stage_perf_available_{false};
  std::array<util::Histogram*, kNumTraceStages> stage_cycles_hist_{};
  std::array<util::Histogram*, kNumTraceStages> stage_instructions_hist_{};
  std::array<util::Histogram*, kNumTraceStages> stage_llc_hist_{};
  /// Index == dataset id, same reservation discipline as ServiceCatalog.
  std::vector<std::unique_ptr<DatasetCounters>> dataset_counters_;
  std::atomic<SubscriptionMatcher*> subscriptions_{nullptr};
  std::atomic<size_t> dataset_counters_size_{0};
  std::mutex dataset_counters_mu_;
  std::vector<std::thread> workers_;
  std::mutex lifecycle_mu_;  // guards Start/Shutdown transitions
  /// Serializes mutations and full swaps across all datasets, so each
  /// journal sees its publishes in epoch order with no gaps. Never taken
  /// on the join path.
  std::mutex mutation_mu_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_JOIN_SERVICE_H_
