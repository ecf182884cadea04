#include "service/join_service.h"

#include <stdexcept>
#include <utility>

#include "service/subscription_matcher.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace actjoin::service {

namespace {

int ResolveWorkers(int requested) {
  return requested <= 0 ? util::DefaultThreadCount() : requested;
}

std::future<JoinResult> FailedFuture(const char* what) {
  std::promise<JoinResult> p;
  p.set_exception(std::make_exception_ptr(std::runtime_error(what)));
  return p.get_future();
}

}  // namespace

const char* ToString(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue full";
    case SubmitStatus::kShutDown:
      return "shut down";
    case SubmitStatus::kUnknownDataset:
      return "unknown dataset";
  }
  return "unknown";
}

const char* ToString(MutationStatus status) {
  switch (status) {
    case MutationStatus::kApplied:
      return "applied";
    case MutationStatus::kUnknownDataset:
      return "unknown dataset";
    case MutationStatus::kDropped:
      return "dataset dropped";
    case MutationStatus::kInvalidMutation:
      return "invalid mutation";
    case MutationStatus::kShutDown:
      return "shut down";
  }
  return "unknown";
}

JoinService::JoinService(Snapshot initial, const ServiceOptions& opts)
    : JoinService(opts) {
  ACT_CHECK_MSG(catalog_.Add("default", std::move(initial)).has_value(),
                "JoinService requires a non-null initial index");
}

JoinService::JoinService(const ServiceOptions& opts)
    : opts_(opts),
      queue_(std::max<size_t>(1, opts.queue_capacity)),
      join_pool_(std::max(1, opts.threads_per_join) - 1),
      stats_(ResolveWorkers(opts.worker_threads)),
      slow_queries_(opts.slow_query_log_capacity) {
  opts_.queue_capacity = queue_.capacity();
  opts_.worker_threads = ResolveWorkers(opts_.worker_threads);
  if (opts_.threads_per_join < 1) opts_.threads_per_join = 1;
  // Same reservation discipline as the catalog's slot vector: reserve the
  // whole u16 id space so push_back in CountersFor never reallocates under
  // a concurrent lock-free read in Execute.
  dataset_counters_.reserve(size_t{1} << 16);
  if (opts_.enable_metrics) {
    metrics_ = std::make_unique<util::MetricsRegistry>(
        std::max<size_t>(1, opts_.event_log_capacity));
    RegisterMetrics();
  }
  if (opts_.autostart) Start();
}

JoinService::~JoinService() { Shutdown(); }

void JoinService::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || shut_down_) return;
  started_ = true;
  workers_.reserve(static_cast<size_t>(opts_.worker_threads));
  for (int w = 0; w < opts_.worker_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

JoinService::DatasetCounters& JoinService::CountersFor(uint16_t dataset_id) {
  // Lock-free fast path, mirroring ServiceCatalog::Find: the slot array
  // never reallocates (reserved to the full id space) and size_ is
  // release-published after the slots exist.
  const size_t want = static_cast<size_t>(dataset_id) + 1;
  if (want > dataset_counters_size_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(dataset_counters_mu_);
    while (dataset_counters_.size() < want) {
      dataset_counters_.push_back(std::make_unique<DatasetCounters>());
    }
    if (dataset_counters_size_.load(std::memory_order_relaxed) < want) {
      dataset_counters_size_.store(dataset_counters_.size(),
                                   std::memory_order_release);
    }
  }
  return *dataset_counters_[dataset_id];
}

void JoinService::RegisterMetrics() {
  util::MetricsRegistry* r = metrics_.get();
  stats_.RegisterMetrics(r);
  r->RegisterGaugeFn("queue_depth", "Requests waiting in the bounded queue",
                     "", [this] { return static_cast<double>(queue_.size()); });
  r->RegisterGaugeFn("datasets", "Datasets in the catalog", "",
                     [this] { return static_cast<double>(catalog_.size()); });
  // Per-dataset splits as family callbacks: series appear the moment a
  // dataset enters the catalog — including datasets added behind the
  // service's back via catalog().Add on the warm-restart path.
  r->RegisterGaugeFamilyFn(
      "dataset_epoch", "Current snapshot epoch per dataset", [this] {
        util::MetricsRegistry::FamilySeries out;
        for (const DatasetInfo& info : catalog_.List()) {
          out.emplace_back("dataset=\"" + info.name + "\"",
                           static_cast<double>(info.epoch));
        }
        return out;
      });
  r->RegisterCounterFamilyFn(
      "dataset_points_served_total", "Probe points served per dataset",
      [this] {
        util::MetricsRegistry::FamilySeries out;
        const size_t n = dataset_counters_size_.load(std::memory_order_acquire);
        for (const DatasetInfo& info : catalog_.List()) {
          const uint64_t v =
              info.id < n ? dataset_counters_[info.id]->points_served.load(
                                std::memory_order_relaxed)
                          : 0;
          out.emplace_back("dataset=\"" + info.name + "\"",
                           static_cast<double>(v));
        }
        return out;
      });
  r->RegisterCounterFamilyFn(
      "dataset_requests_completed_total", "Join requests completed per dataset",
      [this] {
        util::MetricsRegistry::FamilySeries out;
        const size_t n = dataset_counters_size_.load(std::memory_order_acquire);
        for (const DatasetInfo& info : catalog_.List()) {
          const uint64_t v =
              info.id < n ? dataset_counters_[info.id]->completed.load(
                                std::memory_order_relaxed)
                          : 0;
          out.emplace_back("dataset=\"" + info.name + "\"",
                           static_cast<double>(v));
        }
        return out;
      });
  if (opts_.stage_perf_counters) {
    for (int i = 0; i < kNumTraceStages; ++i) {
      const auto s = static_cast<TraceStage>(i);
      // A queued request burns no attributable CPU; the stage exists on
      // the wire (zeros) but gets no histogram series.
      if (s == TraceStage::kQueue) continue;
      const std::string labels =
          std::string("stage=\"") + TraceStageName(s) + "\"";
      stage_cycles_hist_[i] = r->GetHistogram(
          "stage_cycles",
          "CPU cycles per request per serving stage (raw counts; the "
          "exposition's seconds scaling makes buckets 1e-6 of the count)",
          labels);
      stage_instructions_hist_[i] = r->GetHistogram(
          "stage_instructions",
          "Instructions retired per request per serving stage (raw counts)",
          labels);
      stage_llc_hist_[i] = r->GetHistogram(
          "stage_llc_misses",
          "Last-level cache misses per request per serving stage (raw counts)",
          labels);
    }
  }
}

JoinService::StagePerfTotals JoinService::StagePerfSnapshot() const {
  StagePerfTotals out;
  out.enabled = opts_.stage_perf_counters;
  out.available = stage_perf_available_.load(std::memory_order_acquire);
  for (int i = 0; i < kNumTraceStages; ++i) {
    const StageCounterTotals& t = stage_perf_totals_[i];
    out.stage[i].cycles = t.cycles.load(std::memory_order_relaxed);
    out.stage[i].instructions = t.instructions.load(std::memory_order_relaxed);
    out.stage[i].llc_misses = t.llc_misses.load(std::memory_order_relaxed);
  }
  return out;
}

util::StagePerfCounters* JoinService::StageCounters() const {
  return opts_.stage_perf_counters
             ? util::ThreadStageCounters(opts_.stage_perf_simulate_denied)
             : nullptr;
}

void JoinService::RecordStageCounters(TraceStage stage,
                                      const util::StageCounterSample& delta) {
  const int i = static_cast<int>(stage);
  StageCounterTotals& t = stage_perf_totals_[i];
  t.cycles.fetch_add(delta.cycles, std::memory_order_relaxed);
  t.instructions.fetch_add(delta.instructions, std::memory_order_relaxed);
  t.llc_misses.fetch_add(delta.llc_misses, std::memory_order_relaxed);
  if (stage_cycles_hist_[i] != nullptr) {
    stage_cycles_hist_[i]->Record(static_cast<double>(delta.cycles));
    stage_instructions_hist_[i]->Record(
        static_cast<double>(delta.instructions));
    stage_llc_hist_[i]->Record(static_cast<double>(delta.llc_misses));
  }
}

void JoinService::AppendEvent(std::string kind, std::string subject,
                              std::string detail) {
  if (metrics_ == nullptr) return;
  metrics_->events().Append(std::move(kind), std::move(subject),
                            std::move(detail));
}

std::future<JoinResult> JoinService::Submit(QueryBatch batch) {
  if (!catalog_.Servable(batch.dataset_id)) {
    stats_.RecordRejectedUnknownDataset();
    return FailedFuture("JoinService: unknown dataset");
  }
  auto req = std::make_unique<Request>();
  req->batch = std::move(batch);
  std::future<JoinResult> future = req->promise.get_future();
  if (!queue_.Push(std::move(req))) {
    stats_.RecordRejectedShutdown();
    return FailedFuture("JoinService: submit after shutdown");
  }
  return future;
}

SubmitStatus JoinService::Enqueue(std::unique_ptr<Request> req) {
  // Dataset ids and snapshots are assigned-only (never revoked), so a
  // positive check here cannot be invalidated between enqueue and
  // execution.
  if (!catalog_.Servable(req->batch.dataset_id)) {
    stats_.RecordRejectedUnknownDataset();
    return SubmitStatus::kUnknownDataset;
  }
  return TryPush(std::move(req));
}

SubmitStatus JoinService::TryPush(std::unique_ptr<Request> req) {
  if (queue_.TryPush(req)) return SubmitStatus::kAccepted;
  // TryPush refuses for exactly two reasons; closed() distinguishes them.
  if (queue_.closed()) {
    stats_.RecordRejectedShutdown();
    return SubmitStatus::kShutDown;
  }
  stats_.RecordRejectedQueueFull();
  return SubmitStatus::kQueueFull;
}

SubmitStatus JoinService::TrySubmit(QueryBatch batch,
                                    std::future<JoinResult>* result) {
  auto req = std::make_unique<Request>();
  req->batch = std::move(batch);
  std::future<JoinResult> future = req->promise.get_future();
  SubmitStatus status = Enqueue(std::move(req));
  if (status == SubmitStatus::kAccepted && result != nullptr) {
    *result = std::move(future);
  }
  return status;
}

SubmitStatus JoinService::TrySubmitAsync(QueryBatch batch,
                                         std::function<void(JoinResult)> done) {
  auto req = std::make_unique<Request>();
  req->batch = std::move(batch);
  req->done = std::move(done);
  return Enqueue(std::move(req));
}

uint64_t JoinService::SwapIndex(uint16_t dataset_id, Snapshot next) {
  ServiceCatalog::Registry* registry = catalog_.Find(dataset_id);
  ACT_CHECK_MSG(registry != nullptr, "SwapIndex on an unassigned dataset id");
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    epoch = registry->Publish(std::move(next));
    // A full publish obsoletes the delta chain: nothing at or before this
    // epoch will ever need replay, and a tombstoned dataset is resurrected.
    if (MutationJournal* journal = catalog_.JournalOf(dataset_id)) {
      journal->Reset(epoch);
    }
    catalog_.MarkDropped(dataset_id, false);
    AppendEvent("swap", catalog_.NameOf(dataset_id),
                "epoch " + std::to_string(epoch));
  }
  NotifyEpochSwap(dataset_id);
  return epoch;
}

void JoinService::NotifyEpochSwap(uint16_t dataset_id) {
  if (SubscriptionMatcher* subs =
          subscriptions_.load(std::memory_order_acquire)) {
    subs->OnEpochSwap(dataset_id);
  }
}

MutationResult JoinService::AddPolygons(uint16_t dataset_id,
                                        std::vector<geom::Polygon> polygons) {
  MutationResult out = Mutate(dataset_id, MutationRecord::Kind::kAdd,
                              std::move(polygons), {});
  if (out.status == MutationStatus::kApplied) NotifyEpochSwap(dataset_id);
  return out;
}

MutationResult JoinService::RemovePolygons(
    uint16_t dataset_id, std::vector<uint32_t> polygon_ids) {
  MutationResult out = Mutate(dataset_id, MutationRecord::Kind::kRemove, {},
                              std::move(polygon_ids));
  if (out.status == MutationStatus::kApplied) NotifyEpochSwap(dataset_id);
  return out;
}

MutationResult JoinService::DropDataset(uint16_t dataset_id) {
  MutationResult out = Mutate(dataset_id, MutationRecord::Kind::kDrop, {}, {});
  if (out.status == MutationStatus::kApplied) NotifyEpochSwap(dataset_id);
  return out;
}

MutationResult JoinService::Mutate(uint16_t dataset_id,
                                   MutationRecord::Kind kind,
                                   std::vector<geom::Polygon> add,
                                   std::vector<uint32_t> remove) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  MutationResult out;
  ServiceCatalog::Registry* registry = catalog_.Find(dataset_id);
  if (registry == nullptr || registry->epoch() == 0) {
    out.status = MutationStatus::kUnknownDataset;
    stats_.RecordRejectedMutation();
    return out;
  }
  if (catalog_.IsDropped(dataset_id)) {
    out.status = MutationStatus::kDropped;
    stats_.RecordRejectedMutation();
    return out;
  }

  Snapshot base = registry->Acquire();
  Snapshot next;
  switch (kind) {
    case MutationRecord::Kind::kAdd: {
      // Polygon ids are 30-bit (act::kMaxPolygonId); a batch that would
      // overflow the id space rejects whole, like an out-of-range remove.
      if (add.empty() ||
          base->num_polygons() + add.size() > act::kMaxPolygonId + uint64_t{1}) {
        out.status = MutationStatus::kInvalidMutation;
        stats_.RecordRejectedMutation();
        return out;
      }
      for (const geom::Polygon& p : add) {
        if (p.rings().empty()) {
          out.status = MutationStatus::kInvalidMutation;
          stats_.RecordRejectedMutation();
          return out;
        }
      }
      ShardedIndex::Delta delta;
      delta.add = add;
      ShardedIndex::DeltaResult applied =
          ShardedIndex::ApplyDelta(*base, delta);
      next = std::move(applied.index);
      out.first_id = applied.first_added_id;
      break;
    }
    case MutationRecord::Kind::kRemove: {
      if (remove.empty()) {
        out.status = MutationStatus::kInvalidMutation;
        stats_.RecordRejectedMutation();
        return out;
      }
      for (uint32_t gid : remove) {
        if (gid >= base->num_polygons()) {
          out.status = MutationStatus::kInvalidMutation;
          stats_.RecordRejectedMutation();
          return out;
        }
      }
      ShardedIndex::Delta delta;
      delta.remove = remove;
      next = ShardedIndex::ApplyDelta(*base, delta).index;
      break;
    }
    case MutationRecord::Kind::kDrop: {
      // Retire by publishing an empty snapshot (catalog rule: datasets are
      // never removed) and tombstoning the id before the publish, so no
      // new join admits against the dropped name.
      next = std::make_shared<const ShardedIndex>(ShardedIndex::Build(
          {}, base->grid(), base->options()));
      catalog_.MarkDropped(dataset_id, true);
      break;
    }
  }

  out.epoch = registry->Publish(std::move(next));
  out.num_polygons =
      kind == MutationRecord::Kind::kDrop
          ? 0
          : base->num_polygons() + add.size();
  const size_t added_count = add.size();
  const size_t removed_count = remove.size();
  if (MutationJournal* journal = catalog_.JournalOf(dataset_id)) {
    MutationRecord rec;
    rec.kind = kind;
    rec.epoch = out.epoch;
    rec.added = std::move(add);
    rec.removed = std::move(remove);
    journal->Append(std::move(rec));
  }
  stats_.RecordMutationApplied();
  switch (kind) {
    case MutationRecord::Kind::kAdd:
      AppendEvent("delta_apply", catalog_.NameOf(dataset_id),
                  "epoch " + std::to_string(out.epoch) + ", +" +
                      std::to_string(added_count) + " polygons");
      break;
    case MutationRecord::Kind::kRemove:
      AppendEvent("delta_apply", catalog_.NameOf(dataset_id),
                  "epoch " + std::to_string(out.epoch) + ", -" +
                      std::to_string(removed_count) + " polygons");
      break;
    case MutationRecord::Kind::kDrop:
      AppendEvent("drop", catalog_.NameOf(dataset_id),
                  "epoch " + std::to_string(out.epoch));
      break;
  }
  return out;
}

SubmitStatus JoinService::TryMutateAsync(uint16_t dataset_id,
                                         std::function<void()> work) {
  // Unlike the join door, a dropped or offline dataset still enqueues:
  // the mutation's own typed verdict (kDropped / kUnknownDataset) is more
  // useful to the client than a generic door rejection, and the race
  // between a door check and the worker running the mutation is decided
  // once, inside Mutate, under the mutation mutex.
  if (!catalog_.Contains(dataset_id)) {
    stats_.RecordRejectedMutation();
    return SubmitStatus::kUnknownDataset;
  }
  auto req = std::make_unique<Request>();
  req->batch.dataset_id = dataset_id;
  req->work = std::move(work);
  return TryPush(std::move(req));
}

SubmitStatus JoinService::TryRunAsync(std::function<void()> work) {
  // No catalog door: the task owns its dataset validation (it may touch
  // several datasets, each with its own typed verdict). Queue rejections
  // still count so backpressure stays visible in ServiceStats.
  auto req = std::make_unique<Request>();
  req->work = std::move(work);
  return TryPush(std::move(req));
}

void JoinService::ChargeDatasetServed(uint16_t dataset_id, uint64_t points) {
  DatasetCounters& counters = CountersFor(dataset_id);
  counters.points_served.fetch_add(points, std::memory_order_relaxed);
  counters.completed.fetch_add(1, std::memory_order_relaxed);
}

void JoinService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Close lets workers drain the backlog, then their Pop() returns
  // nullopt and they exit. With the pool never started, drain the backlog
  // here so accepted requests still complete (on the caller's thread).
  queue_.Close();
  if (workers_.empty()) {
    while (auto req = queue_.Pop()) Execute(**req, 0);
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

ServiceStats JoinService::Stats() const {
  std::vector<util::MetricSample> samples;
  if (metrics_ != nullptr) samples = util::FlattenSamples(metrics_->Collect());
  return StatsFromSamples(samples);
}

void JoinService::WorkerLoop(int worker_id) {
  // Open this worker's counter group up front, so StagePerfSnapshot()
  // reports availability before the first request is served.
  if (const util::StagePerfCounters* group = StageCounters();
      group != nullptr && group->available()) {
    stage_perf_available_.store(true, std::memory_order_release);
  }
  while (auto req = queue_.Pop()) Execute(**req, worker_id);
}

void JoinService::Execute(Request& req, int worker_id) {
  if (req.work) {
    // Mutation task: runs the delta apply + publish on this worker thread
    // and delivers its own typed result; none of the join bookkeeping
    // below applies.
    req.work();
    return;
  }
  double queue_wait_ms = req.enqueued.ElapsedMillis();
  util::WallTimer service_timer;

  JoinResult result;
  // The submit-side catalog check plus assigned-only ids guarantee the
  // registry exists and holds a non-null snapshot by the time a request
  // is dequeued.
  const ServiceCatalog::Registry* registry =
      catalog_.Find(req.batch.dataset_id);
  ACT_CHECK_MSG(registry != nullptr, "request routed to an unknown dataset");
  Snapshot snapshot = registry->Acquire(&result.epoch);
  act::JoinInput input{req.batch.cell_ids, req.batch.points};
  ShardedIndex::JoinPhaseTimes phases;
  const bool traced = req.batch.trace;
  // Stage attribution reads this worker's counter group at the phase
  // boundaries for *every* request (the histograms want the fleet, not
  // just traced requests); the deltas ride the wire only when traced.
  const util::StagePerfCounters* stage_perf = StageCounters();
  const bool want_phases = traced || stage_perf != nullptr;
  // The join's task units drain through the service pool (this worker
  // helps); at threads_per_join = 1 it has no workers and runs inline.
  result.stats =
      snapshot->Join(input, {req.batch.mode, opts_.threads_per_join},
                     &join_pool_, want_phases ? &phases : nullptr,
                     stage_perf);
  result.queue_wait_ms = queue_wait_ms;
  result.service_ms = service_timer.ElapsedMillis();

  if (traced) {
    util::StageTrace& trace = result.trace;
    trace.enabled = true;
    trace.request_id = req.batch.trace_id;
    trace.counters_enabled = opts_.stage_perf_counters;
    trace.counters_available = phases.counters_valid;
    trace.at(TraceStage::kQueue) = queue_wait_ms * 1e3;
    trace.Charge(TraceStage::kDecompose,
                 {phases.route_us, phases.route_counters});
    trace.Charge(TraceStage::kProbe, {phases.probe_us, phases.probe_counters});
    // Merge absorbs the service-wall leftover (snapshot pin, stats copy,
    // anything between the measured phases), so the stages tile the
    // request's server-side time instead of under-reporting it.
    const double leftover = result.service_ms * 1e3 - phases.route_us -
                            phases.probe_us - phases.merge_us;
    trace.Charge(TraceStage::kMerge,
                 {phases.merge_us + (leftover > 0 ? leftover : 0),
                  phases.merge_counters});
  }
  if (phases.counters_valid) {
    RecordStageCounters(TraceStage::kDecompose, phases.route_counters);
    RecordStageCounters(TraceStage::kProbe, phases.probe_counters);
    RecordStageCounters(TraceStage::kMerge, phases.merge_counters);
  }

  stats_.RecordServed(worker_id, queue_wait_ms * 1e3, result.service_ms * 1e3,
                      input.size());
  DatasetCounters& counters = CountersFor(req.batch.dataset_id);
  counters.points_served.fetch_add(input.size(), std::memory_order_relaxed);
  counters.completed.fetch_add(1, std::memory_order_relaxed);
  SlowQuery slow;
  slow.request_id = req.batch.trace_id;
  slow.dataset_id = req.batch.dataset_id;
  slow.num_points = input.size();
  slow.epoch = result.epoch;
  slow.queue_wait_us = queue_wait_ms * 1e3;
  slow.service_us = result.service_ms * 1e3;
  slow_queries_.Record(slow);
  if (SubscriptionMatcher* subs =
          subscriptions_.load(std::memory_order_acquire)) {
    if (subs->HasSubscriptions(req.batch.dataset_id)) {
      subs->OnPointBatch(req.batch.dataset_id, req.batch.cell_ids,
                         req.batch.points);
    }
  }
  if (req.done) {
    req.done(std::move(result));
  } else {
    req.promise.set_value(std::move(result));
  }
}

}  // namespace actjoin::service
