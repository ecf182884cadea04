#include "join2/dataset_cross_matcher.h"

#include <utility>

#include "util/stage_trace.h"
#include "util/timer.h"

namespace actjoin::join2 {

const char* ToString(CrossMatchStatus status) {
  switch (status) {
    case CrossMatchStatus::kOk:
      return "ok";
    case CrossMatchStatus::kUnknownDataset:
      return "unknown_dataset";
    case CrossMatchStatus::kDatasetDropped:
      return "dataset_dropped";
  }
  return "?";
}

DatasetCrossMatcher::DatasetCrossMatcher(service::JoinService* service)
    : service_(service) {
  RegisterMetrics();
}

void DatasetCrossMatcher::RegisterMetrics() {
  util::MetricsRegistry* m = service_->metrics();
  if (m == nullptr) return;
  requests_total_ = m->GetCounter("crossmatch_requests_total",
                                  "Dataset crossmatch joins completed");
  rejected_total_ =
      m->GetCounter("crossmatch_rejected_total",
                    "Crossmatch requests rejected at dataset validation");
  candidate_pairs_total_ =
      m->GetCounter("crossmatch_candidate_pairs_total",
                    "Candidate polygon pairs emitted by the dual descent");
  refined_pairs_total_ =
      m->GetCounter("crossmatch_refined_pairs_total",
                    "Polygon-polygon predicate evaluations");
  result_pairs_total_ = m->GetCounter("crossmatch_result_pairs_total",
                                      "Crossmatch result pairs returned");
  pruned_span_pairs_total_ =
      m->GetCounter("crossmatch_pruned_span_pairs_total",
                    "Span pairs pruned as disjoint during the descent");
  last_depth_ = m->GetGauge("crossmatch_last_descent_depth",
                            "Deepest span pair of the last crossmatch");
  service_time_us_ = m->GetHistogram("crossmatch_service_time_us",
                                     "Crossmatch service time per request");
  view_builds_total_ = m->GetCounter(
      "crossmatch_view_builds_total",
      "Crossmatch probe-surface (IntervalView) builds: one per dataset "
      "epoch, plus one per request that pinned a superseded epoch");
}

namespace {

/// Typed validation of one side. kOk means servable *now*; the verdict
/// can only be invalidated by a later drop, which the execution-time
/// re-check catches.
CrossMatchStatus ValidateSide(const service::ServiceCatalog& catalog,
                              uint16_t id) {
  if (catalog.IsDropped(id)) return CrossMatchStatus::kDatasetDropped;
  if (!catalog.Servable(id)) return CrossMatchStatus::kUnknownDataset;
  return CrossMatchStatus::kOk;
}

}  // namespace

CrossMatchOutcome DatasetCrossMatcher::Execute(const CrossMatchRequest& req,
                                               double queue_wait_us) {
  util::WallTimer timer;
  CrossMatchOutcome out;
  out.queue_wait_us = queue_wait_us;
  const service::ServiceCatalog& catalog = service_->catalog();
  for (uint16_t id : {req.dataset_a, req.dataset_b}) {
    const CrossMatchStatus verdict = ValidateSide(catalog, id);
    if (verdict != CrossMatchStatus::kOk) {
      out.status = verdict;
      out.offending_dataset = id;
      if (rejected_total_ != nullptr) rejected_total_->Inc();
      return out;
    }
  }
  const util::StagePerfCounters* stage_perf = service_->StageCounters();
  util::StageLap lap(req.trace ? stage_perf : nullptr);
  // Pin both snapshots for the duration of the join. Servable() was true
  // above, so both registries exist and have published (epoch != 0); a
  // concurrent swap/delta/drop retires neither pinned snapshot. A
  // self-join pins once, so both sides are the same epoch.
  const bool self_join = req.dataset_a == req.dataset_b;
  service::ServiceCatalog::Snapshot snap_a =
      catalog.Find(req.dataset_a)->Acquire(&out.epoch_a);
  service::ServiceCatalog::Snapshot snap_b = snap_a;
  out.epoch_b = out.epoch_a;
  if (!self_join) {
    snap_b = catalog.Find(req.dataset_b)->Acquire(&out.epoch_b);
  }
  const std::shared_ptr<const IntervalView> view_a =
      ViewOf(req.dataset_a, *snap_a, out.epoch_a);
  const std::shared_ptr<const IntervalView> view_b =
      self_join ? view_a : ViewOf(req.dataset_b, *snap_b, out.epoch_b);
  CrossMatchPhaseTimes phases;
  const util::StageSplit pin = lap.Lap();
  phases.pin_us = pin.us;
  phases.pin_counters = pin.counters;

  CrossMatchOptions opts;
  opts.mode = req.mode;
  opts.threads = service_->options().threads_per_join;
  out.pairs = CrossMatch(*view_a, *view_b, opts, service_->shared_pool(),
                         &out.stats, req.trace ? &phases : nullptr,
                         stage_perf);
  out.service_us = timer.ElapsedSeconds() * 1e6;

  if (req.trace) {
    util::StageTrace& trace = out.trace;
    trace.enabled = true;
    trace.request_id = req.request_id;
    trace.counters_enabled = service_->options().stage_perf_counters;
    trace.counters_available = phases.counters_valid;
    trace.at(CrossMatchStage::kQueue) = out.queue_wait_us;
    trace.Charge(CrossMatchStage::kPin, {phases.pin_us, phases.pin_counters});
    trace.Charge(CrossMatchStage::kDescend,
                 {phases.descend_us, phases.descend_counters});
    // Refine absorbs the service-wall leftover (validation, result move)
    // so the worker-side stages tile service_us — the same discipline as
    // JOIN_BATCH's merge stage.
    const double leftover =
        out.service_us - phases.pin_us - phases.descend_us - phases.refine_us;
    trace.Charge(CrossMatchStage::kRefine,
                 {phases.refine_us + (leftover > 0 ? leftover : 0),
                  phases.refine_counters});
  }

  // Both sides served one request each; the work unit is the polygon set
  // the join scanned on that side (the crossmatch analogue of a point
  // batch's size).
  service_->ChargeDatasetServed(req.dataset_a, snap_a->num_polygons());
  service_->ChargeDatasetServed(req.dataset_b, snap_b->num_polygons());
  // Slow-query entry: dataset_id names the a-side (the routed side on the
  // wire), num_points carries the result-pair count, epoch the a-side
  // epoch — documented in docs/observability-facing docs.
  service_->RecordSlowQuery({.request_id = req.request_id,
                             .dataset_id = req.dataset_a,
                             .num_points = out.stats.result_pairs,
                             .epoch = out.epoch_a,
                             .queue_wait_us = out.queue_wait_us,
                             .service_us = out.service_us});
  if (requests_total_ != nullptr) {
    requests_total_->Inc();
    candidate_pairs_total_->Inc(out.stats.candidate_pairs);
    refined_pairs_total_->Inc(out.stats.refined_pairs);
    result_pairs_total_->Inc(out.stats.result_pairs);
    pruned_span_pairs_total_->Inc(out.stats.pruned_pairs);
    last_depth_->Set(out.stats.max_depth);
    service_time_us_->Record(out.service_us);
  }
  return out;
}

std::shared_ptr<const IntervalView> DatasetCrossMatcher::ViewOf(
    uint16_t id, const service::ShardedIndex& index, uint64_t epoch) {
  CachedView* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(views_mu_);
    slot = &views_[id];
    if (slot->epoch == epoch) return slot->view;
  }
  std::lock_guard<std::mutex> build(slot->build_mu);
  {
    // A concurrent first crossmatch of this epoch may have built it while
    // this one waited for build_mu.
    std::lock_guard<std::mutex> lock(views_mu_);
    if (slot->epoch == epoch) return slot->view;
  }
  auto view = std::make_shared<const IntervalView>(
      IntervalView::FromIndex(index));
  if (view_builds_total_ != nullptr) view_builds_total_->Inc();
  std::lock_guard<std::mutex> lock(views_mu_);
  if (epoch > slot->epoch) {  // never regress to a slow worker's epoch
    slot->epoch = epoch;
    slot->view = view;
  }
  return view;
}

CrossMatchOutcome DatasetCrossMatcher::Run(const CrossMatchRequest& req) {
  return Execute(req, /*queue_wait_us=*/0);
}

service::SubmitStatus DatasetCrossMatcher::TryCrossMatchAsync(
    const CrossMatchRequest& req,
    std::function<void(CrossMatchOutcome)> done) {
  // Early door on the a-side only, mirroring the join door's contract
  // (kUnknownDataset for a never-assigned id). Everything subtler —
  // offline, dropped, b-side anything — enqueues and comes back as the
  // execution-time typed verdict, which is also what decides races with
  // in-queue drops.
  if (!service_->catalog().Contains(req.dataset_a)) {
    return service::SubmitStatus::kUnknownDataset;
  }
  auto started = std::make_shared<util::WallTimer>();
  return service_->TryRunAsync(
      [this, req, started, done = std::move(done)]() {
        const double wait_us = started->ElapsedSeconds() * 1e6;
        done(Execute(req, wait_us));
      });
}

}  // namespace actjoin::join2
