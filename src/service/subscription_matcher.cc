#include "service/subscription_matcher.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "act/pipeline.h"
#include "act/super_covering.h"

namespace actjoin::service {

namespace {

/// Walks every covering cell of the dataset's trie: its leaf-id range
/// and polygon references.
template <typename Fn>
void ForEachCoveringCell(const ShardedIndex& index, Fn&& fn) {
  if (index.index() == nullptr) return;
  const act::SuperCovering& sc = index.index()->covering();
  for (size_t i = 0; i < sc.size(); ++i) {
    const act::RefList& refs = sc.refs(i);
    if (refs.empty()) continue;
    fn(sc.cell(i).range_min().id(), sc.cell(i).range_max().id(), refs);
  }
}

void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

void SubscriptionMatcher::ResolveWatched(const ShardedIndex& index,
                                         Sub* sub) {
  using Selector = SubscriptionSpec::Selector;
  sub->watch_all = sub->spec.selector == Selector::kAll;
  if (sub->spec.selector == Selector::kPolygonIds) {
    sub->watched = sub->spec.polygon_ids;
    SortUnique(&sub->watched);
  } else if (sub->spec.selector == Selector::kCellRange) {
    // The watched set is every polygon whose covering touches the
    // requested region. The polygon is then watched *everywhere* — a
    // track leaving it through the far side still gets its LEAVE.
    std::vector<uint32_t> watched;
    ForEachCoveringCell(
        index, [&](uint64_t lo, uint64_t hi, const act::RefList& refs) {
          if (hi < sub->spec.cell_lo || lo > sub->spec.cell_hi) return;
          for (const act::PolygonRef& r : refs) {
            watched.push_back(r.polygon_id);
          }
        });
    SortUnique(&watched);
    sub->watched = std::move(watched);
  } else {
    sub->watched.clear();
  }
}

void SubscriptionMatcher::Probe(const ShardedIndex& index, Group* g) {
  ProbeBuffers& b = g->buf;
  const size_t m = b.cells.size();
  points_probed_.fetch_add(m, std::memory_order_relaxed);
  b.pairs = index.JoinPairs({b.cells, b.points}, act::JoinMode::kExact,
                            /*threads=*/1);
  // Pairs are sorted by (probed track, polygon id): bucket them by track.
  b.pair_begin.assign(m + 1, 0);
  for (const auto& [k, gid] : b.pairs) ++b.pair_begin[k + 1];
  for (size_t k = 0; k < m; ++k) b.pair_begin[k + 1] += b.pair_begin[k];
}

void SubscriptionMatcher::Diff(Group* g, Sub* sub, size_t k,
                               uint32_t track_id) {
  ProbeBuffers& b = g->buf;
  b.now.clear();
  for (size_t i = b.pair_begin[k]; i < b.pair_begin[k + 1]; ++i) {
    const uint32_t gid = b.pairs[i].second;
    if (!sub->watch_all &&
        !std::binary_search(sub->watched.begin(), sub->watched.end(), gid)) {
      continue;
    }
    if (b.now.empty() || b.now.back() != gid) b.now.push_back(gid);
  }
  std::vector<uint32_t>& before = sub->inside[track_id];
  b.gone.clear();
  b.came.clear();
  std::set_difference(before.begin(), before.end(), b.now.begin(),
                      b.now.end(), std::back_inserter(b.gone));
  std::set_difference(b.now.begin(), b.now.end(), before.begin(),
                      before.end(), std::back_inserter(b.came));
  if (sub->spec.mode != SubscriptionMode::kEnterOnly) {
    for (uint32_t gid : b.gone) {
      sub->pending.push_back({GeoEventKind::kLeave, track_id, gid});
    }
  }
  if (sub->spec.mode != SubscriptionMode::kLeaveOnly) {
    for (uint32_t gid : b.came) {
      sub->pending.push_back({GeoEventKind::kEnter, track_id, gid});
    }
  }
  before.assign(b.now.begin(), b.now.end());
}

std::optional<SubscriptionInfo> SubscriptionMatcher::Add(uint16_t dataset_id,
                                                         SubscriptionSpec spec,
                                                         EventSink sink) {
  using Selector = SubscriptionSpec::Selector;
  const ServiceCatalog::Registry* reg = catalog_->Find(dataset_id);
  if (reg == nullptr) return std::nullopt;
  uint64_t epoch = 0;
  std::shared_ptr<const ShardedIndex> snap = reg->Acquire(&epoch);
  if (snap == nullptr || epoch == 0) return std::nullopt;
  if (spec.selector == Selector::kPolygonIds) {
    if (spec.polygon_ids.empty()) return std::nullopt;
    for (uint32_t id : spec.polygon_ids) {
      if (id >= snap->num_polygons()) return std::nullopt;
    }
  }
  if (spec.selector == Selector::kCellRange && spec.cell_lo > spec.cell_hi) {
    return std::nullopt;
  }

  auto sub = std::make_unique<Sub>();
  sub->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  sub->spec = std::move(spec);
  sub->sink = std::move(sink);
  sub->epoch = epoch;

  ResolveWatched(*snap, sub.get());
  SubscriptionInfo info;
  info.id = sub->id;
  info.epoch = epoch;
  info.watched_polygons = static_cast<uint32_t>(
      sub->watch_all ? snap->num_polygons() : sub->watched.size());
  ForEachCoveringCell(
      *snap, [&](uint64_t, uint64_t, const act::RefList& refs) {
        info.coverage_intervals +=
            sub->watch_all ||
            std::any_of(refs.begin(), refs.end(),
                        [&](const act::PolygonRef& r) {
                          return std::binary_search(sub->watched.begin(),
                                                    sub->watched.end(),
                                                    r.polygon_id);
                        });
      });
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    std::shared_ptr<Group>& group = groups_[dataset_id];
    if (group == nullptr) group = std::make_shared<Group>();
    dataset_of_.emplace(sub->id, dataset_id);
    group->incoming.push_back(std::move(sub));
    active_.fetch_add(1, std::memory_order_relaxed);
  }
  return info;
}

bool SubscriptionMatcher::Remove(uint64_t subscription_id) {
  const auto is_it = [&](const std::unique_ptr<Sub>& s) {
    return s->id == subscription_id;
  };
  std::shared_ptr<Group> group;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = dataset_of_.find(subscription_id);
    if (it == dataset_of_.end()) return false;
    group = groups_.at(it->second);
    dataset_of_.erase(it);
    active_.fetch_sub(1, std::memory_order_relaxed);
    // Still queued: no transition has seen it, so nothing to wait for.
    if (std::erase_if(group->incoming, is_it) > 0) return true;
  }
  // An in-flight transition holds the group lock while delivering; taking
  // it here means no delivery *starts* after Remove returns.
  std::lock_guard<std::mutex> lock(group->mu);
  std::erase_if(group->subs, is_it);
  if (group->subs.empty()) {
    // No subscription knows a track any more (a queued one knows none), so
    // the next transition re-probes every track it reports anyway.
    tracks_held_.fetch_sub(group->positions.size(),
                           std::memory_order_relaxed);
    group->positions = {};
    group->buf = {};
  }
  return true;
}

bool SubscriptionMatcher::HasSubscriptions(uint16_t dataset_id) const {
  if (active_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [id, dataset] : dataset_of_) {
    if (dataset == dataset_id) return true;
  }
  return false;
}

void SubscriptionMatcher::Resync(Group* g, const ShardedIndex& index,
                                 uint64_t epoch) {
  // The snapshot moved under these subscriptions: re-resolve cell-range
  // watched sets, then re-evaluate every known track so removals LEAVE and
  // additions ENTER without any point traffic. One join covers the known
  // tracks of every subscription behind the epoch.
  size_t known = 0;
  bool stale = false;
  for (const auto& sub : g->subs) {
    if (sub->epoch >= epoch) continue;
    stale = true;
    if (sub->spec.selector == SubscriptionSpec::Selector::kCellRange) {
      ResolveWatched(index, sub.get());
    }
    known = std::max(known, sub->inside.size());
  }
  if (!stale) return;
  if (known > 0) {
    g->buf.cells.resize(known);
    g->buf.points.resize(known);
    for (size_t t = 0; t < known; ++t) {
      g->buf.cells[t] = g->positions[t].cell;
      g->buf.points[t] = g->positions[t].point;
    }
    Probe(index, g);
  }
  for (const auto& sub : g->subs) {
    if (sub->epoch >= epoch) continue;
    sub->epoch = epoch;
    for (size_t t = 0; t < sub->inside.size(); ++t) {
      Diff(g, sub.get(), t, static_cast<uint32_t>(t));
    }
  }
}

void SubscriptionMatcher::ApplyBatch(Group* g, const ShardedIndex& index,
                                     std::span<const uint64_t> cell_ids,
                                     std::span<const geom::Point> points) {
  const size_t n = std::min(cell_ids.size(), points.size());
  // Within one epoch, membership is a pure function of (watched set,
  // position): a track reporting the position every subscription already
  // holds for it cannot transition, so it is not probed at all. Fleets are
  // mostly stationary from one batch to the next, which makes this the
  // difference between O(fleet) and O(moved) matcher work per batch.
  size_t known_by_all = SIZE_MAX;
  for (const auto& sub : g->subs) {
    known_by_all = std::min(known_by_all, sub->inside.size());
  }
  const size_t seen = g->positions.size();
  if (n > seen) {
    g->positions.resize(n);
    tracks_held_.fetch_add(n - seen, std::memory_order_relaxed);
  }
  ProbeBuffers& b = g->buf;
  b.tracks.clear();
  b.cells.clear();
  b.points.clear();
  b.moved.clear();
  for (size_t t = 0; t < n; ++t) {
    Position& pos = g->positions[t];
    const bool moved =
        t >= seen || pos.cell != cell_ids[t] || pos.point != points[t];
    if (!moved && t < known_by_all) continue;
    pos = {cell_ids[t], points[t]};
    b.tracks.push_back(static_cast<uint32_t>(t));
    b.cells.push_back(cell_ids[t]);
    b.points.push_back(points[t]);
    b.moved.push_back(moved);
  }
  if (b.tracks.empty()) return;
  Probe(index, g);
  for (const auto& sub : g->subs) {
    const size_t known = sub->inside.size();
    if (n > known) sub->inside.resize(n);
    for (size_t k = 0; k < b.tracks.size(); ++k) {
      const uint32_t t = b.tracks[k];
      if (t < known && !b.moved[k]) continue;  // unchanged for this one
      Diff(g, sub.get(), k, t);
    }
  }
}

void SubscriptionMatcher::TakeIncoming(Group* g) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (std::unique_ptr<Sub>& sub : g->incoming) {
    // Concurrent Adds may queue out of id order; keep the list sorted so
    // multi-subscription delivery order is id order.
    auto at = std::upper_bound(
        g->subs.begin(), g->subs.end(), sub->id,
        [](uint64_t id, const std::unique_ptr<Sub>& s) { return id < s->id; });
    g->subs.insert(at, std::move(sub));
  }
  g->incoming.clear();
}

void SubscriptionMatcher::Deliver(Group* g, uint64_t epoch) {
  for (const auto& sub : g->subs) {
    if (sub->pending.empty()) continue;
    EventBatch batch;
    batch.subscription_id = sub->id;
    batch.epoch = epoch;
    batch.first_seq = sub->next_seq;
    batch.events = std::exchange(sub->pending, {});
    sub->next_seq += batch.events.size();
    events_emitted_.fetch_add(batch.events.size(), std::memory_order_relaxed);
    sub->sink(std::move(batch));
  }
}

void SubscriptionMatcher::OnPointBatch(uint16_t dataset_id,
                                       std::span<const uint64_t> cell_ids,
                                       std::span<const geom::Point> points) {
  if (active_.load(std::memory_order_relaxed) == 0) return;
  std::shared_ptr<Group> group;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = groups_.find(dataset_id);
    if (it == groups_.end()) return;
    group = it->second;
  }
  const ServiceCatalog::Registry* reg = catalog_->Find(dataset_id);
  if (reg == nullptr) return;
  uint64_t epoch = 0;
  std::shared_ptr<const ShardedIndex> snap = reg->Acquire(&epoch);
  if (snap == nullptr) return;
  std::lock_guard<std::mutex> lock(group->mu);
  TakeIncoming(group.get());
  if (group->subs.empty()) return;
  // Never regress: this thread may hold a snapshot acquired *before* a
  // swap that another thread already applied to these subscriptions.
  // Resolving against that older snapshot would roll them back and emit
  // phantom LEAVE/ENTER transitions that the next batch at the new epoch
  // reverses again. Registry epochs are monotone, so re-acquiring yields
  // a snapshot at least as new as any subscription's — the batch's
  // positions still land, just against the fresher index.
  uint64_t newest = 0;
  for (const auto& sub : group->subs) newest = std::max(newest, sub->epoch);
  if (epoch < newest) {
    snap = reg->Acquire(&epoch);
    if (snap == nullptr || epoch < newest) return;
  }
  Resync(group.get(), *snap, epoch);
  ApplyBatch(group.get(), *snap, cell_ids, points);
  Deliver(group.get(), epoch);
}

void SubscriptionMatcher::OnEpochSwap(uint16_t dataset_id) {
  OnPointBatch(dataset_id, {}, {});  // the resync step alone
}

void SubscriptionMatcher::RegisterMetrics(
    util::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->RegisterGaugeFn(
      "active_subscriptions", "Standing geofence queries registered", "",
      [this] { return static_cast<double>(active_subscriptions()); });
  registry->RegisterCounterFn(
      "subscription_events_emitted_total",
      "ENTER/LEAVE transitions computed by the matcher", "",
      [this] { return events_emitted(); });
  registry->RegisterCounterFn(
      "subscription_points_probed_total",
      "Track positions joined by the matcher's shared probe", "",
      [this] { return points_probed(); });
  registry->RegisterGaugeFn(
      "subscription_tracks_held",
      "Track positions the matcher holds for its subscriptions", "",
      [this] { return static_cast<double>(tracks_held()); });
}

}  // namespace actjoin::service
