// Inputs from the seed, the timed set-up, the in-process references, and
// reply verification for the four ledger workloads.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "geometry/pip.h"
#include "join2/cross_match.h"
#include "ledger.h"
#include "net/join_client.h"
#include "net/wire.h"
#include "util/random.h"
#include "workloads/datasets.h"

namespace actjoin::ledger {

namespace {

// Every traffic generator draws from its own stream of the workload seed.
// The polygon datasets are the presets' own (their default seeds): the
// seed varies the traffic over a fixed dataset, so index_mib and
// peak_rss_mib do not move from one seed to the next.
uint64_t Mix(uint64_t seed, uint64_t tag) {
  return util::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + tag);
}

// Open-loop rates are fixed constants, never derived at run time: a fifth
// of each workload's closed-loop capacity on the reference host, or less
// (README). At half, queueing amplified the shared host's drifting speed
// into the latencies.
constexpr Spec kSpecs[] = {
    // name, kind, depth, open rate, mutation rate
    {"census_uniform_exact", Kind::kCensus, 8, 40, 0},
    {"nbhd_taxi_small", Kind::kNbhd, 64, 5000, 0},
    {"fleet_geofence_live", Kind::kFleet, 1, 100, 5},
    {"xmatch_boroughs_census", Kind::kXmatch, 2, 0, 0},
};

// The fleet: devices report as one JOIN_BATCH per tick and random-walk
// between ticks; the walk visits a fixed number of states and then
// retraces them, so the replayed batches (and their references) stay
// bounded.
constexpr int kSubscriptions = 4;
constexpr int kGeofences = 8;
constexpr double kStepDegrees = 0.0003;  // ~33 m per tick, per axis

service::QueryBatch MakeBatch(const wl::PointSet& pts, act::JoinMode mode,
                              uint16_t dataset) {
  service::QueryBatch b;
  b.cell_ids = pts.cell_ids();
  b.points = pts.points();
  b.mode = mode;
  b.dataset_id = dataset;
  return b;
}

act::JoinInput InputOf(const service::QueryBatch& b) {
  return {b.cell_ids, b.points};
}

}  // namespace

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<std::string> SpecNames() {
  std::vector<std::string> out;
  for (const Spec& s : kSpecs) out.push_back(s.name);
  return out;
}

bool Pending::WaitFor(double seconds) const {
  const auto d = std::chrono::duration<double>(seconds);
  const auto status = raw.valid() ? raw.wait_for(d) : pairs.wait_for(d);
  return status == std::future_status::ready;
}

Workload::Workload(const Spec& spec, uint64_t seed, bool tiny,
                   const std::string& tmp_dir, Tally* tally)
    : spec_(spec), tiny_(tiny), tmp_dir_(tmp_dir), tally_(tally) {
  const geom::Rect mbr = wl::NycMbr();
  switch (spec_.kind) {
    case Kind::kCensus: {
      // Census at a quarter scale: the exact index is ~123 MiB, far beyond
      // a core's L2, so the probe and PIP refinement dominate server time,
      // and one set-up (~4 s) takes about a third of full scale's.
      datasets_.push_back(wl::Census(tiny ? 0.02 : 0.25).polygons);
      const int batches = tiny ? 2 : 8;
      const uint64_t n = tiny ? 4096 : 65536;
      for (int k = 0; k < batches; ++k) {
        batches_.push_back(MakeBatch(
            wl::UniformPoints(mbr, n, Mix(seed, 100 + k), grid_),
            act::JoinMode::kExact, 0));
      }
      break;
    }
    case Kind::kNbhd: {
      // Small requests over a small approximate index: per-request work
      // (queue, decompose/merge, codec, epoll, client) dominates.
      datasets_.push_back(wl::Neighborhoods(tiny ? 0.25 : 1.0).polygons);
      precision_ = true;
      const int batches = tiny ? 8 : 64;
      for (int k = 0; k < batches; ++k) {
        batches_.push_back(
            MakeBatch(wl::TaxiPoints(mbr, 256, grid_, Mix(seed, 200 + k)),
                      act::JoinMode::kApproximate, 0));
      }
      break;
    }
    case Kind::kFleet: {
      datasets_.push_back(wl::Neighborhoods(tiny ? 0.25 : 1.0).polygons);
      const uint64_t devices = tiny ? 512 : 4096;
      const int states = tiny ? 8 : 64;
      wl::PointSet start = wl::TaxiPoints(mbr, devices, grid_, Mix(seed, 300));
      std::vector<geom::Point> pos = start.points();
      util::Rng rng(Mix(seed, 301));
      for (int s = 0; s < states; ++s) {
        if (s > 0) {
          for (geom::Point& p : pos) {
            p.x += rng.Gaussian() * kStepDegrees;
            p.y += rng.Gaussian() * kStepDegrees;
            // Reflect at the extent so every device stays in the dataset.
            if (p.x < mbr.lo.x) p.x = 2 * mbr.lo.x - p.x;
            if (p.x > mbr.hi.x) p.x = 2 * mbr.hi.x - p.x;
            if (p.y < mbr.lo.y) p.y = 2 * mbr.lo.y - p.y;
            if (p.y > mbr.hi.y) p.y = 2 * mbr.hi.y - p.y;
          }
        }
        batches_.push_back(MakeBatch(wl::PointSet(pos, grid_),
                                     act::JoinMode::kExact, 0));
      }
      break;
    }
    case Kind::kXmatch: {
      // Census at 0.05 scale keeps a crossmatch near 80 ms, so one 2 s
      // round of the untraced pass holds ~50 of them.
      datasets_.push_back(wl::Boroughs(1.0).polygons);
      datasets_.push_back(wl::Census(tiny ? 0.02 : 0.05).polygons);
      precision_ = true;
      xmatch_layer_batch_ = MakeBatch(
          wl::UniformPoints(mbr, tiny ? 1024 : 4096, Mix(seed, 400), grid_),
          act::JoinMode::kExact, kXmatchB);
      break;
    }
  }
  // Geofences sit where the traffic is (centers drawn from the taxi
  // mixture), so adding one moves devices in and out of it.
  wl::PointSet centers = wl::TaxiPoints(mbr, kGeofences, grid_, Mix(seed, 302));
  for (int g = 0; g < kGeofences; ++g) {
    geofences_.push_back(wl::RandomStarPolygon(centers.points()[g], 0.006, 12,
                                               Mix(seed, 310 + g)));
  }
}

Workload::~Workload() {
  if (!store_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }
}

service::ShardingOptions Workload::Sharding(bool precision) const {
  service::ShardingOptions opts;
  opts.num_shards = 4;
  // A single-threaded build, so setup_s follows the build's work. Built on
  // every core, it waits for the slowest of four threads on a shared 4-vCPU
  // host: nbhd's set-up then spread by 20% between processes, against 7%
  // single-threaded (README).
  opts.build.threads = 1;
  if (precision) opts.build.precision_bound_m = 60.0;
  return opts;
}

void Workload::Prepare() {
  if (spec_.kind != Kind::kFleet) return;
  store_dir_ = tmp_dir_ + "/ledger-store-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(store_dir_, ec);
  store::SnapshotStore st;
  std::string error;
  store::StoreOptions opts;
  opts.dir = store_dir_;
  if (!st.Open(opts, &error)) {
    throw std::runtime_error("store open failed: " + error);
  }
  service::ShardedIndex base =
      service::ShardedIndex::Build(datasets_[0], grid_, Sharding(false));
  if (!st.Put("fleet", base, nullptr, &error)) {
    throw std::runtime_error("store put failed: " + error);
  }
}

std::unique_ptr<Stack> Workload::SetUp() {
  auto stack = std::make_unique<Stack>();
  service::ServiceOptions sopts;
  sopts.worker_threads = 2;
  sopts.threads_per_join = 1;
  sopts.enable_metrics = true;
  sopts.cell_cache_capacity = 0;
  // At the default 256, a ~25 ms stall of a shared host at 10k requests/s
  // turns into rejected requests; a deeper queue shows it as latency.
  sopts.queue_capacity = 4096;
  net::ServerOptions nopts;  // admission limits are off by default
  nopts.io_threads = 1;

  switch (spec_.kind) {
    case Kind::kCensus:
    case Kind::kNbhd:
      stack->service = std::make_unique<service::JoinService>(
          std::make_shared<const service::ShardedIndex>(
              service::ShardedIndex::Build(datasets_[0], grid_,
                                           Sharding(precision_))),
          sopts);
      break;
    case Kind::kXmatch: {
      stack->service = std::make_unique<service::JoinService>(sopts);
      const char* names[2] = {"boroughs", "census"};
      for (size_t d = 0; d < datasets_.size(); ++d) {
        stack->service->catalog().Add(
            names[d], std::make_shared<const service::ShardedIndex>(
                          service::ShardedIndex::Build(datasets_[d], grid_,
                                                       Sharding(precision_))));
      }
      break;
    }
    case Kind::kFleet: {
      stack->store = std::make_unique<store::SnapshotStore>();
      stack->service = std::make_unique<service::JoinService>(sopts);
      store::StoreOptions opts;
      opts.dir = store_dir_;
      opts.metrics = stack->service->metrics();
      std::string error;
      if (!stack->store->Open(opts, &error)) {
        throw std::runtime_error("store open failed: " + error);
      }
      if (store::WarmStart(*stack->store, &stack->service->catalog()) != 1) {
        throw std::runtime_error("warm start served no dataset");
      }
      break;
    }
  }

  stack->server =
      std::make_unique<net::JoinServer>(stack->service.get(), nopts);
  std::string error;
  if (!stack->server->Start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  net::JoinClient ping;
  if (!ping.Connect(stack->server->host(), stack->server->port(), &error) ||
      !ping.Ping(&error)) {
    throw std::runtime_error("first PING failed: " + error);
  }
  return stack;
}

void Workload::ComputeReferences(const Stack& stack) {
  const service::ServiceCatalog& catalog = stack.service->catalog();
  act::JoinOptions opts;
  opts.threads = 0;
  switch (spec_.kind) {
    case Kind::kCensus:
    case Kind::kNbhd:
    case Kind::kFleet: {
      auto snap = catalog.Find(0)->Acquire();
      for (const service::QueryBatch& b : batches_) {
        opts.mode = b.mode;
        references_.push_back(snap->Join(InputOf(b), opts));
      }
      if (spec_.kind != Kind::kFleet) break;
      base_polygons_ = static_cast<uint32_t>(snap->num_polygons());
      // Geofence counts come from the brute-force PIP oracle, independent
      // of the index the server maintains through ApplyDelta.
      for (const service::QueryBatch& b : batches_) {
        std::vector<uint64_t> counts(geofences_.size(), 0);
        for (size_t g = 0; g < geofences_.size(); ++g) {
          for (const geom::Point& p : b.points) {
            counts[g] += geom::ContainsPoint(geofences_[g], p) ? 1 : 0;
          }
        }
        geofence_refs_.push_back(std::move(counts));
      }
      break;
    }
    case Kind::kXmatch: {
      auto a = catalog.Find(kXmatchA)->Acquire();
      auto b = catalog.Find(kXmatchB)->Acquire();
      for (int m = 0; m < 2; ++m) {
        join2::CrossMatchOptions xopts;
        xopts.mode = m == 0 ? join2::CrossMatchMode::kIntersects
                            : join2::CrossMatchMode::kContains;
        xopts.threads = 0;
        xmatch_refs_[m] = join2::CrossMatchIndexes(*a, *b, xopts);
      }
      opts.mode = xmatch_layer_batch_.mode;
      xmatch_layer_reference_ = b->Join(InputOf(xmatch_layer_batch_), opts);
      break;
    }
  }
}

void Workload::CorruptReference() {
  if (spec_.kind == Kind::kXmatch) {
    if (xmatch_refs_[0].empty()) {
      xmatch_refs_[0].push_back({0, 0});
    } else {
      xmatch_refs_[0].pop_back();
    }
    return;
  }
  std::vector<uint64_t>& counts = references_[0].counts;
  auto it = std::find_if(counts.begin(), counts.end(),
                         [](uint64_t c) { return c > 0; });
  ++*(it == counts.end() ? counts.begin() : it);
}

void Workload::Subscribe(net::AsyncJoinClient* client) {
  if (spec_.kind != Kind::kFleet) return;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_.assign(kSubscriptions, SubState{});
  }
  service::SubscriptionSpec spec;
  spec.selector = service::SubscriptionSpec::Selector::kAll;
  spec.mode = service::SubscriptionMode::kBoth;
  for (int i = 0; i < kSubscriptions; ++i) {
    tally_->Attempt();
    auto on_events = [this, i](const service::EventBatch& batch) {
      std::lock_guard<std::mutex> lock(subs_mu_);
      SubState& s = subs_[i];
      if (batch.first_seq != s.next_seq) {
        tally_->Fail("subscription seq jumped from " +
                     std::to_string(s.next_seq) + " to " +
                     std::to_string(batch.first_seq));
      }
      s.next_seq = batch.first_seq + batch.events.size();
      s.events += batch.events.size();
    };
    auto on_gap = [this](const net::EventGap&) {
      tally_->Fail("EVENT_GAP on a subscription");
    };
    net::AsyncJoinClient::SubscribeReply reply =
        client->Subscribe(0, spec, on_events, on_gap).get();
    if (!reply.ok) tally_->Fail("SUBSCRIBE failed: " + reply.message);
  }
}

void Workload::set_trace(bool on) {
  trace_ = on;
  for (service::QueryBatch& b : batches_) b.trace = on;
}

size_t Workload::BatchOf(uint64_t seq) const {
  const uint64_t n = batches_.size();
  if (spec_.kind != Kind::kFleet || n < 2) return seq % n;
  // The walk forward, then back over the same states.
  const uint64_t period = 2 * n - 2;
  const uint64_t m = seq % period;
  return m < n ? m : period - m;
}

Pending Workload::Issue(net::AsyncJoinClient* client, uint64_t seq) {
  tally_->Attempt();
  Pending p;
  p.seq = seq;
  const uint64_t id = client->NextRequestId();
  if (spec_.kind == Kind::kXmatch) {
    net::JoinDatasetsRequest req;
    req.dataset_b = kXmatchB;
    req.mode = static_cast<uint8_t>(seq % 2);
    req.trace = trace_;
    p.pairs = client->CallCrossMatch(
        net::EncodeJoinDatasetsFrame(id, kXmatchA, req), id);
  } else {
    p.raw = client->Call(net::EncodeJoinBatchFrame(id, batches_[BatchOf(seq)]),
                         id, net::MessageType::kJoinResult);
  }
  return p;
}

Pending Workload::IssueMutation(net::AsyncJoinClient* client) {
  tally_->Attempt();
  const uint64_t k = next_mutation_++;
  Pending p;
  p.seq = k;
  p.mutation = true;
  const uint64_t id = client->NextRequestId();
  const uint32_t target = base_polygons_ + static_cast<uint32_t>(k / 2);
  std::vector<uint8_t> frame =
      k % 2 == 0
          ? net::EncodeAddPolygonsFrame(id, 0,
                                        {geofences_[(k / 2) % geofences_.size()]})
          : net::EncodeRemovePolygonsFrame(id, 0, {target});
  p.raw = client->Call(frame, id, net::MessageType::kMutateResult);
  return p;
}

bool Workload::NextMutationReady() {
  if (next_mutation_ % 2 == 0) return true;
  const uint64_t add = next_mutation_ - 1;
  std::lock_guard<std::mutex> lock(fleet_mu_);
  return add < mutation_epochs_.size() && mutation_epochs_[add] != 0;
}

Outcome Workload::Complete(Pending& p) {
  Outcome o;
  if (p.mutation) {
    o.ok = CheckMutation(p.seq, p.raw.get());
    return o;
  }
  if (spec_.kind == Kind::kXmatch) {
    net::CrossMatchReply reply = p.pairs.get();
    o.cls = static_cast<int>(p.seq % 2);
    if (!reply.ok) {
      tally_->Fail("JOIN_DATASETS failed: " + reply.message);
      return o;
    }
    if (reply.pairs != xmatch_refs_[o.cls]) {
      tally_->Fail("crossmatch pairs differ from the reference");
      return o;
    }
    o.ok = true;
    o.traced = reply.trace.enabled;
    o.stage_us = reply.trace.stage_us;
    return o;
  }
  net::AsyncJoinClient::RawReply raw = p.raw.get();
  if (!raw.ok) {
    tally_->Fail("JOIN_BATCH failed: " + raw.message);
    return o;
  }
  service::JoinResult result;
  if (!net::DecodeJoinResult(raw.payload, &result)) {
    tally_->Fail("undecodable JOIN_RESULT");
    return o;
  }
  if (spec_.kind == Kind::kFleet) {
    o.ok = CheckFleet(p.seq, result);
  } else {
    o.ok = SameJoin(result.stats, references_[BatchOf(p.seq)]);
    if (!o.ok) tally_->Fail("JOIN_RESULT differs from the reference");
  }
  o.traced = result.trace.enabled;
  o.stage_us = result.trace.stage_us;
  return o;
}

bool SameJoin(const act::JoinStats& got, const act::JoinStats& want) {
  return got.num_points == want.num_points &&
         got.result_pairs == want.result_pairs &&
         got.matched_points == want.matched_points && got.counts == want.counts;
}

bool Workload::CheckFleet(uint64_t seq, const service::JoinResult& got) {
  const size_t state = BatchOf(seq);
  const std::vector<uint64_t>& want = references_[state].counts;
  if (got.stats.counts.size() < want.size() ||
      !std::equal(want.begin(), want.end(), got.stats.counts.begin())) {
    tally_->Fail("fleet base-polygon counts differ from the reference");
    return false;
  }
  // Geofence counts depend on which mutations the reply's epoch includes;
  // they are checked once every mutation has been acknowledged.
  std::lock_guard<std::mutex> lock(fleet_mu_);
  fleet_replies_.push_back(
      {got.epoch, static_cast<uint32_t>(state),
       std::vector<uint64_t>(got.stats.counts.begin() + want.size(),
                             got.stats.counts.end())});
  return true;
}

bool Workload::CheckMutation(uint64_t k,
                             const net::AsyncJoinClient::RawReply& raw) {
  net::MutationAck ack;
  if (!raw.ok || !net::DecodeMutationAck(raw.payload, &ack)) {
    tally_->Fail("mutation failed: " + raw.message);
    mutation_failed_ = true;
    return false;
  }
  const bool add = k % 2 == 0;
  if (ack.op != (add ? net::MessageType::kAddPolygons
                     : net::MessageType::kRemovePolygons) ||
      (add && ack.first_id != base_polygons_ + k / 2)) {
    tally_->Fail("mutation ack does not match the request");
    mutation_failed_ = true;
    return false;
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (mutation_epochs_.size() <= k) mutation_epochs_.resize(k + 1, 0);
  mutation_epochs_[k] = ack.epoch;
  return true;
}

void Workload::FinishVerification(const Stack& stack) {
  if (spec_.kind != Kind::kFleet) return;
  // Emission is synchronous with the joins; delivery is not. Wait for every
  // emitted event to reach the client before judging the seq tiling.
  const uint64_t emitted =
      stack.service->subscription_matcher()->events_emitted();
  auto received = [this] {
    std::lock_guard<std::mutex> lock(subs_mu_);
    uint64_t total = 0;
    for (const SubState& s : subs_) total += s.events;
    return total;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received() < emitted && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (received() != emitted) {
    tally_->Fail("events lost: " + std::to_string(received()) + " of " +
                 std::to_string(emitted) + " delivered");
  }

  std::lock_guard<std::mutex> lock(fleet_mu_);
  for (const FleetReply& r : fleet_replies_) {
    // Geofence k/2 (ADD k, REMOVE k+1) is live at epoch e when its ADD
    // published at or before e and its REMOVE did not.
    uint64_t added = 0;
    bool ok = true;
    for (size_t k = 0; k < mutation_epochs_.size(); k += 2) {
      const uint64_t add_epoch = mutation_epochs_[k];
      if (add_epoch == 0 || add_epoch > r.epoch) continue;
      ++added;
      const uint64_t remove_epoch =
          k + 1 < mutation_epochs_.size() ? mutation_epochs_[k + 1] : 0;
      const bool live = remove_epoch == 0 || remove_epoch > r.epoch;
      const uint64_t want =
          live ? geofence_refs_[r.state][(k / 2) % geofences_.size()] : 0;
      if (k / 2 >= r.geofence_counts.size() ||
          r.geofence_counts[k / 2] != want) {
        ok = false;
      }
    }
    if (!ok || r.geofence_counts.size() != added) {
      tally_->Fail("fleet geofence counts differ at epoch " +
                   std::to_string(r.epoch));
    }
  }
}

uint64_t Workload::points_per_request() const {
  return spec_.kind == Kind::kXmatch ? 0 : batches_[0].points.size();
}

double Workload::IndexMiB(const Stack& stack) const {
  double bytes = 0;
  const service::ServiceCatalog& catalog = stack.service->catalog();
  for (const service::DatasetInfo& info : catalog.List()) {
    bytes += static_cast<double>(
        catalog.Find(info.id)->Acquire()->MemoryBytes());
  }
  return bytes / (1024.0 * 1024.0);
}

const service::QueryBatch& Workload::layer_batch() const {
  return spec_.kind == Kind::kXmatch ? xmatch_layer_batch_ : batches_[0];
}

const act::JoinStats& Workload::layer_reference() const {
  return spec_.kind == Kind::kXmatch ? xmatch_layer_reference_
                                     : references_[0];
}

}  // namespace actjoin::ledger
