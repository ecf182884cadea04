// The traced pass: times calls into each module's public functions on the
// workload's layer batch, bottom-up, in interleaved reps, then runs the
// workload's traffic with per-request traces on. Layers, bottom-up:
//
//   act                  PolygonIndex::Join per shard on its routed slice
//   sharded_index        ShardedIndex::Join at width 1 and 2, ApplyDelta
//   join_service         JoinService::Submit, one request outstanding
//   wire                 encode / TryParseFrame / decode, in process
//   join_server          one blocking call at a time over loopback
//   async_join_client    pipelined calls at the workload's depth (>= 4)
//
// plus subscription_matcher and snapshot_store (fleet) and join2
// (crossmatch). Each *_ns_per_pt is measured on the same batch, so a
// layer's self cost is its difference from the layer below it.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <unistd.h>

#include "join2/cross_match.h"
#include "ledger.h"
#include "net/wire.h"
#include "service/subscription_matcher.h"
#include "util/perf_counters.h"
#include "util/work_stealing_pool.h"

namespace actjoin::ledger {

namespace {

constexpr int kReps = 5;
constexpr size_t kMaxRequestSpans = 2000;

// Per-rep samples of each metric, reported as p50 with min and max.
class Samples {
 public:
  void Add(const std::string& name, const std::string& unit,
           const std::string& better, double v) {
    for (Series& s : series_) {
      if (s.name == name) {
        s.values.push_back(v);
        return;
      }
    }
    series_.push_back({name, unit, better, {v}});
  }
  void Emit(Record* rec) const {
    for (const Series& s : series_) {
      rec->AddReps(s.name, s.unit, s.better, s.values);
    }
  }

 private:
  struct Series {
    std::string name, unit, better;
    std::vector<double> values;
  };
  std::vector<Series> series_;
};

// Mean seconds per call of `call`, repeated for at least `min_s`.
template <typename Fn>
double PerCall(double min_s, Fn&& call) {
  const double start = NowSeconds();
  int calls = 0;
  double elapsed = 0;
  do {
    call();
    ++calls;
    elapsed = NowSeconds() - start;
  } while (elapsed < min_s);
  return elapsed / calls;
}

// Closed-loop throughput by Little's law: requests in flight over their
// mean latency. A half-second segment holds only a few of the
// crossmatch's ~300 ms requests, too few to time by their completions.
double LittleRate(const PhaseResult& r, int in_flight) {
  double sum_ms = 0;
  size_t n = 0;
  for (const std::vector<double>& v : r.latency_ms) {
    for (double ms : v) sum_ms += ms;
    n += v.size();
  }
  return sum_ms > 0 ? in_flight * 1e3 * n / sum_ms : 0;
}

const char* const kJoinStages[7] = {"admission", "decode",  "queue", "decompose",
                                    "probe",     "merge",   "respond"};
const char* const kCrossMatchStages[7] = {"admission", "decode", "queue", "pin",
                                          "descend",   "refine", "stream"};

class LayerPass {
 public:
  LayerPass(Workload& w, Stack& stack, net::AsyncJoinClient* const conns[2],
            double seconds, SpanLog* spans)
      : w_(w),
        stack_(stack),
        conns_{conns[0], conns[1]},
        seconds_(seconds),
        spans_(spans),
        batch_(w.layer_batch()),
        ref_(w.layer_reference()),
        snap_(stack.service->catalog().Find(batch_.dataset_id)->Acquire()),
        input_{batch_.cell_ids, batch_.points},
        n_(static_cast<double>(batch_.points.size())),
        min_s_(w.tiny() ? 0.005 : 0.05),
        pool2_(1) {
    traced_batch_ = batch_;
    traced_batch_.trace = true;
    // The act layer probes each shard's trie with the slice the router
    // would hand it.
    const int shards = snap_->num_shards();
    shard_cells_.resize(shards);
    shard_points_.resize(shards);
    for (size_t i = 0; i < batch_.cell_ids.size(); ++i) {
      const int s = snap_->ShardOf(batch_.cell_ids[i]);
      shard_cells_[s].push_back(batch_.cell_ids[i]);
      shard_points_[s].push_back(batch_.points[i]);
    }
  }

  void Run(Record* rec) {
    const Kind kind = w_.spec().kind;
    if (kind == Kind::kFleet) StartMatcher();
    const double pass_start = NowSeconds();
    const uint64_t root = spans_->Add("layers", 0, 0, pass_start, pass_start);
    for (int r = 0; r < kReps; ++r) {
      rep_trace_ = static_cast<uint64_t>(r + 1);
      const double rep_start = NowSeconds();
      rep_span_ = spans_->Add("rep", rep_trace_, root, rep_start, rep_start);
      Layer("act", [&] { Act(); });
      Layer("sharded_index", [&] { Sharded(); });
      Layer("join_service", [&] { Service(); });
      Layer("wire", [&] { Wire(); });
      Layer("join_server", [&] { Server(); });
      Layer("async_join_client", [&] { Async(); });
      if (kind == Kind::kFleet) {
        Layer("subscription_matcher", [&] { Matcher(); });
        Layer("snapshot_store", [&] { Store(); });
      }
      if (kind == Kind::kXmatch) Layer("join2", [&] { Join2(); });
      spans_->End(rep_span_, NowSeconds());
    }
    spans_->End(root, NowSeconds());
    samples_.Emit(rec);
    if (!perf_.available()) {
      // perf_event_open denied: no value rather than a fabricated one.
      rec->AddUnavailable("act.cycles_per_pt", "cycles/pt", "lower");
      rec->AddUnavailable("act.instructions_per_pt", "instr/pt", "lower");
      rec->AddUnavailable("act.llc_misses_per_pt", "misses/pt", "lower");
    }
    Loopback(rec);
    PushCounters(rec);
  }

 private:
  template <typename Fn>
  void Layer(const char* name, Fn&& fn) {
    const double t0 = NowSeconds();
    fn();
    spans_->Add(name, rep_trace_, rep_span_, t0, NowSeconds());
  }

  void Check(bool ok, const char* what) {
    w_.tally()->Attempt();
    if (!ok) w_.tally()->Fail(std::string(what) + " differs from the reference");
  }

  void Act() {
    act::JoinOptions one;
    one.mode = batch_.mode;
    one.threads = 1;
    act::JoinStats total;
    int calls = 0;
    const util::StageCounterSample before = perf_.Read();
    const double per = PerCall(min_s_, [&] {
      total = act::JoinStats{};
      for (size_t s = 0; s < shard_cells_.size(); ++s) {
        const act::PolygonIndex* index = snap_->shard_index(static_cast<int>(s));
        if (index == nullptr) {
          total.sth_points += shard_cells_[s].size();
          continue;
        }
        if (shard_cells_[s].empty()) continue;
        total.AccumulateCounters(
            index->Join({shard_cells_[s], shard_points_[s]}, one));
      }
      ++calls;
    });
    const util::StageCounterSample delta = perf_.Read() - before;
    Check(total.result_pairs == ref_.result_pairs, "act layer result pairs");
    samples_.Add("act.probe_ns_per_pt", "ns/pt", "lower", per * 1e9 / n_);
    samples_.Add("act.candidate_refs_per_pt", "refs/pt", "lower",
                 total.candidate_refs / n_);
    samples_.Add("act.pip_tests_per_pt", "tests/pt", "lower",
                 total.pip_tests / n_);
    if (total.pip_tests > 0) {
      samples_.Add("act.pip_hit_frac", "frac", "higher",
                   static_cast<double>(total.pip_hits) / total.pip_tests);
    }
    samples_.Add("act.sth_frac", "frac", "higher", total.sth_points / n_);
    if (perf_.available()) {
      const double pts = n_ * calls;
      samples_.Add("act.cycles_per_pt", "cycles/pt", "lower",
                   delta.cycles / pts);
      samples_.Add("act.instructions_per_pt", "instr/pt", "lower",
                   delta.instructions / pts);
      samples_.Add("act.llc_misses_per_pt", "misses/pt", "lower",
                   delta.llc_misses / pts);
    }
  }

  void Sharded() {
    act::JoinOptions one;
    one.mode = batch_.mode;
    one.threads = 1;
    act::JoinStats st;
    double route_us = 0, merge_us = 0;
    int calls = 0;
    const double w1 = PerCall(min_s_, [&] {
      service::ShardedIndex::JoinPhaseTimes phases;
      st = snap_->Join(input_, one, nullptr, &phases);
      route_us += phases.route_us;
      merge_us += phases.merge_us;
      ++calls;
    });
    Check(SameJoin(st, ref_), "ShardedIndex::Join (width 1)");
    const double w2 = PerCall(min_s_, [&] { st = snap_->Join(input_, one, &pool2_); });
    Check(SameJoin(st, ref_), "ShardedIndex::Join (width 2)");
    samples_.Add("sharded_index.join_ns_per_pt", "ns/pt", "lower", w1 * 1e9 / n_);
    samples_.Add("sharded_index.route_ns_per_pt", "ns/pt", "lower",
                 route_us * 1e3 / calls / n_);
    samples_.Add("sharded_index.merge_us_per_req", "us", "lower",
                 merge_us / calls);
    samples_.Add("sharded_index.w2_speedup", "x", "higher", w1 / w2);

    service::ShardedIndex::Delta add;
    add.add.push_back(w_.delta_polygon());
    double t0 = NowSeconds();
    service::ShardedIndex::DeltaResult added =
        service::ShardedIndex::ApplyDelta(*snap_, add);
    const double add_ms = (NowSeconds() - t0) * 1e3;
    service::ShardedIndex::Delta remove;
    remove.remove.push_back(added.first_added_id);
    t0 = NowSeconds();
    service::ShardedIndex::DeltaResult removed =
        service::ShardedIndex::ApplyDelta(*added.index, remove);
    const double remove_ms = (NowSeconds() - t0) * 1e3;
    Check(added.first_added_id == snap_->num_polygons() &&
              removed.index->num_polygons() == snap_->num_polygons() + 1,
          "ApplyDelta id assignment");
    samples_.Add("sharded_index.apply_add_ms", "ms", "lower", add_ms);
    samples_.Add("sharded_index.apply_remove_ms", "ms", "lower", remove_ms);
  }

  void Service() {
    double total = 0;
    int calls = 0;
    std::vector<double> decompose;
    const double start = NowSeconds();
    do {
      service::QueryBatch q = traced_batch_;  // Submit takes ownership
      const double t0 = NowSeconds();
      service::JoinResult r = stack_.service->Submit(std::move(q)).get();
      total += NowSeconds() - t0;
      ++calls;
      decompose.push_back(r.trace.at(service::TraceStage::kDecompose));
      Check(SameJoin(r.stats, ref_), "JoinService::Submit");
    } while (NowSeconds() - start < min_s_);
    samples_.Add("join_service.submit_ns_per_pt", "ns/pt", "lower",
                 total / calls * 1e9 / n_);
    samples_.Add("join_service.decompose_us_p50", "us", "lower",
                 Quantile(decompose, 0.5));
  }

  void Wire() {
    service::JoinResult reply;
    reply.stats = ref_;
    reply.epoch = 1;
    double encode_s = 0, decode_s = 0;
    int calls = 0;
    size_t req_bytes = 0, resp_bytes = 0;
    bool ok = true;
    service::QueryBatch decoded_req;
    service::JoinResult decoded_resp;
    auto parse = [&](const std::vector<uint8_t>& frame) {
      net::FrameHeader h;
      size_t frame_bytes = 0;
      net::WireError e = net::WireError::kNone;
      ok &= net::TryParseFrame(frame, net::kDefaultMaxFrameBytes, &h,
                               &frame_bytes, &e) == net::FrameParse::kFrame;
      return std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes,
                                                     h.payload_bytes);
    };
    const double per = PerCall(min_s_, [&] {
      const uint64_t id = static_cast<uint64_t>(++calls);
      std::vector<uint8_t> req = net::EncodeJoinBatchFrame(id, batch_);
      ok &= net::DecodeQueryBatch(parse(req), &decoded_req);
      const double t0 = NowSeconds();
      std::vector<uint8_t> resp = net::EncodeJoinResultFrame(id, reply);
      const double t1 = NowSeconds();
      ok &= net::DecodeJoinResult(parse(resp), &decoded_resp);
      decode_s += NowSeconds() - t1;
      encode_s += t1 - t0;
      req_bytes = req.size();
      resp_bytes = resp.size();
    });
    Check(ok && decoded_req.points == batch_.points &&
              SameJoin(decoded_resp.stats, ref_),
          "wire round trip");
    samples_.Add("wire.roundtrip_ns_per_pt", "ns/pt", "lower", per * 1e9 / n_);
    samples_.Add("wire.req_bytes_per_pt", "B/pt", "lower", req_bytes / n_);
    samples_.Add("wire.resp_bytes", "B", "lower", static_cast<double>(resp_bytes));
    samples_.Add("wire.resp_encode_us", "us", "lower", encode_s / calls * 1e6);
    samples_.Add("wire.resp_decode_us", "us", "lower", decode_s / calls * 1e6);
  }

  // One outstanding call at a time — what JoinClient::Join does: dispatch
  // one pipelined call on the client core and wait for it.
  void Server() {
    net::AsyncJoinClient* client = conns_[1];
    std::vector<double> admission, decode, respond, transport;
    double total = 0;
    int calls = 0;
    const double start = NowSeconds();
    do {
      const uint64_t id = client->NextRequestId();
      const double t0 = NowSeconds();
      net::AsyncJoinClient::RawReply raw =
          client
              ->Call(net::EncodeJoinBatchFrame(id, traced_batch_), id,
                     net::MessageType::kJoinResult)
              .get();
      service::JoinResult r;
      const bool ok = raw.ok && net::DecodeJoinResult(raw.payload, &r);
      const double t1 = NowSeconds();
      Check(ok && SameJoin(r.stats, ref_), "blocking JOIN_BATCH");
      if (!ok) return;
      total += t1 - t0;
      ++calls;
      admission.push_back(r.trace.at(service::TraceStage::kAdmission));
      decode.push_back(r.trace.at(service::TraceStage::kDecode));
      respond.push_back(r.trace.at(service::TraceStage::kRespond));
      transport.push_back((t1 - t0) * 1e6 - r.trace.TotalMicros());
      Outcome o;
      o.stage_us = r.trace.stage_us;
      o.sent_s = t0;
      o.done_s = t1;
      RequestSpans("join_batch.blocking", kJoinStages, o);
    } while (NowSeconds() - start < min_s_);
    samples_.Add("join_server.rtt_ns_per_pt", "ns/pt", "lower",
                 total / calls * 1e9 / n_);
    samples_.Add("join_server.admission_us_p50", "us", "lower",
                 Quantile(admission, 0.5));
    samples_.Add("join_server.decode_us_p50", "us", "lower", Quantile(decode, 0.5));
    samples_.Add("join_server.respond_us_p50", "us", "lower",
                 Quantile(respond, 0.5));
    samples_.Add("join_server.transport_us_p50", "us", "lower",
                 Quantile(transport, 0.5));
  }

  // Points per second with `depth` calls in flight on one connection.
  double Pipelined(int depth, double window_s) {
    net::AsyncJoinClient* client = conns_[0];
    std::deque<std::future<net::AsyncJoinClient::RawReply>> inflight;
    uint64_t done = 0;
    const double start = NowSeconds();
    for (;;) {
      while (inflight.size() < static_cast<size_t>(depth) &&
             NowSeconds() - start < window_s) {
        const uint64_t id = client->NextRequestId();
        inflight.push_back(client->Call(net::EncodeJoinBatchFrame(id, batch_),
                                        id, net::MessageType::kJoinResult));
      }
      if (inflight.empty()) break;
      net::AsyncJoinClient::RawReply raw = inflight.front().get();
      inflight.pop_front();
      service::JoinResult r;
      Check(raw.ok && net::DecodeJoinResult(raw.payload, &r) &&
                SameJoin(r.stats, ref_),
            "pipelined JOIN_BATCH");
      ++done;
    }
    return done * n_ / (NowSeconds() - start);
  }

  // At the workload's closed-loop depth, but at least 4: the fleet's
  // ordered feed runs at depth 1, where there is nothing to pipeline.
  void Async() {
    const double window = 2 * min_s_;
    const double depth1 = Pipelined(1, window);
    const double depth_n = Pipelined(std::max(4, w_.spec().depth), window);
    samples_.Add("async_join_client.pipelined_ns_per_pt", "ns/pt", "lower",
                 1e9 / depth_n);
    samples_.Add("async_join_client.pipeline_gain", "x", "higher",
                 depth_n / depth1);
  }

  // A bench-owned matcher with the fleet's four subscriptions, over a
  // bench-owned catalog serving the same base snapshot.
  void StartMatcher() {
    catalog_.Add("fleet", snap_);
    matcher_ = std::make_unique<service::SubscriptionMatcher>(&catalog_);
    service::SubscriptionSpec spec;
    for (int i = 0; i < 4; ++i) {
      matcher_->Add(0, spec, [this](service::EventBatch&& b) {
        matcher_events_ += b.events.size();
      });
    }
  }

  void Matcher() {
    const std::vector<service::QueryBatch>& batches = w_.batches();
    double total = 0;
    int fed = 0;
    const uint64_t events_before = matcher_events_;
    const double start = NowSeconds();
    do {
      const service::QueryBatch& b = batches[w_.BatchOf(matcher_seq_++)];
      const double t0 = NowSeconds();
      matcher_->OnPointBatch(0, b.cell_ids, b.points);
      total += NowSeconds() - t0;
      ++fed;
    } while (NowSeconds() - start < min_s_);
    samples_.Add("subscription_matcher.batch_us", "us", "lower",
                 total / fed * 1e6);
    samples_.Add("subscription_matcher.events_per_batch", "events", "lower",
                 static_cast<double>(matcher_events_ - events_before) / fed);

    // An ADD and its REMOVE, each published and then resynced.
    service::ServiceCatalog::Registry* reg = catalog_.Find(0);
    double swap_s = 0;
    service::ShardedIndex::Delta add;
    add.add.push_back(w_.delta_polygon());
    auto added = service::ShardedIndex::ApplyDelta(*reg->Acquire(), add);
    reg->Publish(added.index);
    double t0 = NowSeconds();
    matcher_->OnEpochSwap(0);
    swap_s += NowSeconds() - t0;
    service::ShardedIndex::Delta remove;
    remove.remove.push_back(added.first_added_id);
    reg->Publish(service::ShardedIndex::ApplyDelta(*added.index, remove).index);
    t0 = NowSeconds();
    matcher_->OnEpochSwap(0);
    swap_s += NowSeconds() - t0;
    samples_.Add("subscription_matcher.epoch_swap_ms", "ms", "lower",
                 swap_s / 2 * 1e3);
  }

  void Store() {
    const std::string dir = w_.tmp_dir() + "/ledger-layer-store-" +
                            std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    store::StoreOptions opts;
    opts.dir = dir;
    double put_ms = 0, warm_ms = 0;
    bool ok = false;
    {
      store::SnapshotStore st;
      const double t0 = NowSeconds();
      ok = st.Open(opts) && st.Put("fleet", *snap_);
      put_ms = (NowSeconds() - t0) * 1e3;
    }
    if (ok) {
      const double t0 = NowSeconds();
      store::SnapshotStore st;
      service::ServiceCatalog catalog;
      ok = st.Open(opts) && store::WarmStart(st, &catalog) == 1;
      warm_ms = (NowSeconds() - t0) * 1e3;
    }
    std::filesystem::remove_all(dir, ec);
    Check(ok, "snapshot store put + warm start");
    samples_.Add("snapshot_store.put_ms", "ms", "lower", put_ms);
    samples_.Add("snapshot_store.warm_start_ms", "ms", "lower", warm_ms);
  }

  void Join2() {
    const service::ServiceCatalog& catalog = stack_.service->catalog();
    auto a = catalog.Find(Workload::kXmatchA)->Acquire();
    auto b = catalog.Find(Workload::kXmatchB)->Acquire();
    double pin = 0, descend = 0, refine = 0;
    uint64_t candidates = 0, refined = 0, results = 0;
    for (int m = 0; m < 2; ++m) {
      join2::CrossMatchOptions opts;
      opts.mode = m == 0 ? join2::CrossMatchMode::kIntersects
                         : join2::CrossMatchMode::kContains;
      opts.threads = 1;
      join2::CrossMatchStats stats;
      join2::CrossMatchPhaseTimes phases;
      Check(join2::CrossMatchIndexes(*a, *b, opts, nullptr, &stats, &phases) ==
                w_.xmatch_reference(m),
            "CrossMatchIndexes");
      pin += phases.pin_us;
      descend += phases.descend_us;
      refine += phases.refine_us;
      candidates += stats.candidate_pairs;
      refined += stats.refined_pairs;
      results += stats.result_pairs;
    }
    // Both modes per rep; times are the per-call mean.
    samples_.Add("join2.pin_ms", "ms", "lower", pin / 2e3);
    samples_.Add("join2.descend_ms", "ms", "lower", descend / 2e3);
    samples_.Add("join2.refine_ms", "ms", "lower", refine / 2e3);
    samples_.Add("join2.candidate_pairs", "pairs", "lower", candidates / 2.0);
    samples_.Add("join2.refine_yield", "frac", "higher",
                 refined == 0 ? 0 : static_cast<double>(results) / refined);
  }

  // The workload's own traffic with traces on: interleaved untraced and
  // traced closed-loop segments give the tracing overhead; a traced run at
  // the workload's rate gives the queue wait and the request spans.
  void Loopback(Record* rec) {
    const Spec& spec = w_.spec();
    const double segment = w_.tiny() ? 0.1 : 0.5;
    std::vector<double> untraced, traced;
    for (int r = 0; r < kReps; ++r) {
      w_.set_trace(false);
      untraced.push_back(LittleRate(
          RunClosed(w_, conns_[0], 0.1 * segment, segment), spec.depth));
      w_.set_trace(true);
      traced.push_back(LittleRate(
          RunClosed(w_, conns_[0], 0.1 * segment, segment), spec.depth));
    }
    const double run_s = 0.3 * seconds_;
    PhaseResult run =
        spec.open_rate > 0
            ? RunOpen(w_, conns_[0], w_.open_rate(), spec.mutation_rate, run_s)
            : RunClosed(w_, conns_[0], 0.1 * run_s, run_s);
    w_.set_trace(false);

    const bool xmatch = spec.kind == Kind::kXmatch;
    std::vector<double> queue, stream;
    for (size_t i = 0; i < run.traced.size(); ++i) {
      const Outcome& o = run.traced[i];
      queue.push_back(o.stage_us[2]);  // the queue stage in both stage sets
      if (xmatch) stream.push_back(o.stage_us[6] / 1e3);
      if (i < kMaxRequestSpans) {
        RequestSpans(xmatch ? "join_datasets" : "join_batch",
                     xmatch ? kCrossMatchStages : kJoinStages, o);
      }
    }
    rec->Add("join_service.queue_us_p50", "us", "lower", Quantile(queue, 0.5),
             queue.size())
        .quantile = 0.5;
    rec->Add("join_service.queue_us_p99", "us", "lower", Quantile(queue, 0.99),
             queue.size())
        .quantile = 0.99;
    if (xmatch) {
      rec->Add("join2.stream_ms", "ms", "lower", Quantile(stream, 0.5),
               stream.size())
          .quantile = 0.5;
    }
    if (spec.open_rate > 0) {
      rec->Add("loadgen.lag_p99_ms", "ms", "lower", Quantile(run.lag_ms, 0.99),
               run.lag_ms.size())
          .quantile = 0.99;
    }
    const double u = Quantile(untraced, 0.5);
    rec->Add("loadgen.trace_overhead_frac", "frac", "lower",
             u > 0 ? 1 - Quantile(traced, 0.5) / u : 0, untraced.size());
  }

  // Push-channel and rejection counters over the whole pass.
  void PushCounters(Record* rec) {
    const net::ServerCounters c = stack_.server->counters();
    const double rejected =
        static_cast<double>(stack_.server->StatsWithAdmission().rejected_requests);
    rec->Add("join_server.rejected", "count", "lower", rejected, 1);
    rec->Add("join_server.events_pushed", "count", "higher",
             static_cast<double>(c.events_pushed), 1);
    rec->Add("join_server.events_dropped", "count", "lower",
             static_cast<double>(c.events_dropped), 1);
    rec->Add("join_server.gap_frames", "count", "lower",
             static_cast<double>(c.gap_frames), 1);
    for (const util::CollectedMetric& m : stack_.service->metrics()->Collect()) {
      if (m.name != "server_event_delivery_lag_us" || m.series.empty()) continue;
      const util::LatencyHistogram& h = m.series[0].hist;
      if (h.count() == 0) continue;
      rec->Add("join_server.event_lag_p99_us", "us", "lower",
               h.QuantileMicros(0.99), h.count())
          .quantile = 0.99;
    }
  }

  // A request span with its server stages as children. The stages carry
  // durations only, so they are laid end to end from the middle of the
  // transport time (transport assumed symmetric).
  void RequestSpans(const char* name, const char* const* stages,
                    const Outcome& o) {
    const uint64_t trace = next_request_trace_++;
    const uint64_t root = spans_->Add(name, trace, 0, o.sent_s, o.done_s);
    double server_s = 0;
    for (double us : o.stage_us) server_s += us / 1e6;
    double t = o.sent_s + std::max(0.0, (o.done_s - o.sent_s) - server_s) / 2;
    for (int i = 0; i < 7; ++i) {
      const double end = t + o.stage_us[i] / 1e6;
      spans_->Add(stages[i], trace, root, t, end);
      t = end;
    }
  }

  Workload& w_;
  Stack& stack_;
  net::AsyncJoinClient* const conns_[2];
  const double seconds_;
  SpanLog* spans_;
  const service::QueryBatch& batch_;
  const act::JoinStats& ref_;
  const std::shared_ptr<const service::ShardedIndex> snap_;
  const act::JoinInput input_;
  const double n_;
  const double min_s_;
  service::QueryBatch traced_batch_;
  std::vector<std::vector<uint64_t>> shard_cells_;
  std::vector<std::vector<geom::Point>> shard_points_;
  util::StagePerfCounters perf_;
  util::WorkStealingPool pool2_;
  Samples samples_;
  uint64_t rep_trace_ = 0;
  uint64_t rep_span_ = 0;
  uint64_t next_request_trace_ = 1000;
  // Fleet: the bench-owned matcher (declared after what it reads).
  service::ServiceCatalog catalog_;
  uint64_t matcher_events_ = 0;
  uint64_t matcher_seq_ = 0;
  std::unique_ptr<service::SubscriptionMatcher> matcher_;
};

}  // namespace

void MeasureLayers(Workload& w, Stack& stack,
                   net::AsyncJoinClient* const conns[2], double seconds,
                   Record* out, SpanLog* spans) {
  LayerPass(w, stack, conns, seconds, spans).Run(out);
}

}  // namespace actjoin::ledger
