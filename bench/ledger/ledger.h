// The layered loopback ledger: shared declarations.
//
// One `ledger` process runs one workload. It hosts the real
// service::JoinService and net::JoinServer in-process, drives them over
// loopback with net::AsyncJoinClient, and checks every reply against a
// reference computed in-process at set-up. The untraced pass yields the
// end-to-end metrics; the traced pass (--traced) times calls into each
// module's public functions on the same inputs and yields the per-layer
// ledger. See README.md for the workloads and the metric glossary.
//
// Files:
//   ledger.cc     flags, the two passes, the JSON record
//   workload.cc   inputs from the seed, set-up, references, verification
//   loadgen.cc    closed- and open-loop drivers
//   layers.cc     the traced per-layer measurements and bench-side spans

#ifndef ACTJOIN_BENCH_LEDGER_LEDGER_H_
#define ACTJOIN_BENCH_LEDGER_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "net/async_join_client.h"
#include "net/join_server.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "store/snapshot_store.h"
#include "util/timer.h"

namespace actjoin::ledger {

// --- Statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double Quantile(std::vector<double> v, double q);

/// Seconds on the process-wide steady clock (shared by every thread, so
/// send and completion stamps taken on different threads subtract).
double NowSeconds();

/// True when a join's per-polygon counts and pair totals match a reference.
bool SameJoin(const act::JoinStats& got, const act::JoinStats& want);

// --- The record ---------------------------------------------------------------

/// One named measurement. `value` is the p50 of `n` samples when the metric
/// comes from repetitions (then min/max are set), else the measurement
/// itself with n its sample count. Unavailable metrics (hardware counters
/// the kernel denies) carry no value.
struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  bool available = true;
  double value = 0;
  uint64_t n = 0;
  bool has_range = false;
  double min = 0;
  double max = 0;
  double quantile = 0;  // set when the value is a latency percentile
};

class Record {
 public:
  Metric& Add(const std::string& name, const std::string& unit,
              const std::string& better, double value, uint64_t n);
  /// p50 of the per-rep samples, with their min and max.
  void AddReps(const std::string& name, const std::string& unit,
               const std::string& better, const std::vector<double>& reps);
  void AddUnavailable(const std::string& name, const std::string& unit,
                      const std::string& better);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Attempted / failed operation counts, shared by every thread that
/// completes a request. The first few failure reasons go to stderr.
class Tally {
 public:
  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void Fail(const std::string& why);
  uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

// --- Spans ----------------------------------------------------------------------

/// Bench-side spans, kept in memory and written once as Chrome trace-event
/// JSON ("X" events; trace_id and parent ride in args).
class SpanLog {
 public:
  /// Returns the new span's id (ids start at 1; parent 0 = root).
  uint64_t Add(const std::string& name, uint64_t trace_id, uint64_t parent,
               double start_s, double end_s);
  /// Closes a span added before its children were known.
  void End(uint64_t id, double end_s);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t id;
    uint64_t trace_id;
    uint64_t parent;
    double start_s;
    double end_s;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- Workloads --------------------------------------------------------------------

enum class Kind { kCensus, kNbhd, kFleet, kXmatch };

/// The fixed shape of one workload. Rates are constants, a fifth of the
/// seed's closed-loop capacity on the reference host or less (README); they
/// are never derived at run time.
struct Spec {
  const char* name;
  Kind kind;
  int depth;             // closed-loop requests in flight (1 keeps a feed in order)
  double open_rate;      // open-loop primary requests per second (0: none)
  double mutation_rate;  // open-loop ADD/REMOVE per second (fleet only)
};

/// Null for an unknown name.
const Spec* FindSpec(const std::string& name);
std::vector<std::string> SpecNames();

/// One in-flight request: its sequence number (which selects the batch or
/// mode) and the time it was due, plus the future for its reply.
struct Pending {
  uint64_t seq = 0;
  double due_s = 0;   // when it should have been sent
  double sent_s = 0;  // when it was sent
  bool mutation = false;
  std::future<net::AsyncJoinClient::RawReply> raw;
  std::future<net::CrossMatchReply> pairs;

  /// Waits up to `seconds` for the reply; true once it has arrived.
  bool WaitFor(double seconds) const;
};

/// What a verified reply carried back. The load generator stamps the send
/// and completion times; the traced pass turns them into spans.
struct Outcome {
  bool ok = false;
  int cls = 0;  // latency class: the crossmatch mode, else 0
  bool traced = false;
  std::array<double, 7> stage_us{};  // service/join2 trace stages
  double sent_s = 0;
  double done_s = 0;
};

/// The serving stack one set-up produces. Member order is teardown order
/// in reverse: the server stops before the service shuts down.
struct Stack {
  std::unique_ptr<store::SnapshotStore> store;
  std::unique_ptr<service::JoinService> service;
  std::unique_ptr<net::JoinServer> server;
};

/// Inputs, references and verification for one workload and seed.
class Workload {
 public:
  Workload(const Spec& spec, uint64_t seed, bool tiny,
           const std::string& tmp_dir, Tally* tally);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const Spec& spec() const { return spec_; }
  bool tiny() const { return tiny_; }
  const std::string& tmp_dir() const { return tmp_dir_; }
  Tally* tally() const { return tally_; }

  /// Work done before the timed set-up: the fleet's snapshot store is
  /// written here (its boot path is a warm start from that store).
  void Prepare();

  /// One timed set-up: polygons in memory to a stack that answered PING.
  std::unique_ptr<Stack> SetUp();

  /// Computes the reference answers against the served snapshots.
  void ComputeReferences(const Stack& stack);
  /// Test hook: corrupts one reference count so verification must fail.
  void CorruptReference();

  /// Registers the fleet's standing subscriptions on `client` (no-op for
  /// the other workloads).
  void Subscribe(net::AsyncJoinClient* client);
  /// After traffic stops: waits for pushed events to drain, then checks the
  /// subscriptions' seq tiling and the fleet replies against the epochs
  /// they report. Failures go to the tally.
  void FinishVerification(const Stack& stack);

  /// Whether primary requests ask the server for a stage trace. Only
  /// switch while no traffic is running.
  void set_trace(bool on);
  /// Sends primary request `seq` (a point batch or a crossmatch).
  Pending Issue(net::AsyncJoinClient* client, uint64_t seq);
  /// Sends the fleet's next mutation: the k-th is an ADD of a geofence when
  /// k is even and the REMOVE of that geofence when k is odd.
  Pending IssueMutation(net::AsyncJoinClient* client);
  /// False while the next mutation is a REMOVE whose ADD is not yet
  /// acknowledged: sent earlier, the two could reorder on the service
  /// workers and the REMOVE would name an id that does not exist yet.
  bool NextMutationReady();
  /// True once a mutation's ack failed verification; no more are sent.
  bool mutation_failed() const { return mutation_failed_.load(); }
  /// Waits for and verifies a reply; failures go to the tally.
  Outcome Complete(Pending& p);

  /// The open-loop rate; a tenth of Spec::open_rate at the smoke scale.
  double open_rate() const { return spec_.open_rate * (tiny_ ? 0.1 : 1.0); }
  /// Points per primary request (0 for the crossmatch).
  uint64_t points_per_request() const;
  /// Latency classes of the primary request (2 for the crossmatch).
  int num_classes() const { return spec_.kind == Kind::kXmatch ? 2 : 1; }

  /// Σ ShardedIndex::MemoryBytes over the served datasets.
  double IndexMiB(const Stack& stack) const;

  // --- Inputs the traced pass measures layer by layer ----------------------

  /// The point batch every point-stack layer is timed on, its dataset and
  /// its reference answer.
  const service::QueryBatch& layer_batch() const;
  const act::JoinStats& layer_reference() const;
  /// A polygon to add and remove for the ApplyDelta measurements.
  const geom::Polygon& delta_polygon() const { return geofences_[0]; }
  /// Fleet: the position batches; primary request `seq` sends
  /// batches()[BatchOf(seq)] (the walk runs forward, then retraces).
  const std::vector<service::QueryBatch>& batches() const { return batches_; }
  size_t BatchOf(uint64_t seq) const;
  /// Crossmatch: the two served dataset ids and the expected pairs per
  /// mode (0 intersects, 1 contains).
  static constexpr uint16_t kXmatchA = 0;
  static constexpr uint16_t kXmatchB = 1;
  const std::vector<std::pair<uint32_t, uint32_t>>& xmatch_reference(
      int mode) const {
    return xmatch_refs_[mode];
  }

 private:
  struct FleetReply {
    uint64_t epoch;
    uint32_t state;
    std::vector<uint64_t> geofence_counts;  // counts past the base polygons
  };
  struct SubState {
    uint64_t next_seq = 1;
    uint64_t events = 0;
  };

  service::ShardingOptions Sharding(bool precision) const;
  bool CheckFleet(uint64_t seq, const service::JoinResult& got);
  bool CheckMutation(uint64_t k, const net::AsyncJoinClient::RawReply& raw);

  const Spec spec_;
  const bool tiny_;
  const std::string tmp_dir_;
  Tally* tally_;
  geo::Grid grid_;
  bool trace_ = false;

  // Served polygon sets in catalog order (xmatch: boroughs, census).
  std::vector<std::vector<geom::Polygon>> datasets_;
  bool precision_ = false;  // 60 m precision-bound index (approximate mode)
  std::vector<service::QueryBatch> batches_;
  std::vector<act::JoinStats> references_;  // per batch (fleet: base only)
  service::QueryBatch xmatch_layer_batch_;
  act::JoinStats xmatch_layer_reference_;
  std::vector<geom::Polygon> geofences_;
  std::string store_dir_;

  // Fleet: per walk state, the count of positions inside each geofence.
  std::vector<std::vector<uint64_t>> geofence_refs_;
  uint32_t base_polygons_ = 0;
  uint64_t next_mutation_ = 0;  // touched by the open-loop sender only
  std::mutex fleet_mu_;
  std::vector<FleetReply> fleet_replies_;
  std::vector<uint64_t> mutation_epochs_;  // 0 until acked
  std::atomic<bool> mutation_failed_{false};
  std::mutex subs_mu_;
  std::vector<SubState> subs_;

  // Crossmatch: expected pairs per mode.
  std::array<std::vector<std::pair<uint32_t, uint32_t>>, 2> xmatch_refs_;
};

// --- Load generation ---------------------------------------------------------

/// Per-phase results. Latencies are milliseconds per class; lag is how late
/// the open-loop generator sent each request, milliseconds.
struct PhaseResult {
  uint64_t completed = 0;  // primary requests completed inside the window
  double first_done_s = 0;  // first and last of those completions
  double last_done_s = 0;
  std::vector<std::vector<double>> latency_ms;  // by class
  std::vector<double> mutation_ms;
  std::vector<double> lag_ms;
  std::vector<Outcome> traced;  // outcomes of traced requests

  /// Completions per second between the first and the last completion:
  /// unlike a count over the window it is not quantized to whole requests.
  double rate() const {
    return completed > 1 && last_done_s > first_done_s
               ? (completed - 1) / (last_done_s - first_done_s)
               : 0;
  }
};

/// Adds `from`'s samples and counts to `into`.
void Append(PhaseResult* into, PhaseResult&& from);

/// The workload's closed loop (Spec::depth requests in flight on `client`)
/// for `fill` seconds and then a measured window of `seconds`:
/// only replies arriving inside the window count, so the pipeline's ramp-up
/// and drain do not. Latency runs from each request's send to its verified
/// reply.
PhaseResult RunClosed(Workload& w, net::AsyncJoinClient* client, double fill,
                      double seconds);

/// Primary requests at `rate` per second, plus the fleet's mutations at
/// `mutation_rate`, all on `client`, for `seconds`. Latency runs from each
/// request's due time to its verified reply.
PhaseResult RunOpen(Workload& w, net::AsyncJoinClient* client, double rate,
                    double mutation_rate, double seconds);

// --- The traced pass ------------------------------------------------------------

/// Measures every layer on the workload's layer batch (5 interleaved reps)
/// plus the traced loopback runs, into `out`. Spans go to `spans`.
void MeasureLayers(Workload& w, Stack& stack,
                   net::AsyncJoinClient* const conns[2], double seconds,
                   Record* out, SpanLog* spans);

}  // namespace actjoin::ledger

#endif  // ACTJOIN_BENCH_LEDGER_LEDGER_H_
