// ledger: runs one workload of the layered loopback ledger and prints its
// record as one JSON line (the last line of stdout). Progress goes to
// stderr. Exit status: 0 when every reply verified, 1 when any operation
// failed, 2 on a usage or set-up error.
//
//   ledger --workload=<name> [--seed=1] [--seconds=20] [--traced]
//          [--spans_out=<file>] [--tmp_dir=<dir>] [--tiny]
//          [--inject_mismatch]
//
// bench/ledger/run.py builds this binary and is the usual way to run it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ledger.h"
#include "util/flags.h"
#include "util/perf_counters.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace actjoin::ledger {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Metric& Record::Add(const std::string& name, const std::string& unit,
                    const std::string& better, double value, uint64_t n) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.better = better;
  m.value = value;
  m.n = n;
  metrics_.push_back(m);
  return metrics_.back();
}

void Record::AddReps(const std::string& name, const std::string& unit,
                     const std::string& better,
                     const std::vector<double>& reps) {
  Metric& m = Add(name, unit, better, Quantile(reps, 0.5), reps.size());
  m.has_range = !reps.empty();
  if (m.has_range) {
    m.min = *std::min_element(reps.begin(), reps.end());
    m.max = *std::max_element(reps.begin(), reps.end());
  }
}

void Record::AddUnavailable(const std::string& name, const std::string& unit,
                            const std::string& better) {
  Metric& m = Add(name, unit, better, 0, 0);
  m.available = false;
}

void Tally::Fail(const std::string& why) {
  const uint64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 5) std::fprintf(stderr, "ledger: FAILED: %s\n", why.c_str());
}

uint64_t SpanLog::Add(const std::string& name, uint64_t trace_id,
                      uint64_t parent, double start_s, double end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, trace_id, parent, start_s, end_s});
  return id;
}

void SpanLog::End(uint64_t id, double end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = end_s;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"trace_id\":%llu,\"parent\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<unsigned long long>(s.trace_id),
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

// Set-ups are repeated at least kMinSetups times, and then until they have
// taken kSetupBudgetS, at most kMaxSetups times.
constexpr size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kMaxSetups = 25;

// The untraced pass measures in rounds of about this long, in which the
// crossmatch and census's open loop each complete ~40-60 requests.
constexpr double kRoundS = 2.0;
// A timing metric is the value that this share of the rounds beat.
constexpr double kFastShare = 0.25;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Names, units and messages are bench-chosen ASCII without quotes or
// backslashes, except the compiler string, which is sanitized here.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) out += (c == '"' || c == '\\' || c < 0x20) ? ' ' : c;
  return out + "\"";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string ToJson(const Spec& spec, uint64_t seed, bool traced,
                   double seconds, const Tally& tally, const Record& rec) {
  std::ostringstream o;
  o << "{\"workload\":" << JsonString(spec.name) << ",\"seed\":" << seed
    << ",\"traced\":" << (traced ? "true" : "false")
    << ",\"seconds\":" << JsonNumber(seconds)
    << ",\"correct\":" << (tally.failed() == 0 ? "true" : "false")
    << ",\"attempted\":" << tally.attempted()
    << ",\"failed\":" << tally.failed() << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : rec.metrics()) {
    o << (first ? "" : ",") << JsonString(m.name) << ":{";
    first = false;
    o << "\"unit\":" << JsonString(m.unit)
      << ",\"better\":" << JsonString(m.better);
    if (!m.available) {
      o << ",\"available\":false}";
      continue;
    }
    o << ",\"value\":" << JsonNumber(m.value) << ",\"n\":" << m.n;
    if (m.has_range) {
      o << ",\"min\":" << JsonNumber(m.min) << ",\"max\":" << JsonNumber(m.max);
    }
    if (m.quantile > 0) o << ",\"quantile\":" << JsonNumber(m.quantile);
    o << "}";
  }
  const util::StagePerfCounters probe;
  o << "},\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"perf_counters\":" << (probe.available() ? "true" : "false")
    << ",\"build_type\":" << JsonString(LEDGER_BUILD_TYPE)
    << ",\"compiler\":" << JsonString(std::string("GCC ") + __VERSION__)
    << "}}";
  return o.str();
}

// Latency percentiles are taken per request class (the crossmatch's two
// modes differ by ~20% in cost, so a pooled median would sit in the gap
// between them) and averaged over the classes.
double ClassQuantile(const PhaseResult& r, double q, uint64_t* n) {
  double sum = 0;
  *n = 0;
  for (const std::vector<double>& v : r.latency_ms) {
    sum += Quantile(v, q);
    *n += v.size();
  }
  return r.latency_ms.empty() ? 0 : sum / r.latency_ms.size();
}

// A timing metric over the rounds: the value kFastShare of them beat, with
// the rounds' min and max, and n the requests behind it.
void AddRounds(Record* rec, const std::string& name, const std::string& unit,
               const std::string& better, const std::vector<double>& rounds,
               uint64_t n) {
  const double q = better == "higher" ? 1 - kFastShare : kFastShare;
  Metric& m = rec->Add(name, unit, better, Quantile(rounds, q), n);
  m.has_range = true;
  m.min = *std::min_element(rounds.begin(), rounds.end());
  m.max = *std::max_element(rounds.begin(), rounds.end());
}

// The untraced pass. The measured seconds are split into rounds, each a
// closed-loop window followed by an open-loop window, so both loops sample
// the whole run rather than one stretch of it. The reference host is not
// steady: other guests share its caches and cores, and for seconds at a
// time every workload runs 30-40% slower. A median over the run follows
// how much of it fell in such a stretch, so each timing metric is taken
// per round and reported from the faster rounds (AddRounds).
void MeasureEndToEnd(Workload& w, net::AsyncJoinClient* client,
                     double seconds, Record* rec) {
  const Spec& spec = w.spec();
  const bool has_open = spec.open_rate > 0;
  const int rounds = std::max(2, static_cast<int>(std::lround(seconds / kRoundS)));
  const double closed_share = has_open ? 0.3 : 1.0;
  const double closed_s = seconds * closed_share / rounds;
  const double open_s = seconds * (1 - closed_share) / rounds;
  std::vector<double> rates, p50s, p90s;
  PhaseResult closed, open;
  for (int r = 0; r < rounds; ++r) {
    PhaseResult c = RunClosed(w, client, 0.1 * closed_s, closed_s);
    rates.push_back(c.rate());
    // Latency comes from the open loop, timed from each request's due
    // time; the crossmatch is closed-loop only.
    PhaseResult o;
    if (has_open) o = RunOpen(w, client, w.open_rate(), spec.mutation_rate, open_s);
    const PhaseResult& lat = has_open ? o : c;
    uint64_t n = 0;
    p50s.push_back(ClassQuantile(lat, 0.5, &n));
    p90s.push_back(ClassQuantile(lat, 0.9, &n));
    Append(&closed, std::move(c));
    Append(&open, std::move(o));
  }

  AddRounds(rec, "throughput_rps", "1/s", "higher", rates, closed.completed);
  if (w.points_per_request() > 0) {
    rec->Add("throughput_mpts", "Mpts/s", "higher",
             Quantile(rates, 1 - kFastShare) * w.points_per_request() / 1e6,
             closed.completed);
  }
  // The gated tail is p90: p99 moves with every scheduling hiccup of a
  // shared 4-core host, so it is recorded beside it, ungated, over the
  // whole run.
  const uint64_t n = has_open ? open.completed : closed.completed;
  AddRounds(rec, "latency_p50_ms", "ms", "lower", p50s, n);
  AddRounds(rec, "latency_p90_ms", "ms", "lower", p90s, n);
  if (has_open) {
    uint64_t n = 0;
    const double p99 = ClassQuantile(open, 0.99, &n);
    rec->Add("latency_p99_ms", "ms", "lower", p99, n).quantile = 0.99;
    rec->Add("loadgen.lag_p99_ms", "ms", "lower", Quantile(open.lag_ms, 0.99),
             open.lag_ms.size())
        .quantile = 0.99;
  }
  if (spec.mutation_rate > 0) {
    rec->Add("mutate_p50_ms", "ms", "lower", Quantile(open.mutation_ms, 0.5),
             open.mutation_ms.size())
        .quantile = 0.5;
    rec->Add("mutate_p90_ms", "ms", "lower", Quantile(open.mutation_ms, 0.9),
             open.mutation_ms.size())
        .quantile = 0.9;
  }
}

int Run(int argc, char** argv) {
  util::Flags flags;
  std::string names;
  for (const std::string& n : SpecNames()) names += (names.empty() ? "" : ", ") + n;
  flags.AddString("workload", "", "workload to run: " + names);
  flags.AddInt("seed", 1, "seed for every input generator");
  flags.AddDouble("seconds", 20, "measured seconds of traffic");
  flags.AddBool("traced", false, "run the traced per-layer pass");
  flags.AddString("spans_out", "", "traced pass: write spans here");
  flags.AddString("tmp_dir", ".", "directory for the fleet's snapshot store");
  flags.AddBool("tiny", false, "tiny datasets (the ctest smoke scale)");
  flags.AddBool("inject_mismatch", false,
                "corrupt one reference count (the run must fail)");
  flags.Parse(argc, argv);

  const Spec* spec = FindSpec(flags.GetString("workload"));
  if (spec == nullptr) {
    std::fprintf(stderr, "ledger: --workload must be one of: %s\n",
                 names.c_str());
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const double seconds = flags.GetDouble("seconds");
  const bool traced = flags.GetBool("traced");
  if (!(seconds > 0)) {
    std::fprintf(stderr, "ledger: --seconds must be positive\n");
    return 2;
  }

  Tally tally;
  Record rec;
  Workload w(*spec, seed, flags.GetBool("tiny"), flags.GetString("tmp_dir"),
             &tally);
  w.Prepare();

  // Set-up time, so that work moved into set-up shows. The set-up is
  // repeated, more often when it is quick (the fleet's takes ~30 ms), each
  // stack torn down before the next, and the median reported; the last
  // stack serves the run.
  // The smoke scale sets up once.
  const size_t min_setups = w.tiny() ? 1 : kMinSetups;
  const double setup_budget = w.tiny() ? 0 : kSetupBudgetS;
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  double setup_total = 0;
  do {
    stack.reset();
    const double setup_start = NowSeconds();
    stack = w.SetUp();
    setups.push_back(NowSeconds() - setup_start);
    setup_total += setups.back();
  } while (setups.size() < min_setups ||
           (setup_total < setup_budget && setups.size() < kMaxSetups));
  std::fprintf(stderr, "ledger: %s seed %llu: set-up %.3f s (median of %zu)\n",
               spec->name, static_cast<unsigned long long>(seed),
               Quantile(setups, 0.5), setups.size());

  w.ComputeReferences(*stack);
  if (flags.GetBool("inject_mismatch")) w.CorruptReference();
  // Before traffic: the fleet's mutations change the served index.
  const double index_mib = w.IndexMiB(*stack);

  net::AsyncJoinClient a, b;
  std::string error;
  for (net::AsyncJoinClient* c : {&a, &b}) {
    if (!c->Connect(stack->server->host(), stack->server->port(), &error)) {
      throw std::runtime_error("connect failed: " + error);
    }
    c->set_recv_timeout_ms(60000);
  }
  net::AsyncJoinClient* const conns[2] = {&a, &b};
  w.Subscribe(&a);

  // Warm-up traffic, verified but not measured.
  RunClosed(w, &a, std::min(0.5, 0.05 * seconds), 0);

  SpanLog spans;
  if (!traced) {
    MeasureEndToEnd(w, &a, seconds, &rec);
    rec.AddReps("setup_s", "s", "lower", setups);
    rec.Add("index_mib", "MiB", "lower", index_mib, 1);
  } else {
    MeasureLayers(w, *stack, conns, seconds, &rec, &spans);
  }
  w.FinishVerification(*stack);
  a.Close();
  b.Close();
  stack.reset();
  if (!traced) rec.Add("peak_rss_mib", "MiB", "lower", PeakRssMiB(), 1);
  rec.Add("failed_frac", "frac", "lower",
          tally.attempted() == 0
              ? 1.0
              : static_cast<double>(tally.failed()) / tally.attempted(),
          tally.attempted());

  const std::string& spans_out = flags.GetString("spans_out");
  if (traced && !spans_out.empty() && !spans.Write(spans_out)) {
    std::fprintf(stderr, "ledger: cannot write %s\n", spans_out.c_str());
    return 2;
  }
  std::printf("%s\n",
              ToJson(*spec, seed, traced, seconds, tally, rec).c_str());
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace actjoin::ledger

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc raises its mmap threshold (up to 32 MiB) each time a large
  // mmapped block is freed; the crossmatch's 16-32 MiB buffers then come
  // from the heaps and fragment them, and its peak RSS wandered by ~100 MiB
  // from one process to the next. A fixed 16 MiB threshold hands those
  // buffers back on free, so peak_rss_mib follows the memory the program
  // holds; smaller buffers, such as census's 1.5 MiB requests, are left to
  // the heaps as before.
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
#endif
  try {
    return actjoin::ledger::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
}
