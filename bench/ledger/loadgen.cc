// Closed- and open-loop drivers. Both run on the calling thread over one
// connection, so the load generator is that thread plus the reader of each
// of the two AsyncJoinClients (the second carries the traced pass's
// blocking calls).

#include <algorithm>
#include <deque>
#include <limits>
#include <sys/prctl.h>
#include <thread>

#include "ledger.h"

namespace actjoin::ledger {

namespace {

void SleepUntil(double t) {
  const double now = NowSeconds();
  if (t > now) std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
}

// Records one verified reply that counts toward the phase.
void Take(PhaseResult* out, const Pending& p, Outcome o, double done_s) {
  if (!o.ok) return;
  if (p.mutation) {
    out->mutation_ms.push_back((done_s - p.due_s) * 1e3);
    return;
  }
  out->latency_ms[o.cls].push_back((done_s - p.due_s) * 1e3);
  if (out->completed++ == 0 || done_s < out->first_done_s) {
    out->first_done_s = done_s;
  }
  out->last_done_s = std::max(out->last_done_s, done_s);
  if (o.traced) {
    o.sent_s = p.sent_s;
    o.done_s = done_s;
    out->traced.push_back(o);
  }
}

}  // namespace

void Append(PhaseResult* into, PhaseResult&& from) {
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  if (from.completed > 0) {
    into->first_done_s = into->completed == 0
                             ? from.first_done_s
                             : std::min(into->first_done_s, from.first_done_s);
    into->last_done_s = std::max(into->last_done_s, from.last_done_s);
  }
  into->completed += from.completed;
  into->latency_ms.resize(std::max(into->latency_ms.size(),
                                   from.latency_ms.size()));
  for (size_t c = 0; c < from.latency_ms.size(); ++c) {
    append(&into->latency_ms[c], from.latency_ms[c]);
  }
  append(&into->mutation_ms, from.mutation_ms);
  append(&into->lag_ms, from.lag_ms);
  into->traced.insert(into->traced.end(), from.traced.begin(),
                      from.traced.end());
}

// The calling thread sends and collects on one connection: with the
// client's reader and the server's three threads that keeps the process
// within a 4-core host (a second sending connection measured the
// scheduler more than the server).
PhaseResult RunClosed(Workload& w, net::AsyncJoinClient* client, double fill,
                      double seconds) {
  const size_t depth = static_cast<size_t>(w.spec().depth);
  PhaseResult out;
  out.latency_ms.resize(w.num_classes());
  const double begin = NowSeconds() + fill;
  const double end = begin + seconds;
  std::deque<Pending> inflight;
  uint64_t seq = 0;
  for (;;) {
    while (NowSeconds() < end && inflight.size() < depth) {
      const double sent = NowSeconds();
      Pending p = w.Issue(client, seq++);
      p.due_s = p.sent_s = sent;
      inflight.push_back(std::move(p));
    }
    if (inflight.empty()) break;
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    Outcome o = w.Complete(p);
    const double done = NowSeconds();
    if (done >= begin && done <= end) Take(&out, p, o, done);
  }
  return out;
}

// One thread sends on schedule and collects replies between sends, over one
// connection: the open loop adds only this thread and that connection's
// reader to the threads the server runs, so on a small host the generator
// does not starve itself (a late send inflates every latency behind it).
PhaseResult RunOpen(Workload& w, net::AsyncJoinClient* client, double rate,
                    double mutation_rate, double seconds) {
  PhaseResult out;
  out.latency_ms.resize(w.num_classes());
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // sleep precision = send precision
  const double inf = std::numeric_limits<double>::infinity();
  const double start = NowSeconds() + 0.001;
  const double end = start + seconds;
  // Replies are awaited in send order per stream; a mutation's long apply
  // must not hold up the batch replies behind it, so it has its own.
  std::deque<Pending> batches, mutations;
  uint64_t i = 0, j = 0;
  for (;;) {
    const double now = NowSeconds();
    const double tb = start + static_cast<double>(i) / rate;
    // After a failed mutation none follow: a REMOVE waits for its ADD's
    // ack, which a failed ADD never records, so the loop would never end.
    const double tm = mutation_rate > 0 && !w.mutation_failed()
                          ? start + (j + 0.5) / mutation_rate
                          : inf;
    if (tb < end && tb <= now) {
      Pending p = w.Issue(client, i++);
      p.due_s = tb;
      p.sent_s = now;
      out.lag_ms.push_back((now - tb) * 1e3);
      batches.push_back(std::move(p));
      continue;
    }
    const bool mutation_due = tm < end && tm <= now;
    if (mutation_due && w.NextMutationReady()) {
      Pending p = w.IssueMutation(client);
      p.due_s = tm;
      p.sent_s = now;
      ++j;
      mutations.push_back(std::move(p));
      continue;
    }
    if (!mutations.empty() && mutations.front().WaitFor(0)) {
      Outcome o = w.Complete(mutations.front());
      Take(&out, mutations.front(), o, NowSeconds());
      mutations.pop_front();
      continue;
    }
    // Nothing to send yet: wait for the next due time, or for the oldest
    // batch reply, whichever comes first. A mutation held back for its
    // ADD's ack, or in flight, is polled every millisecond.
    double next = std::min(tb < end ? tb : inf, tm < end ? tm : inf);
    if (mutation_due || !mutations.empty()) next = std::min(next, now + 0.001);
    if (next == inf && batches.empty() && mutations.empty()) break;
    const double wait = next == inf ? 0.05 : next - now;
    if (!batches.empty()) {
      if (batches.front().WaitFor(wait)) {
        Outcome o = w.Complete(batches.front());
        Take(&out, batches.front(), o, NowSeconds());
        batches.pop_front();
      }
    } else {
      SleepUntil(now + wait);
    }
  }
  return out;
}

}  // namespace actjoin::ledger
