// Load generators that drive a live enw::serve::Server from outside.
//
// closed_loop: C clients, each sending its next request only after the
// previous reply arrived — the shape of callers that wait for an answer.
// Latency runs from the moment a request is sent until submit() returns.
//
// open_loop: seeded Poisson arrivals at a fixed rate, independent of how
// fast the server answers — the shape of independent users. Server::submit
// blocks, so a small pool of submitter threads takes the next due request
// whenever one is free. Latency runs from when a request was DUE, so a
// stalled server (or a late generator) charges its wait to every request
// behind it; how late the generator itself ran is reported separately.
//
// Both check every reply with a caller-supplied predicate (bitwise equality
// against an offline reference) and count non-kOk statuses and mismatches
// as failed operations. Requests sent during the warm-up prefix are served
// and checked but not timed.
//
// Besides the pooled sample, the timed requests are kept in send (or due)
// order so figures can be taken per window of consecutive requests and
// summarised by their median: on a shared virtual machine the host steals
// whole 10 ms slices from a vCPU, and a statistic pooled over a run moves
// with how many slices it happened to lose, while the median window does not.
#pragma once

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "obs/obs.h"
#include "serve/replay.h"
#include "serve/server.h"

namespace perfbench {

using enw::serve::monotonic_now_ns;

inline std::uint64_t seconds_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

/// Sorted latency sample with nearest-rank percentiles in microseconds.
struct Sample {
  std::vector<std::uint64_t> ns;  // ascending

  void sort() { std::sort(ns.begin(), ns.end()); }
  double pct_us(double p) const {
    return static_cast<double>(enw::serve::percentile_sorted_ns(ns, p)) / 1e3;
  }
  double mean_us() const {
    if (ns.empty()) return 0.0;
    double sum = 0.0;
    for (std::uint64_t v : ns) sum += static_cast<double>(v);
    return sum / static_cast<double>(ns.size()) / 1e3;
  }
};

/// One timed request: when it was sent (closed loop) or due (open loop),
/// and its latency from then.
struct Record {
  std::uint64_t at_ns = 0;
  std::uint64_t latency_ns = 0;
};

struct LoadResult {
  std::vector<Record> timed;       // timed requests in `at_ns` order
  Sample latency;                  // the same latencies, pooled and sorted
  Sample late;                     // open loop: generator lateness per request
  std::uint64_t attempted = 0;     // every submitted request, warm-up included
  std::uint64_t failed = 0;        // non-kOk status or reply mismatch
  double measured_s = 0.0;         // length of the timed window
  std::uint64_t timed_from_ns = 0; // start of the timed window (monotonic)

  double rps() const {
    return measured_s > 0 ? static_cast<double>(latency.ns.size()) / measured_s : 0.0;
  }
};

namespace detail {

struct ThreadTally {
  std::vector<Record> timed;
  std::vector<std::uint64_t> late;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

inline void merge(std::vector<ThreadTally>& tallies, LoadResult& out) {
  for (ThreadTally& t : tallies) {
    out.timed.insert(out.timed.end(), t.timed.begin(), t.timed.end());
    out.late.ns.insert(out.late.ns.end(), t.late.begin(), t.late.end());
    out.attempted += t.attempted;
    out.failed += t.failed;
  }
  std::sort(out.timed.begin(), out.timed.end(),
            [](const Record& a, const Record& b) { return a.at_ns < b.at_ns; });
  for (const Record& r : out.timed) out.latency.ns.push_back(r.latency_ns);
  out.latency.sort();
  out.late.sort();
}

/// Sleep until ~30 us before `due`, then spin. With the 1 ns timer slack the
/// submitter threads set, the sleep wakes within a few microseconds; a
/// yielding spin would instead starve the collator on a small machine.
inline void wait_until(std::uint64_t due) {
  constexpr std::uint64_t kSpinNs = 30000;
  const std::uint64_t now = monotonic_now_ns();
  if (due > now + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - now));
  }
  while (monotonic_now_ns() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace detail

/// `clients` closed-loop clients for warm_s + measure_s seconds. Client c
/// picks pool indices from its own stream forked off `rng`.
/// check(index, reply_value) -> bool decides whether a reply is correct.
template <typename In, typename Out, typename Check>
LoadResult closed_loop(enw::serve::Server<In, Out>& server, std::span<const In> pool,
                       const Check& check, std::size_t clients, double warm_s,
                       double measure_s, enw::Rng& rng) {
  std::vector<detail::ThreadTally> tallies(clients);
  std::vector<enw::Rng> streams;
  for (std::size_t c = 0; c < clients; ++c) streams.push_back(rng.fork());
  const std::uint64_t start = monotonic_now_ns();
  const std::uint64_t timed_from = start + seconds_to_ns(warm_s);
  const std::uint64_t end = timed_from + seconds_to_ns(measure_s);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      detail::ThreadTally& t = tallies[c];
      enw::Rng& r = streams[c];
      t.timed.reserve(1 << 20);
      for (;;) {
        const std::size_t idx = r.index(pool.size());
        const std::uint64_t t0 = monotonic_now_ns();
        if (t0 >= end) break;
        typename enw::serve::Server<In, Out>::Reply reply;
        {
          ENW_SPAN("bench.submit");
          reply = server.submit(pool[idx]);
        }
        const std::uint64_t t1 = monotonic_now_ns();
        ++t.attempted;
        if (reply.status != enw::serve::Status::kOk || !check(idx, reply.value)) {
          ++t.failed;
        }
        if (t0 >= timed_from) t.timed.push_back({t0, t1 - t0});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult out;
  detail::merge(tallies, out);
  out.measured_s = measure_s;
  out.timed_from_ns = timed_from;
  return out;
}

/// Open-loop Poisson arrivals at `rate_rps` for warm_s + measure_s seconds,
/// submitted by `submitters` threads. Arrival gaps and pool indices are drawn
/// from `rng` up front, so a seed fixes the whole schedule.
template <typename In, typename Out, typename Check>
LoadResult open_loop(enw::serve::Server<In, Out>& server, std::span<const In> pool,
                     const Check& check, std::size_t submitters, double rate_rps,
                     double warm_s, double measure_s, enw::Rng& rng) {
  const std::uint64_t horizon = seconds_to_ns(warm_s + measure_s);
  const std::uint64_t warm = seconds_to_ns(warm_s);
  const double mean_gap_ns = 1e9 / rate_rps;
  std::vector<std::uint64_t> offset;
  std::vector<std::size_t> index;
  for (std::uint64_t t = enw::serve::poisson_gap_ns(mean_gap_ns, rng.uniform());
       t < horizon; t += enw::serve::poisson_gap_ns(mean_gap_ns, rng.uniform())) {
    offset.push_back(t);
    index.push_back(rng.index(pool.size()));
  }

  std::vector<detail::ThreadTally> tallies(submitters);
  std::atomic<std::size_t> next{0};
  // A millisecond of lead so every submitter is parked before the first due.
  const std::uint64_t t0 = monotonic_now_ns() + 1000000;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      detail::ThreadTally& t = tallies[s];
      t.timed.reserve(offset.size() / submitters + 1024);
      t.late.reserve(offset.size() / submitters + 1024);
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= offset.size()) break;
        const std::uint64_t due = t0 + offset[i];
        detail::wait_until(due);
        const std::uint64_t sent = monotonic_now_ns();
        typename enw::serve::Server<In, Out>::Reply reply;
        {
          ENW_SPAN("bench.submit");
          reply = server.submit(pool[index[i]]);
        }
        const std::uint64_t done = monotonic_now_ns();
        ++t.attempted;
        if (reply.status != enw::serve::Status::kOk || !check(index[i], reply.value)) {
          ++t.failed;
        }
        if (offset[i] >= warm) {
          t.timed.push_back({due, done - due});
          t.late.push_back(sent - due);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult out;
  detail::merge(tallies, out);
  out.measured_s = static_cast<double>(horizon - warm) / 1e9;
  out.timed_from_ns = t0 + warm;
  return out;
}

/// Percentile p (in us) of each full window of `n` consecutive timed
/// requests.
inline std::vector<double> window_pct_us(const LoadResult& r, std::size_t n, double p) {
  std::vector<double> out;
  std::vector<std::uint64_t> w;
  for (std::size_t first = 0; first + n <= r.timed.size(); first += n) {
    w.clear();
    for (std::size_t i = first; i < first + n; ++i) w.push_back(r.timed[i].latency_ns);
    std::sort(w.begin(), w.end());
    out.push_back(static_cast<double>(enw::serve::percentile_sorted_ns(w, p)) / 1e3);
  }
  return out;
}

/// Request rate (1/s) of each full window of `n` consecutive timed requests.
inline std::vector<double> window_rps(const LoadResult& r, std::size_t n) {
  std::vector<double> out;
  for (std::size_t first = 0; first + n <= r.timed.size(); first += n) {
    const std::uint64_t span = r.timed[first + n - 1].at_ns - r.timed[first].at_ns;
    if (span > 0) out.push_back(static_cast<double>(n - 1) * 1e9 / static_cast<double>(span));
  }
  return out;
}

}  // namespace perfbench
