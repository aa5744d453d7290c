#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/check.h"
#include "obs/obs.h"
#include "serve/serve_core.h"

namespace enw::serve {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

void append_ids(std::ostringstream& os, std::span<const std::size_t> ids) {
  os << "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ",";
    os << ids[i];
  }
  os << "]";
}

}  // namespace

std::string render_boundaries(std::span<const BatchRecord> batches,
                              std::span<const SwapBoundary> swaps,
                              const std::string& tag) {
  // With no activated swaps the rendering is exactly the pre-swap format —
  // tests pin that string byte-for-byte, so the version annotations appear
  // only when a swap makes them meaningful.
  std::ostringstream os;
  std::size_t s = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (; s < swaps.size() && swaps[s].first_batch == b; ++s) {
      os << "swap: t=" << swaps[s].at_ns << "ns v=" << swaps[s].version
         << " first_batch=" << b << "\n";
    }
    const BatchRecord& rec = batches[b];
    os << "batch " << b << ": t=" << rec.flush_ns
       << "ns reason=" << flush_reason_name(rec.reason)
       << " n=" << rec.executed.size() << " ids=";
    append_ids(os, rec.executed);
    os << " shed=";
    append_ids(os, rec.shed);
    if (!swaps.empty()) os << " v=" << rec.version;
    os << tag << "\n";
  }
  return os.str();
}

std::string ReplayResult::boundary_log() const {
  return render_boundaries(batches, swaps, "");
}

ReplayResult replay_trace(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExec& exec) {
  return replay_trace(
      trace, cfg,
      ReplayExecV([&exec](std::span<const std::size_t> ids, std::uint64_t) {
        exec(ids);
      }));
}

ReplayResult replay_trace(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExecV& exec) {
  ENW_SPAN("serve.replay");
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ENW_CHECK_MSG(trace[i - 1].arrival_ns <= trace[i].arrival_ns,
                  "trace arrivals must be non-decreasing");
  }
  for (std::size_t i = 1; i < cfg.swaps.size(); ++i) {
    ENW_CHECK_MSG(cfg.swaps[i - 1].at_ns <= cfg.swaps[i].at_ns,
                  "swap events must be non-decreasing in at_ns");
  }
  ENW_CHECK_MSG(cfg.resizes.empty(),
                "scripted resizes are a sharded-replay feature (replay_sharded)");
  ServeCore<std::size_t> core(cfg.serve, cfg.tenants);

  ReplayResult result;
  result.outcomes.resize(trace.size());
  ServeCore<std::size_t>::Batch batch;
  std::uint64_t exec_free_ns = 0;  // executor available from this instant
  std::uint64_t now = 0;
  std::size_t next = 0;      // next trace event to process
  std::size_t swap_idx = 0;  // next scripted swap to activate

  while (next < trace.size() || core.queued() != 0 || core.parked() != 0) {
    // Earliest instant the queue can flush: the policy's trigger, held back
    // while the executor is busy, and brought forward by a scripted drain.
    std::uint64_t flush_at = kNever;
    if (core.queued() != 0) {
      const FlushDecision d = core.poll(now);
      flush_at = std::max(d.due ? now : d.wake_ns, exec_free_ns);
      if (cfg.drain_at_ns != 0) {
        flush_at =
            std::min(flush_at, std::max({cfg.drain_at_ns, now, exec_free_ns}));
      }
    }
    const std::uint64_t next_arrival =
        next < trace.size() ? trace[next].arrival_ns : kNever;

    if (next_arrival <= flush_at) {
      // Admission. Arrivals at the flush instant are admitted first — the
      // documented tie rule that makes boundaries a pure trace function.
      now = next_arrival;
      const std::size_t id = next++;
      if (core.arrive(id, trace[id].tenant, trace[id].deadline_ns, now) ==
          ServeCore<std::size_t>::Admission::kRejected) {
        result.outcomes[id] = {Status::kRejected, now, 0};
      }
      continue;
    }

    // Flush. Scripted swaps due by this instant activate first — the replay
    // twin of the live capture-under-lock, so the whole batch runs on one
    // version. A swap scripted after the last flush never activates.
    now = flush_at;
    while (swap_idx < cfg.swaps.size() && cfg.swaps[swap_idx].at_ns <= now) {
      result.swaps.push_back({cfg.swaps[swap_idx].at_ns,
                              cfg.swaps[swap_idx].version,
                              result.batches.size()});
      core.swap(cfg.swaps[swap_idx].version);
      ++swap_idx;
    }
    if (cfg.drain_at_ns != 0 && now >= cfg.drain_at_ns) core.drain();
    core.collate(now, batch);

    BatchRecord rec;
    rec.flush_ns = now;
    rec.reason = batch.reason;
    rec.version = batch.version;
    for (const auto& e : batch.shed) {
      rec.shed.push_back(e.handle);
      result.outcomes[e.handle] = {Status::kTimedOut, now,
                                   now - trace[e.handle].arrival_ns};
    }
    for (const auto& e : batch.run) rec.executed.push_back(e.handle);
    if (!rec.executed.empty()) {
      // Faults: by default an exec exception propagates (the harness makes
      // no masking promise); mask_exec_faults opts into the live Server's
      // behaviour — the whole batch resolves kError and replay continues,
      // with the executor still occupied for the service interval it spent
      // failing.
      bool failed = false;
      try {
        exec(std::span<const std::size_t>(rec.executed), batch.version);
      } catch (...) {
        if (!cfg.mask_exec_faults) throw;
        failed = true;
      }
      const std::uint64_t complete = now + cfg.service_ns;
      exec_free_ns = complete;
      core.batch_done(batch, failed);
      for (std::size_t id : rec.executed) {
        result.outcomes[id] = {failed ? Status::kError : Status::kOk, complete,
                               complete - trace[id].arrival_ns};
      }
    }
    result.batches.push_back(std::move(rec));
  }
  result.stats = core.stats();
  result.tenant_stats = core.tenant_stats();
  return result;
}

std::uint64_t poisson_gap_ns(double mean_gap_ns, double u) {
  ENW_CHECK_MSG(mean_gap_ns >= 0.0, "mean gap must be non-negative");
  // u == 1.0 would give log(0) = -inf; casting the resulting +inf (or any
  // value >= 2^64) to uint64_t is undefined behaviour. Both clamps are
  // no-ops for in-contract draws, so seeded traces are unchanged.
  const double one_minus_u =
      std::max(1.0 - u, std::numeric_limits<double>::min());
  const double gap = -mean_gap_ns * std::log(one_minus_u);
  constexpr double kMaxGap = 9223372036854775808.0;  // 2^63, exact in double
  return static_cast<std::uint64_t>(std::clamp(gap, 0.0, kMaxGap));
}

std::vector<TraceEvent> poisson_trace(std::size_t n, double mean_gap_ns,
                                      std::uint64_t relative_deadline_ns,
                                      Rng& rng) {
  ENW_CHECK_MSG(mean_gap_ns >= 0.0, "mean gap must be non-negative");
  std::vector<TraceEvent> trace(n);
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += poisson_gap_ns(mean_gap_ns, rng.uniform());
    trace[i].arrival_ns = t;
    trace[i].deadline_ns =
        relative_deadline_ns == 0 ? 0 : t + relative_deadline_ns;
  }
  return trace;
}

std::vector<std::uint64_t> tenant_latencies(const ReplayResult& result,
                                            std::span<const TraceEvent> trace,
                                            std::uint32_t tenant) {
  ENW_CHECK_MSG(result.outcomes.size() == trace.size(),
                "outcomes/trace length mismatch");
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].tenant == tenant && result.outcomes[i].status == Status::kOk) {
      out.push_back(result.outcomes[i].latency_ns);
    }
  }
  return out;
}

}  // namespace enw::serve
