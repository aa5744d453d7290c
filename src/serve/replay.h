// Deterministic load replay (enw::serve) — the determinism seam.
//
// Live batch boundaries depend on thread scheduling, so they cannot anchor a
// bitwise test. replay_trace() removes the scheduler from the picture: it is
// a single-threaded discrete-event driver of the same ServeCore
// (serve_core.h) the live Server runs — admission, tenant quotas, the parked
// FIFO, flushing, shedding and swap activation all come from the core — fed
// by a scripted arrival trace in VIRTUAL time. So the same seeded trace
// always produces the same batch boundaries, the same typed outcome per
// request, and (because the batched GEMM paths compute each output row as
// an independent k-order dot product) outputs that are bitwise-identical to
// running the offline predict_batch reference over the whole trace at once.
// tests/test_serve.cpp pins all three with testkit differential checks
// across ENW_THREADS {1, 8}; tests/test_serve_sharded.cpp runs one scripted
// trace through the live MultiShardServer and through replay_trace and
// requires identical outcomes and boundaries.
//
// Virtual-time semantics (all deterministic, documented here because tests
// diff the boundary log byte-for-byte):
//  * Requests are processed in trace order; arrivals must be non-decreasing.
//  * One executor: a flush occupies it for cfg.service_ns of virtual time;
//    triggers that fire while it is busy flush when it frees.
//  * An arrival stamped at or before a pending flush instant is admitted
//    before the flush decision is evaluated.
//  * A blocked arrival (kBlock policy, full queue) is admitted FIFO the
//    moment a flush frees queue space; its batching window starts then.
//  * Replay never drains by default: after the last arrival the remaining
//    queue still flushes by its size/window triggers, so end-of-trace does
//    not distort window or deadline behaviour. Shutdown/drain semantics
//    belong to the live Server and are tested there. The one scripted
//    exception is ReplayConfig::drain_at_ns: from that virtual instant the
//    replay runs in drain mode (flushes stop waiting for triggers), which
//    is how replay_sharded models a removed shard draining mid-trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "serve/serve.h"
#include "serve/shard.h"

namespace enw::serve {

/// One scripted request arrival. Timestamps are virtual nanoseconds. The
/// tenant and routing-key fields are appended so single-tenant traces keep
/// their two-field aggregate initializers: a default event belongs to
/// tenant 0 and routes by key 0.
struct TraceEvent {
  std::uint64_t arrival_ns = 0;
  std::uint64_t deadline_ns = 0;  // absolute virtual deadline; 0 = none
  std::uint64_t key = 0;          // routing key (replay_sharded)
  std::uint32_t tenant = 0;       // index into ReplayConfig::tenants
};

/// One scripted backend swap at a virtual instant (the replay twin of
/// Server::swap_backend). A swap takes effect at the first flush whose
/// instant is >= at_ns: every batch flushed strictly before runs on the
/// prior version, every batch at/after runs on `version` — a batch executes
/// entirely on one version by construction, which is exactly the atomicity
/// the live server promises and what the boundary log lets tests pin
/// byte-for-byte.
struct SwapEvent {
  std::uint64_t at_ns = 0;
  std::uint64_t version = 0;
};

/// One scripted shard-set change at a virtual instant (the replay twin of
/// MultiShardServer::add_shard / remove_shard). A sharded-only event:
/// replay_trace rejects configs carrying resizes; replay_sharded applies
/// each event to the routing ring when the first arrival at or after at_ns
/// is routed — every arrival stamped >= at_ns sees the post-resize ring,
/// everything earlier the pre-resize one. On a kRemove the victim shard's
/// sub-replay switches to drain mode at at_ns (ReplayConfig::drain_at_ns),
/// so its already-queued requests flush to typed outcomes instead of
/// lingering — the replay abstraction of the live drain/reroute. A resize
/// scripted after the last arrival never activates and is not recorded
/// (the swap pattern).
struct ResizeEvent {
  enum class Kind { kAdd, kRemove };
  std::uint64_t at_ns = 0;
  Kind kind = Kind::kAdd;
  /// kAdd: the id the router must assign when the event activates (ids are
  /// sequential and never reused — checked at activation). kRemove: the id
  /// retired.
  std::size_t shard = 0;
};

struct ReplayConfig {
  ServeConfig serve;
  /// Virtual executor occupancy per flushed batch. Models the serving-side
  /// head-of-line blocking that lets queues build while a batch runs.
  std::uint64_t service_ns = 0;
  /// Tenant SLO table, indexed by TraceEvent::tenant. Empty means one
  /// default tenant (full queue share, no deadline) whose admission mode is
  /// serve.admission — which makes the single-tenant simulation identical,
  /// boundary for boundary, to the pre-tenancy harness. A non-empty table
  /// applies each tenant's admission mode, queue-share quota and, for
  /// events with deadline_ns == 0, its relative deadline (ServeCore rules).
  std::vector<TenantPolicy> tenants;
  /// When true, an exception thrown by the exec callback is absorbed the way
  /// the live Server absorbs a BatchFn throw: every request of that batch
  /// gets Status::kError and the simulation keeps going (the shard-death
  /// campaign in test_serve_fault.cpp runs this mode). When false (default)
  /// exceptions propagate, as before.
  bool mask_exec_faults = false;
  /// Scripted hot-swaps, non-decreasing in at_ns. Version 0 is the initial
  /// backend. Swaps activate lazily at flush instants (see SwapEvent); a
  /// swap scripted after the last flush never activates and is not recorded.
  /// Empty (default) reproduces pre-swap replays byte-for-byte.
  std::vector<SwapEvent> swaps;
  /// Scripted shard-set changes, non-decreasing in at_ns — a sharded-replay
  /// feature (see ResizeEvent and replay_sharded). replay_trace rejects a
  /// non-empty list: a single-server replay has no shard set to change.
  std::vector<ResizeEvent> resizes;
  /// Virtual instant from which this replay runs in drain mode: flushes
  /// stop waiting for size/window triggers and push whatever is queued
  /// (executor occupancy still respected; blocked arrivals still admit FIFO
  /// as space frees and drain too). 0 (default) = never, which reproduces
  /// pre-drain replays byte-for-byte. replay_sharded sets this on a removed
  /// shard's sub-replay.
  std::uint64_t drain_at_ns = 0;
};

/// One simulated flush, in flush order.
struct BatchRecord {
  std::uint64_t flush_ns = 0;
  FlushReason reason = FlushReason::kWindow;
  std::vector<std::size_t> executed;  // request ids, collation order
  std::vector<std::size_t> shed;      // request ids shed at this flush
  std::uint64_t version = 0;          // backend version this batch ran on
};

/// Terminal outcome of one replayed request (indexed by trace position).
struct RequestOutcome {
  Status status = Status::kError;
  std::uint64_t done_ns = 0;     // virtual completion / rejection / shed time
  std::uint64_t latency_ns = 0;  // done_ns - arrival_ns (0 for rejects)
};

/// A swap that actually activated during the replay: the boundary between
/// the last batch on the prior version and the first batch on `version`.
struct SwapBoundary {
  std::uint64_t at_ns = 0;       // scripted instant (SwapEvent::at_ns)
  std::uint64_t version = 0;     // version installed
  std::size_t first_batch = 0;   // index of the first batch on `version`
};

struct ReplayResult {
  std::vector<RequestOutcome> outcomes;  // one per trace event
  std::vector<BatchRecord> batches;
  ServerStats stats;
  /// Per-tenant slice of stats (submitted/completed/rejected/shed/errors;
  /// batch fields stay zero — batches are shared). One entry per resolved
  /// tenant, so a single default entry when ReplayConfig::tenants is empty.
  std::vector<ServerStats> tenant_stats;
  /// Activated swaps in activation order (scripted swaps past the last
  /// flush never activate and do not appear).
  std::vector<SwapBoundary> swaps;

  /// Canonical one-line-per-batch rendering ("batch 0: t=...ns reason=size
  /// n=3 ids=[0,1,2] shed=[]"). Tests diff this string to pin boundaries.
  /// When swaps activated, a "swap ..." line is interleaved before the first
  /// batch of each new version and every batch line gains a " v=<version>"
  /// suffix; with no swaps the rendering is byte-identical to pre-swap
  /// builds, so existing pinned logs stay valid.
  std::string boundary_log() const;
};

/// The canonical boundary-log renderer behind ReplayResult::boundary_log and
/// the sharded log (which feeds it batch records remapped to global request
/// ids): swap lines and " v=" suffixes as boundary_log documents, plus `tag`
/// appended to every batch line.
std::string render_boundaries(std::span<const BatchRecord> batches,
                              std::span<const SwapBoundary> swaps,
                              const std::string& tag);

/// Executes the surviving requests of one batch; ids index into the trace.
/// The caller owns request payloads and output storage — replay only decides
/// WHICH requests run together and WHEN. Exceptions propagate (the harness
/// makes no fault-masking promises; that is the live server's job).
using ReplayExec = std::function<void(std::span<const std::size_t> ids)>;

/// Version-aware exec: also receives the backend version the batch runs on,
/// so a swap test can dispatch each batch to the model build it is scripted
/// to land on and byte-diff the outputs per version.
using ReplayExecV =
    std::function<void(std::span<const std::size_t> ids, std::uint64_t version)>;

/// Run the full simulation. Requires trace arrivals to be non-decreasing
/// (and cfg.swaps non-decreasing in at_ns).
ReplayResult replay_trace(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExec& exec);
ReplayResult replay_trace(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExecV& exec);

/// Exponential inter-arrival gap from one uniform draw u in [0, 1):
/// -mean_gap_ns * ln(1 - u), guarded at both tails. u == 1.0 (which some
/// uniform_real_distribution implementations CAN return despite the
/// half-open contract) would give ln(0) = -inf, and casting the resulting
/// +inf gap to uint64_t is undefined behaviour — so 1 - u is clamped to
/// DBL_MIN (normal draws are unchanged: existing seeded traces stay
/// bitwise-identical) and the gap is capped below 2^63 before the cast.
std::uint64_t poisson_gap_ns(double mean_gap_ns, double u);

/// Seeded open-loop arrival trace: exponential (Poisson-process) gaps with
/// the given mean, each request carrying an absolute deadline of
/// arrival + relative_deadline_ns (0 = no deadline). Deterministic in rng.
std::vector<TraceEvent> poisson_trace(std::size_t n, double mean_gap_ns,
                                      std::uint64_t relative_deadline_ns,
                                      Rng& rng);

/// Completed-request latencies of one tenant, in trace order — the sample
/// the per-tenant p50/p99 rows are computed from (percentile_ns).
std::vector<std::uint64_t> tenant_latencies(const ReplayResult& result,
                                            std::span<const TraceEvent> trace,
                                            std::uint32_t tenant);

}  // namespace enw::serve
