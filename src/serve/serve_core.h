// Sans-IO serving policy (enw::serve::ServeCore) — the one place the
// admission and batching rules are written.
//
// The live Server (server.h) and the virtual-time replay (replay.h) both
// drive this class and carry no policy of their own. ServeCore holds state
// only: the bounded admission queue, per-tenant queue quotas, the FIFO of
// parked kBlock submitters, the active backend version and the serving
// counters. It performs no I/O — it never reads a clock, takes a lock or runs
// a batch. Each event takes the driver's "now" and says what to do next:
//
//   arrive(h, tenant, deadline, now) -> kAdmitted | kParked | kRejected | kClosed
//   poll(now)            -> flush due now, or the instant the window fires
//   collate(now, batch)  -> the requests to execute (on batch.version) and the
//                           expired ones to shed; parked requests are admitted
//                           FIFO into the freed slots
//   batch_done(batch, failed) -> counters for the executed batch
//   swap(version)        -> the next collated batch runs on `version`
//   drain()              -> flush without waiting for size/window triggers
//   close(on_parked)     -> stop admitting, hand back every parked request
//                           (never admitted), drain what is queued
//
// Quota rule: a tenant may hold at most tenant_quota(policy, queue_capacity)
// slots of the queue. Only queued requests count — a request frees its slot
// when it is collated, whether it then executes or is shed — which is what
// TenantPolicy::queue_share promises ("fraction of each shard's admission
// queue"). The default tenant (share 1.0) therefore adds no limit beyond the
// queue bound itself.
//
// Templated on the request handle H: the live server passes a pointer to the
// submitter's stack node, the replay a trace index. The queue is a ring that
// doubles when full and never shrinks, so a warm server admits and collates
// without allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/check.h"
#include "serve/serve.h"
#include "serve/shard.h"

namespace enw::serve {

/// The tenant table a config resolves to: an empty table means one default
/// tenant (full queue share, no deadline) with the serve config's admission
/// mode, which reduces every per-tenant rule to the single-tenant one.
inline std::vector<TenantPolicy> resolve_tenants(std::vector<TenantPolicy> tenants,
                                                 const ServeConfig& cfg) {
  if (tenants.empty()) {
    TenantPolicy def;
    def.admission = cfg.admission;
    tenants.push_back(def);
  }
  return tenants;
}

/// A request's absolute shed deadline: its own stamp wins; otherwise the
/// tenant's relative deadline counted from arrival (0 = none).
inline std::uint64_t resolve_deadline(const TenantPolicy& t, std::uint64_t deadline_ns,
                                      std::uint64_t arrival_ns) {
  if (deadline_ns != 0 || t.deadline_ns == 0) return deadline_ns;
  return arrival_ns + t.deadline_ns;
}

template <typename H>
class ServeCore {
 public:
  struct Entry {
    H handle{};
    std::uint64_t enqueue_ns = 0;   // admission instant: starts the window
    std::uint64_t deadline_ns = 0;  // absolute; 0 = none
    std::size_t tenant = 0;
  };

  enum class Admission { kAdmitted, kParked, kRejected, kClosed };

  /// One collated batch. The driver keeps one and passes it to every
  /// collate(), which reuses its storage.
  struct Batch {
    FlushReason reason = FlushReason::kWindow;
    std::uint64_t version = 0;
    std::vector<Entry> run;   // execute, in collation order
    std::vector<Entry> shed;  // deadline passed: Status::kTimedOut
  };

  ServeCore(const ServeConfig& cfg, std::vector<TenantPolicy> tenants)
      : cfg_(cfg),
        tenants_(resolve_tenants(std::move(tenants), cfg)),
        queued_of_(tenants_.size(), 0),
        tenant_stats_(tenants_.size()) {
    ENW_CHECK_MSG(cfg_.max_batch > 0, "max_batch must be positive");
    ENW_CHECK_MSG(cfg_.queue_capacity > 0, "queue_capacity must be positive");
    for (const TenantPolicy& t : tenants_) {
      quota_.push_back(tenant_quota(t, cfg_.queue_capacity));
    }
  }

  /// A request arrives. Admitted while the queue has space and the tenant
  /// holds fewer slots than its quota; otherwise the TENANT's admission mode
  /// decides, so one tenant's saturation never becomes another's reject.
  Admission arrive(H h, std::size_t tenant, std::uint64_t deadline_ns,
                   std::uint64_t now) {
    ENW_CHECK_MSG(tenant < tenants_.size(), "unknown tenant id");
    if (closed_) return Admission::kClosed;
    ++stats_.submitted;
    ++tenant_stats_[tenant].submitted;
    const Entry e{h, now, resolve_deadline(tenants_[tenant], deadline_ns, now), tenant};
    if (size_ < cfg_.queue_capacity && queued_of_[tenant] < quota_[tenant]) {
      push(e);
      return Admission::kAdmitted;
    }
    if (tenants_[tenant].admission == AdmissionPolicy::kReject) {
      ++stats_.rejected;
      ++tenant_stats_[tenant].rejected;
      return Admission::kRejected;
    }
    parked_.push_back(e);
    return Admission::kParked;
  }

  /// The flush policy (flush_due) over the current queue.
  FlushDecision poll(std::uint64_t now) const {
    if (size_ == 0) return {};
    return flush_due(now, ring_[head_].enqueue_ns, size_, draining_, cfg_);
  }

  /// Flush: pop up to max_batch requests into `out`, split into run and
  /// shed, then admit parked requests into the freed slots. Requires
  /// poll(now).due.
  void collate(std::uint64_t now, Batch& out) {
    const FlushDecision d = poll(now);
    ENW_CHECK_MSG(d.due, "flush scheduled but policy not due");
    out.reason = d.reason;
    out.version = version_;
    out.run.clear();
    out.shed.clear();
    for (std::size_t take = std::min(size_, cfg_.max_batch); take > 0; --take) {
      const Entry e = ring_[head_];
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      --queued_of_[e.tenant];
      if (deadline_expired(e.deadline_ns, now)) {
        ++stats_.shed;
        ++tenant_stats_[e.tenant].shed;
        out.shed.push_back(e);
      } else {
        out.run.push_back(e);
      }
    }
    // Parked requests enter FIFO; their window starts now. One whose tenant
    // is still at quota keeps its place, so an over-budget tenant cannot take
    // the slots the pops just returned to another tenant.
    for (auto it = parked_.begin();
         it != parked_.end() && size_ < cfg_.queue_capacity;) {
      if (queued_of_[it->tenant] < quota_[it->tenant]) {
        it->enqueue_ns = now;
        push(*it);
        it = parked_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// The batch collate() handed out has finished executing.
  void batch_done(const Batch& b, bool failed) {
    for (const Entry& e : b.run) {
      ServerStats& t = tenant_stats_[e.tenant];
      ++(failed ? t.errors : t.completed);
    }
    if (failed) {
      stats_.errors += b.run.size();
      return;
    }
    stats_.completed += b.run.size();
    stats_.record_batch(b.run.size());
  }

  void swap(std::uint64_t version) { version_ = version; }
  void drain() { draining_ = true; }

  /// Stop admitting and drain. Every parked request goes to on_parked(h):
  /// it was never admitted, so the driver owes it its own terminal status.
  template <typename F>
  void close(F&& on_parked) {
    closed_ = draining_ = true;
    for (const Entry& e : parked_) on_parked(e.handle);
    parked_.clear();
  }

  bool closed() const { return closed_; }
  std::size_t queued() const { return size_; }
  std::size_t parked() const { return parked_.size(); }
  std::uint64_t version() const { return version_; }
  const ServerStats& stats() const { return stats_; }
  /// Per-tenant submitted/completed/rejected/shed/errors (batch fields 0).
  const std::vector<ServerStats>& tenant_stats() const { return tenant_stats_; }

 private:
  void push(const Entry& e) {
    if (size_ == ring_.size()) {
      std::vector<Entry> grown(std::max<std::size_t>(16, 2 * ring_.size()));
      for (std::size_t i = 0; i < size_; ++i) {
        grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
      }
      ring_ = std::move(grown);
      head_ = 0;
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = e;
    ++size_;
    ++queued_of_[e.tenant];
    stats_.queue_peak = std::max(stats_.queue_peak, size_);
  }

  const ServeConfig cfg_;
  const std::vector<TenantPolicy> tenants_;
  std::vector<std::size_t> quota_;      // per tenant
  std::vector<std::size_t> queued_of_;  // queue slots each tenant holds
  std::vector<Entry> ring_;             // power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::deque<Entry> parked_;  // kBlock arrivals waiting for a slot, FIFO
  std::uint64_t version_ = 0;
  bool draining_ = false;
  bool closed_ = false;
  ServerStats stats_;
  std::vector<ServerStats> tenant_stats_;
};

}  // namespace enw::serve
