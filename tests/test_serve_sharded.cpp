// Sharded multi-tenant serving (serve/multi_shard.h, serve/shard_replay.h).
//
// Live tests pin the value contract — requests served through N shard
// replicas built from one seed diff bitwise against the offline
// predict_batch reference, whatever the routing or tenant mix — and the
// tenant quota's typed semantics (over-budget kReject fails fast without
// touching neighbours; parked kBlock submitters are admitted FIFO and wake on
// shutdown with the typed status; a tenant deadline counts from entry).
// These run under the TSan CI job with an 8-thread pool.
//
// The live-vs-replay differential drives one scripted two-tenant trace
// through MultiShardServer and replay_trace and requires identical typed
// outcomes, batch boundaries, versions and counters: both run the one
// ServeCore policy, and this test is what holds them to it.
//
// Replay tests pin the SLO isolation properties in virtual time, where they
// are exact: a saturating tenant collects every reject itself, a deadline
// shed lands on the tenant that owns the deadline, and the sharded replay
// with one shard reduces byte-for-byte to the plain replay harness.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/click_log.h"
#include "recsys/dlrm.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/replay.h"
#include "serve/serve.h"
#include "serve/shard.h"
#include "serve/shard_replay.h"

namespace enw::serve {
namespace {

// --- live sharded serving ---------------------------------------------------

recsys::DlrmConfig small_dlrm_config() {
  recsys::DlrmConfig cfg;
  cfg.num_tables = 4;
  cfg.rows_per_table = 300;
  cfg.embed_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  return cfg;
}

TEST(MultiShardServer, ConcurrentTenantsGetBitwiseOfflineResultsAcrossShards) {
  const std::size_t kShards = 4;
  const std::size_t kClients = 8;
  const std::size_t kPerClient = 8;
  const std::size_t n = kClients * kPerClient;

  // Model replicas: one per shard, all built from the same seed, so every
  // shard computes the identical function (the deployment invariant the
  // value contract rides on).
  const recsys::DlrmConfig mcfg = small_dlrm_config();
  std::vector<std::unique_ptr<recsys::Dlrm>> replicas;
  for (std::size_t s = 0; s < kShards; ++s) {
    Rng rng(5);
    replicas.push_back(std::make_unique<recsys::Dlrm>(mcfg, rng));
  }

  data::ClickLogConfig lcfg;
  lcfg.num_dense = mcfg.num_dense;
  lcfg.num_tables = mcfg.num_tables;
  lcfg.rows_per_table = mcfg.rows_per_table;
  const data::ClickLogGenerator gen(lcfg);
  Rng drng(6);
  const std::vector<data::ClickSample> samples = gen.batch(n, drng);
  const std::vector<float> offline = replicas[0]->predict_batch(samples);

  MultiShardConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.max_batch = 8;
  cfg.shard.max_wait_ns = 200000;  // 200us window
  cfg.shard.queue_capacity = n;
  TenantPolicy batch_tenant;
  batch_tenant.name = "batch";
  batch_tenant.queue_share = 0.5;
  batch_tenant.admission = AdmissionPolicy::kBlock;
  TenantPolicy online_tenant;
  online_tenant.name = "online";
  online_tenant.queue_share = 0.5;
  online_tenant.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {batch_tenant, online_tenant};

  MultiShardServer<data::ClickSample, float> ms(
      cfg, [&](std::size_t s) { return dlrm_backend(*replicas[s]); });

  using Reply = MultiShardServer<data::ClickSample, float>::Reply;
  std::vector<Reply> replies(n);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t id = c * kPerClient + i;
        replies[id] = ms.submit(samples[id], click_routing_key(samples[id]),
                                /*tenant=*/id % 2);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ms.shutdown();

  for (std::size_t id = 0; id < n; ++id) {
    ASSERT_EQ(replies[id].status, Status::kOk) << "id " << id;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(replies[id].value),
              std::bit_cast<std::uint32_t>(offline[id]))
        << "served result differs from offline reference for id " << id;
  }

  const ServerStats total = ms.stats();
  EXPECT_EQ(total.completed, n);
  EXPECT_EQ(total.errors, 0u);
  std::uint64_t routed = 0;
  for (const std::uint64_t c : ms.routed_per_shard()) routed += c;
  EXPECT_EQ(routed, n);
  EXPECT_GE(ms.imbalance(), 1.0);

  const auto rep0 = ms.tenant_report(0);
  const auto rep1 = ms.tenant_report(1);
  EXPECT_EQ(rep0.submitted, n / 2);
  EXPECT_EQ(rep1.submitted, n / 2);
  EXPECT_EQ(rep0.completed + rep1.completed, n);
  EXPECT_LE(rep0.p50_ns, rep0.p99_ns);
  EXPECT_LE(rep1.p50_ns, rep1.p99_ns);
}

/// Backend whose first invocation blocks until released (local copy of the
/// test_serve idiom) — parks a shard's collator mid-execute so the tests can
/// sequence tenant admissions exactly. Records every served value in
/// execution order.
struct GatedEcho {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  std::vector<int> served;

  Server<int, int>::BatchFn fn() {
    return [this](std::span<const int> batch) {
      std::unique_lock<std::mutex> lk(mu);
      if (!entered) {
        entered = true;
        cv.notify_all();
        cv.wait(lk, [this] { return released; });
      }
      served.insert(served.end(), batch.begin(), batch.end());
      return std::vector<int>(batch.begin(), batch.end());
    };
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  }
};

/// Polls `pred` until it holds; gives up after 10 s and returns false, so a
/// server that never reaches the expected state fails the test instead of
/// hanging it.
bool eventually(const std::function<bool()>& pred) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

template <typename Ms>
std::uint64_t submitted(const Ms& ms) {
  return ms.shard_stats(0).submitted;
}

TEST(MultiShardServer, OverBudgetTenantRejectsWithoutTouchingNeighbor) {
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 8;
  TenantPolicy greedy;  // quota floor(0.125 * 8) = 1 queue slot
  greedy.name = "greedy";
  greedy.queue_share = 0.125;
  greedy.admission = AdmissionPolicy::kReject;
  TenantPolicy neighbor;
  neighbor.name = "neighbor";
  neighbor.queue_share = 0.5;
  neighbor.admission = AdmissionPolicy::kReject;
  cfg.tenants = {greedy, neighbor};

  GatedEcho gate;
  MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });

  std::thread first([&] { EXPECT_EQ(ms.submit(1, 0, 0).status, Status::kOk); });
  gate.wait_entered();  // greedy's first request is mid-execute
  std::thread second([&] { EXPECT_EQ(ms.submit(2, 0, 0).status, Status::kOk); });
  EXPECT_TRUE(eventually([&] { return submitted(ms) == 2; }));
  // ... and its second holds its one queue slot.

  // Greedy is at quota: its next submission fails fast with the typed
  // status, without taking a shard queue slot.
  EXPECT_EQ(ms.submit(3, 0, 0).status, Status::kRejected);

  // The neighbour's budget is untouched: its request admits and completes.
  std::thread third([&] { EXPECT_EQ(ms.submit(4, 0, 1).status, Status::kOk); });
  EXPECT_TRUE(eventually([&] { return submitted(ms) == 4; }));

  gate.release();
  first.join();
  second.join();
  third.join();
  ms.shutdown();

  const auto greedy_rep = ms.tenant_report(0);
  EXPECT_EQ(greedy_rep.submitted, 3u);
  EXPECT_EQ(greedy_rep.completed, 2u);
  EXPECT_EQ(greedy_rep.rejected, 1u);
  const auto neighbor_rep = ms.tenant_report(1);
  EXPECT_EQ(neighbor_rep.completed, 1u);
  EXPECT_EQ(neighbor_rep.rejected, 0u);
}

TEST(MultiShardServer, BlockedTenantGateWakesOnShutdownWithTypedStatus) {
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 8;
  TenantPolicy patient;  // quota 1, waits when over budget
  patient.queue_share = 0.125;
  patient.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {patient};

  GatedEcho gate;
  MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });

  std::thread first([&] { EXPECT_EQ(ms.submit(1, 0, 0).status, Status::kOk); });
  gate.wait_entered();
  std::thread second([&] { EXPECT_EQ(ms.submit(2, 0, 0).status, Status::kOk); });
  EXPECT_TRUE(eventually([&] { return submitted(ms) == 2; }));
  // One request executing, one holding the tenant's only queue slot.

  // shutdown() blocks in the down thread (the gated batch is still
  // executing) but closes admission first, so the main thread's submission
  // — parked in the shard's FIFO or arriving after the close — resolves to
  // the typed status. The slot CANNOT free any other way: the queued
  // request stays queued until release() below.
  std::thread down([&] { ms.shutdown(); });
  const auto blocked = ms.submit(3, 0, 0);
  EXPECT_EQ(blocked.status, Status::kShutdown);

  gate.release();  // let the in-flight batch finish so shutdown can drain
  down.join();
  first.join();
  second.join();
  EXPECT_EQ(ms.tenant_report(0).completed, 2u);
  EXPECT_EQ(ms.tenant_report(0).shutdown, 1u);
}

TEST(MultiShardServer, ParkedSubmittersAreAdmittedInFifoOrder) {
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 8;
  TenantPolicy patient;  // quota 1, waits when over budget
  patient.queue_share = 0.125;
  patient.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {patient};

  GatedEcho gate;
  MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });

  std::vector<std::thread> clients;
  clients.emplace_back([&] { EXPECT_EQ(ms.submit(1, 0).status, Status::kOk); });
  gate.wait_entered();
  // 2 takes the tenant's queue slot; 3, 4, 5 park, in that order.
  for (int v = 2; v <= 5; ++v) {
    clients.emplace_back([&, v] { EXPECT_EQ(ms.submit(v, 0).status, Status::kOk); });
    EXPECT_TRUE(eventually([&] { return submitted(ms) == static_cast<std::uint64_t>(v); }));
  }
  gate.release();
  for (std::thread& t : clients) t.join();
  ms.shutdown();
  EXPECT_EQ(gate.served, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(MultiShardServer, TenantDeadlineCountsFromEntryNotFromAdmission) {
  // A parked request must not get a fresh deadline when it is finally
  // admitted: the tenant's relative deadline counts from submit() entry.
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 8;
  TenantPolicy patient;  // quota 1, waits when over budget, 50 ms SLO
  patient.queue_share = 0.125;
  patient.admission = AdmissionPolicy::kBlock;
  patient.deadline_ns = 50ull * 1000 * 1000;
  cfg.tenants = {patient};

  GatedEcho gate;
  MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });

  Status queued = Status::kError;
  Status parked = Status::kError;
  std::thread first([&] { EXPECT_EQ(ms.submit(1, 0).status, Status::kOk); });
  gate.wait_entered();
  std::thread second([&] { queued = ms.submit(2, 0).status; });
  EXPECT_TRUE(eventually([&] { return submitted(ms) == 2; }));
  std::thread third([&] { parked = ms.submit(3, 0).status; });
  EXPECT_TRUE(eventually([&] { return submitted(ms) == 3; }));

  // Both requests entered before `entered_by`; once their deadline has
  // passed, no admission may revive them.
  const std::uint64_t entered_by = monotonic_now_ns();
  while (monotonic_now_ns() <= entered_by + patient.deadline_ns) {
    std::this_thread::yield();
  }
  gate.release();
  first.join();
  second.join();
  third.join();
  ms.shutdown();

  EXPECT_EQ(queued, Status::kTimedOut);
  EXPECT_EQ(parked, Status::kTimedOut);
  EXPECT_EQ(ms.tenant_report(0).shed, 2u);
  EXPECT_EQ(gate.served, (std::vector<int>{1}));
}

TEST(MultiShardServer, UnknownTenantThrowsAndLateSubmitGetsShutdownStatus) {
  MultiShardConfig cfg;  // empty tenant table -> one default tenant
  cfg.num_shards = 2;
  MultiShardServer<int, int> ms(cfg, [](std::size_t) {
    return [](std::span<const int> batch) {
      return std::vector<int>(batch.begin(), batch.end());
    };
  });
  EXPECT_EQ(ms.config().tenants.size(), 1u);
  EXPECT_THROW(ms.submit(1, 0, /*tenant=*/3), std::invalid_argument);
  EXPECT_EQ(ms.submit(1, 0).status, Status::kOk);
  ms.shutdown();
  EXPECT_EQ(ms.submit(2, 0).status, Status::kShutdown);
}

// --- live vs replay: one policy ---------------------------------------------

/// Backend for the differential test: every batch records (version, ids),
/// then waits for a permit, so the test decides when each batch finishes —
/// the live twin of the replay's virtual service time.
struct StepGate {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::uint64_t, std::vector<int>>> batches;
  std::size_t permits = 0;

  Server<int, int>::BatchFn fn(std::uint64_t version) {
    return [this, version](std::span<const int> batch) {
      std::unique_lock<std::mutex> lk(mu);
      batches.emplace_back(version, std::vector<int>(batch.begin(), batch.end()));
      cv.wait(lk, [this] { return permits > 0; });
      --permits;
      return std::vector<int>(batch.begin(), batch.end());
    };
  }
  std::size_t entered() {
    std::lock_guard<std::mutex> lk(mu);
    return batches.size();
  }
  void release_one() {
    std::lock_guard<std::mutex> lk(mu);
    ++permits;
    cv.notify_all();
  }
};

TEST(LiveVsReplay, ScriptedTwoTenantTraceGivesIdenticalOutcomesAndBoundaries) {
  // Tenant 0: kReject, quota 1 of a 4-slot queue, 1 ns deadline — every
  // request it gets admitted has expired by its flush. Tenant 1: kBlock,
  // quota 2. max_batch 2 and an hour-long window: only the size trigger and
  // the final drain flush. Each live batch is held in the backend until the
  // script releases it, which is when the replay's 1000 ns of service time
  // ends; arrivals stamped inside a service interval are submitted while
  // the live batch is held.
  constexpr std::uint64_t kService = 1000;
  const std::vector<TraceEvent> trace = {
      // idle executor: 0 and 1 fill batch 0 (v0), flushed at t=10
      {0, 0, 0, 1}, {10, 0, 0, 1},
      // batch 0 running: 2, 3 queue (tenant 1 at quota), 4 parks, 5 queues,
      // 6 is rejected (tenant 0 at quota), 7 parks; a swap to v1 lands here
      {100, 0, 0, 1}, {110, 0, 0, 1}, {120, 0, 0, 1}, {130, 0, 0, 0},
      {140, 0, 0, 0}, {150, 0, 0, 1},
      // batch 1 = [2, 3] on v1, admitting 4 then 7 FIFO; 8 parks, 9 rejected
      {1100, 0, 0, 1}, {1110, 0, 0, 0},
      // batch 2 = [4], shedding 5, admitting 8; 10 queues
      {2100, 0, 0, 0},
      // batch 3 = [7, 8]; 11 and 12 queue
      {3100, 0, 0, 1}, {3110, 0, 0, 1},
      // batch 4 = [11], shedding 10; the drain flushes [12]
  };
  // Live script: (first request, one past last) submitted while batch
  // `phase - 1` is held; phase 0 runs on the idle server.
  const std::vector<std::pair<int, int>> phases = {
      {0, 2}, {2, 8}, {8, 10}, {10, 11}, {11, 13}};
  const std::size_t kSwapPhase = 1;

  TenantPolicy reject;
  reject.admission = AdmissionPolicy::kReject;
  reject.queue_share = 0.25;
  reject.deadline_ns = 1;
  TenantPolicy block;
  block.admission = AdmissionPolicy::kBlock;
  block.queue_share = 0.5;
  ServeConfig serve;
  serve.max_batch = 2;
  serve.max_wait_ns = 3600ull * 1000 * 1000 * 1000;
  serve.queue_capacity = 4;

  ReplayConfig rcfg;
  rcfg.serve = serve;
  rcfg.service_ns = kService;
  rcfg.tenants = {reject, block};
  rcfg.swaps = {{200, 1}};
  rcfg.drain_at_ns = 4500;
  const ReplayResult replay =
      replay_trace(trace, rcfg, [](std::span<const std::size_t>) {});

  MultiShardConfig mcfg;
  mcfg.shard = serve;
  mcfg.tenants = rcfg.tenants;
  StepGate gate;
  MultiShardServer<int, int> ms(mcfg, [&](std::size_t) { return gate.fn(0); });
  std::vector<Status> live(trace.size(), Status::kError);
  std::vector<std::thread> clients;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (p > 0) {
      EXPECT_TRUE(eventually([&] { return gate.entered() == p; }))
          << "batch " << p - 1 << " never started";
    }
    for (int id = phases[p].first; id < phases[p].second; ++id) {
      clients.emplace_back([&, id] {
        live[id] = ms.submit(id, 0, trace[id].tenant).status;
      });
      EXPECT_TRUE(eventually([&] {
        return submitted(ms) == static_cast<std::uint64_t>(id + 1);
      })) << "request " << id << " never reached admission";
    }
    if (p == kSwapPhase) {
      ms.swap_backend([&](std::size_t) { return gate.fn(1); }, 1);
    }
    if (p > 0) gate.release_one();
  }
  const std::size_t drain_from = phases.size();
  EXPECT_TRUE(eventually([&] { return gate.entered() == drain_from; }));
  for (std::size_t i = 0; i < trace.size(); ++i) gate.release_one();
  ms.shutdown();
  for (std::thread& t : clients) t.join();

  for (std::size_t id = 0; id < trace.size(); ++id) {
    EXPECT_EQ(live[id], replay.outcomes[id].status)
        << "request " << id << ": live " << status_name(live[id]) << ", replay "
        << status_name(replay.outcomes[id].status);
  }
  // Before shutdown only the size trigger can fire (the window is an hour);
  // batches collated after it are the drain's.
  ASSERT_EQ(gate.batches.size(), replay.batches.size()) << replay.boundary_log();
  for (std::size_t b = 0; b < replay.batches.size(); ++b) {
    const BatchRecord& rec = replay.batches[b];
    const std::vector<int> ids(rec.executed.begin(), rec.executed.end());
    EXPECT_EQ(gate.batches[b].second, ids) << "batch " << b;
    EXPECT_EQ(gate.batches[b].first, rec.version) << "batch " << b;
    EXPECT_EQ(b < drain_from ? FlushReason::kSize : FlushReason::kDrain, rec.reason)
        << "batch " << b;
  }

  const ServerStats ls = ms.stats();
  const ServerStats& rs = replay.stats;
  EXPECT_EQ(ls.submitted, rs.submitted);
  EXPECT_EQ(ls.completed, rs.completed);
  EXPECT_EQ(ls.rejected, rs.rejected);
  EXPECT_EQ(ls.shed, rs.shed);
  EXPECT_EQ(ls.errors, rs.errors);
  EXPECT_EQ(ls.batches, rs.batches);
  EXPECT_EQ(ls.executed_requests, rs.executed_requests);
  EXPECT_EQ(ls.queue_peak, rs.queue_peak);
  EXPECT_EQ(ls.batch_size_hist, rs.batch_size_hist);
  for (std::size_t t = 0; t < rcfg.tenants.size(); ++t) {
    const auto rep = ms.tenant_report(t);
    const ServerStats& rt = replay.tenant_stats[t];
    EXPECT_EQ(rep.submitted, rt.submitted) << "tenant " << t;
    EXPECT_EQ(rep.completed, rt.completed) << "tenant " << t;
    EXPECT_EQ(rep.rejected, rt.rejected) << "tenant " << t;
    EXPECT_EQ(rep.shed, rt.shed) << "tenant " << t;
    EXPECT_EQ(rep.errors, rt.errors) << "tenant " << t;
  }
  // The script exercised what it claims to.
  EXPECT_EQ(rs.rejected, 2u);
  EXPECT_EQ(rs.shed, 2u);
  ASSERT_EQ(replay.swaps.size(), 1u);
  EXPECT_EQ(replay.batches.back().reason, FlushReason::kDrain);
}

// --- replay: tenant SLO isolation in virtual time ---------------------------

TEST(ReplayTenants, SaturatingTenantCollectsEveryRejectItself) {
  // Tenant 0 bursts 64 requests at t=0 against a quota of 8; tenant 1 sends
  // a paced trickle. Isolation contract: every reject lands on tenant 0,
  // tenant 1 completes everything with bounded latency.
  std::vector<TraceEvent> trace;
  for (std::size_t i = 0; i < 64; ++i) trace.push_back({0, 0, 0, 0});
  for (std::size_t i = 0; i < 8; ++i) {
    trace.push_back({10000 * (i + 1), 0, 0, 1});
  }

  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 100000;
  cfg.serve.queue_capacity = 16;
  cfg.service_ns = 200000;
  TenantPolicy burst;
  burst.name = "burst";
  burst.queue_share = 0.5;  // quota 8 of 16
  burst.admission = AdmissionPolicy::kReject;
  TenantPolicy paced = burst;
  paced.name = "paced";
  cfg.tenants = {burst, paced};

  const ReplayResult r =
      replay_trace(trace, cfg, [](std::span<const std::size_t>) {});

  EXPECT_EQ(r.tenant_stats[0].submitted, 64u);
  EXPECT_EQ(r.tenant_stats[0].completed, 8u);
  EXPECT_EQ(r.tenant_stats[0].rejected, 56u);
  EXPECT_EQ(r.tenant_stats[1].submitted, 8u);
  EXPECT_EQ(r.tenant_stats[1].completed, 8u);
  EXPECT_EQ(r.tenant_stats[1].rejected, 0u) << "the neighbour's saturation "
                                               "leaked into tenant 1";
  EXPECT_EQ(r.tenant_stats[1].shed, 0u);
  for (std::size_t id = 64; id < trace.size(); ++id) {
    EXPECT_EQ(r.outcomes[id].status, Status::kOk) << "tenant-1 id " << id;
  }
  const std::uint64_t p99 =
      percentile_ns(tenant_latencies(r, trace, 1), 99.0);
  EXPECT_GT(p99, 0u);
  EXPECT_LE(p99, 500000u) << "tenant 1's tail latency inflated under the "
                             "neighbour's burst";
  // Cross-check the aggregate slice identity.
  EXPECT_EQ(r.stats.rejected,
            r.tenant_stats[0].rejected + r.tenant_stats[1].rejected);
  EXPECT_EQ(r.stats.completed,
            r.tenant_stats[0].completed + r.tenant_stats[1].completed);
}

TEST(ReplayTenants, BlockedSaturatingTenantDrainsWithoutStarvingNeighbor) {
  // Same burst under kBlock: tenant 0's overflow parks at the gate and
  // drains in quota-sized waves; tenant 1 still completes everything (the
  // freed-slot FIFO skips over-quota waiters instead of letting them absorb
  // the neighbour's slots).
  std::vector<TraceEvent> trace;
  for (std::size_t i = 0; i < 64; ++i) trace.push_back({0, 0, 0, 0});
  for (std::size_t i = 0; i < 8; ++i) {
    trace.push_back({10000 * (i + 1), 0, 0, 1});
  }

  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 100000;
  cfg.serve.queue_capacity = 16;
  cfg.service_ns = 200000;
  TenantPolicy burst;
  burst.queue_share = 0.5;
  burst.admission = AdmissionPolicy::kBlock;
  TenantPolicy paced;
  paced.queue_share = 0.5;
  paced.admission = AdmissionPolicy::kReject;
  cfg.tenants = {burst, paced};

  const ReplayResult r =
      replay_trace(trace, cfg, [](std::span<const std::size_t>) {});
  EXPECT_EQ(r.tenant_stats[0].completed, 64u);
  EXPECT_EQ(r.tenant_stats[0].rejected, 0u);
  EXPECT_EQ(r.tenant_stats[1].completed, 8u);
  EXPECT_EQ(r.tenant_stats[1].rejected, 0u);
  EXPECT_EQ(r.stats.completed, 72u);
}

TEST(ReplayTenants, DeadlineShedLandsOnTheTenantThatOwnsTheDeadline) {
  // Tenant 1 carries a 50us SLO deadline (policy-level, applied to events
  // without their own stamp); tenant 0 has none. The 100us window flush
  // sheds exactly tenant 1's un-stamped request; an event-level stamp
  // overrides the policy.
  std::vector<TraceEvent> trace = {
      {0, 0, 0, 0},       // tenant 0, no deadline -> executes
      {0, 0, 0, 1},       // tenant 1, policy deadline 50us -> shed at 100us
      {0, 200000, 0, 1},  // tenant 1, own stamp 200us overrides -> executes
  };
  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 100000;
  TenantPolicy relaxed;
  TenantPolicy strict;
  strict.deadline_ns = 50000;
  cfg.tenants = {relaxed, strict};

  std::vector<std::size_t> executed;
  const ReplayResult r =
      replay_trace(trace, cfg, [&](std::span<const std::size_t> ids) {
        executed.insert(executed.end(), ids.begin(), ids.end());
      });
  EXPECT_EQ(r.outcomes[0].status, Status::kOk);
  EXPECT_EQ(r.outcomes[1].status, Status::kTimedOut);
  EXPECT_EQ(r.outcomes[2].status, Status::kOk);
  EXPECT_EQ(executed, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(r.tenant_stats[0].shed, 0u);
  EXPECT_EQ(r.tenant_stats[1].shed, 1u) << "the shed must be accounted to "
                                           "the tenant whose SLO expired";
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].shed, (std::vector<std::size_t>{1}));
}

// --- replay: sharded harness ------------------------------------------------

std::vector<TraceEvent> zipf_keyed_trace(std::size_t n, std::uint64_t seed) {
  Rng trng(seed);
  std::vector<TraceEvent> trace = poisson_trace(n, 30000.0, 0, trng);
  const ZipfSampler zipf(100000, 1.05);
  Rng krng(seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].key = static_cast<std::uint64_t>(zipf.sample(krng));
    trace[i].tenant = static_cast<std::uint32_t>(i % 2);
  }
  return trace;
}

ReplayConfig two_tenant_config() {
  ReplayConfig cfg;
  cfg.serve.max_batch = 6;
  cfg.serve.max_wait_ns = 100000;
  cfg.serve.queue_capacity = 32;
  cfg.service_ns = 90000;
  TenantPolicy a;
  a.queue_share = 0.5;
  TenantPolicy b;
  b.queue_share = 0.5;
  cfg.tenants = {a, b};
  return cfg;
}

TEST(ShardedReplay, OneShardReducesByteForByteToPlainReplay) {
  const std::vector<TraceEvent> trace = zipf_keyed_trace(64, 31);
  const ReplayConfig cfg = two_tenant_config();

  std::vector<std::size_t> plain_order;
  const ReplayResult plain =
      replay_trace(trace, cfg, [&](std::span<const std::size_t> ids) {
        plain_order.insert(plain_order.end(), ids.begin(), ids.end());
      });

  ShardedReplayConfig scfg;
  scfg.replay = cfg;
  scfg.num_shards = 1;
  std::vector<std::size_t> sharded_order;
  const ShardedReplayResult sharded = replay_sharded(
      trace, scfg, [&](std::size_t shard, std::span<const std::size_t> ids) {
        EXPECT_EQ(shard, 0u);
        sharded_order.insert(sharded_order.end(), ids.begin(), ids.end());
      });

  EXPECT_EQ(sharded_order, plain_order);
  ASSERT_EQ(sharded.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(sharded.outcomes[i].status, plain.outcomes[i].status) << i;
    EXPECT_EQ(sharded.outcomes[i].done_ns, plain.outcomes[i].done_ns) << i;
    EXPECT_EQ(sharded.outcomes[i].latency_ns, plain.outcomes[i].latency_ns)
        << i;
  }
  EXPECT_EQ(sharded.boundary_log(), "shard 0:\n" + plain.boundary_log());
  EXPECT_EQ(sharded.stats.completed, plain.stats.completed);
  EXPECT_EQ(sharded.stats.batches, plain.stats.batches);
  ASSERT_EQ(sharded.tenant_stats.size(), plain.tenant_stats.size());
  for (std::size_t t = 0; t < plain.tenant_stats.size(); ++t) {
    EXPECT_EQ(sharded.tenant_stats[t].completed, plain.tenant_stats[t].completed);
    EXPECT_EQ(sharded.tenant_stats[t].rejected, plain.tenant_stats[t].rejected);
  }
}

TEST(ShardedReplay, RoutesEveryRequestToItsRingOwnerAndReportsPerShard) {
  const std::size_t kShards = 4;
  const std::vector<TraceEvent> trace = zipf_keyed_trace(96, 41);
  ShardedReplayConfig scfg;
  scfg.replay = two_tenant_config();
  scfg.num_shards = kShards;

  std::vector<std::vector<std::size_t>> executed_on(kShards);
  const ShardedReplayResult r = replay_sharded(
      trace, scfg, [&](std::size_t shard, std::span<const std::size_t> ids) {
        ASSERT_LT(shard, kShards);
        executed_on[shard].insert(executed_on[shard].end(), ids.begin(),
                                  ids.end());
      });

  // Routing must agree with an independently constructed router: the map is
  // a pure function of (key, shard count, vnodes), not of replay state.
  const ShardRouter router(kShards, scfg.vnodes);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(r.shard_of[i], router.route(trace[i].key)) << "id " << i;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const std::size_t id : executed_on[s]) {
      EXPECT_EQ(r.shard_of[id], s) << "id " << id << " executed off-shard";
    }
  }

  std::uint64_t routed = 0;
  for (const std::uint64_t c : r.routed_per_shard()) routed += c;
  EXPECT_EQ(routed, trace.size());
  EXPECT_GE(r.imbalance(), 1.0);
  EXPECT_EQ(r.stats.completed + r.stats.rejected + r.stats.shed, trace.size());

  // The boundary log carries one section per shard, in shard order.
  const std::string log = r.boundary_log();
  std::size_t sections = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (log.find("shard " + std::to_string(s) + ":\n") != std::string::npos) {
      ++sections;
    }
  }
  EXPECT_EQ(sections, kShards);
}

}  // namespace
}  // namespace enw::serve
