#include "serve/shard_replay.h"

#include <sstream>
#include <utility>

#include "core/check.h"
#include "obs/obs.h"

namespace enw::serve {

std::vector<std::uint64_t> ShardedReplayResult::routed_per_shard() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shard_ids.size());
  for (const auto& ids : shard_ids) counts.push_back(ids.size());
  return counts;
}

double ShardedReplayResult::imbalance() const {
  const std::vector<std::uint64_t> counts = routed_per_shard();
  return shard_imbalance(counts, live);
}

std::string ShardedReplayResult::boundary_log() const {
  std::string out;
  for (std::size_t i = 0; i < resizes.size(); ++i) {
    std::ostringstream os;
    os << "resize " << i << ": t=" << resizes[i].at_ns
       << "ns op=" << (resizes[i].added ? "add" : "remove")
       << " shard=" << resizes[i].shard << " moved=" << resizes[i].moved;
    out += os.str();
    out += "\n";
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    out += "shard " + std::to_string(s) + ":\n";
    // Remap ids to global; with resizes every batch line carries its shard.
    const std::vector<std::size_t>& to_global = shard_ids[s];
    std::vector<BatchRecord> batches = shards[s].batches;
    for (BatchRecord& rec : batches) {
      for (std::size_t& id : rec.executed) id = to_global[id];
      for (std::size_t& id : rec.shed) id = to_global[id];
    }
    out += render_boundaries(batches, shards[s].swaps,
                             resizes.empty() ? "" : " s=" + std::to_string(s));
  }
  return out;
}

ShardedReplayResult replay_sharded(std::span<const TraceEvent> trace,
                                   const ShardedReplayConfig& cfg,
                                   const ShardedReplayExec& exec) {
  return replay_sharded(
      trace, cfg,
      ShardedReplayExecV([&exec](std::size_t shard,
                                 std::span<const std::size_t> ids,
                                 std::uint64_t) { exec(shard, ids); }));
}

ShardedReplayResult replay_sharded(std::span<const TraceEvent> trace,
                                   const ShardedReplayConfig& cfg,
                                   const ShardedReplayExecV& exec) {
  ENW_SPAN("serve.replay.sharded");
  ENW_CHECK_MSG(cfg.num_shards > 0, "need at least one shard");
  ENW_CHECK_MSG(cfg.replay.drain_at_ns == 0,
                "drain_at_ns is owned by the routing phase (script a kRemove)");
  const std::vector<ResizeEvent>& events = cfg.replay.resizes;
  for (std::size_t i = 1; i < events.size(); ++i) {
    ENW_CHECK_MSG(events[i - 1].at_ns <= events[i].at_ns,
                  "scripted resizes must be non-decreasing in at_ns");
  }

  ShardedReplayResult result;
  result.outcomes.resize(trace.size());
  result.shard_of.resize(trace.size());
  result.shard_ids.resize(cfg.num_shards);
  result.live.assign(cfg.num_shards, 1);

  // Route and split, applying scripted resizes in arrival order: a resize
  // activates when the first arrival stamped at/after its instant is routed,
  // so every routing decision is a pure function of (trace, config). Trace
  // order is preserved within each shard, so every sub-trace inherits the
  // non-decreasing arrival invariant.
  ShardRouter router(cfg.num_shards, cfg.vnodes);
  std::vector<std::vector<TraceEvent>> sub(cfg.num_shards);
  std::vector<std::uint64_t> drain_at(cfg.num_shards, 0);
  std::size_t next_event = 0;
  std::vector<std::size_t> old_owner;  // scratch for the remap count
  for (std::size_t i = 0; i < trace.size(); ++i) {
    while (next_event < events.size() &&
           events[next_event].at_ns <= trace[i].arrival_ns) {
      const ResizeEvent& ev = events[next_event++];
      old_owner.clear();
      for (std::size_t j = i; j < trace.size(); ++j) {
        old_owner.push_back(router.route(trace[j].key));
      }
      const bool added = ev.kind == ResizeEvent::Kind::kAdd;
      if (added) {
        ENW_CHECK_MSG(ev.shard == router.next_shard_id(),
                      "kAdd shard id must be the next sequential id");
        const std::size_t got = router.add_shard();
        ENW_CHECK(got == ev.shard);
        sub.emplace_back();
        result.shard_ids.emplace_back();
        drain_at.push_back(0);
        result.live.push_back(1);
      } else {
        ENW_CHECK_MSG(ev.shard < result.live.size() && result.live[ev.shard],
                      "kRemove target must be a live shard");
        router.remove_shard(ev.shard);
        drain_at[ev.shard] = ev.at_ns;
        result.live[ev.shard] = 0;
      }
      std::size_t moved = 0;
      for (std::size_t j = i; j < trace.size(); ++j) {
        if (router.route(trace[j].key) != old_owner[j - i]) ++moved;
      }
      result.resizes.push_back(ResizeBoundary{ev.at_ns, added, ev.shard, moved});
    }
    const std::size_t s = router.route(trace[i].key);
    result.shard_of[i] = s;
    result.shard_ids[s].push_back(i);
    sub[s].push_back(trace[i]);
  }
  const std::size_t slots = sub.size();

  // Replay each shard slot independently; the exec shim translates the
  // shard's local batch ids to global trace indices. A removed shard drains
  // from its resize instant; scripted resizes never reach the sub-replays.
  ReplayConfig shard_cfg = cfg.replay;
  shard_cfg.resizes.clear();
  result.shards.reserve(slots);
  std::vector<std::size_t> global_ids;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::vector<std::size_t>& to_global = result.shard_ids[s];
    const auto shim = [&](std::span<const std::size_t> local,
                          std::uint64_t version) {
      global_ids.clear();
      for (std::size_t id : local) global_ids.push_back(to_global[id]);
      exec(s, std::span<const std::size_t>(global_ids), version);
    };
    shard_cfg.drain_at_ns = drain_at[s];
    result.shards.push_back(
        replay_trace(std::span<const TraceEvent>(sub[s]), shard_cfg, shim));
    const ReplayResult& shard = result.shards.back();
    for (std::size_t i = 0; i < to_global.size(); ++i) {
      result.outcomes[to_global[i]] = shard.outcomes[i];
    }
    result.stats.merge(shard.stats);
    if (result.tenant_stats.size() < shard.tenant_stats.size()) {
      result.tenant_stats.resize(shard.tenant_stats.size());
    }
    for (std::size_t t = 0; t < shard.tenant_stats.size(); ++t) {
      result.tenant_stats[t].merge(shard.tenant_stats[t]);
    }
  }
  return result;
}

}  // namespace enw::serve
