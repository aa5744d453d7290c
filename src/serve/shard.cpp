#include "serve/shard.h"

#include <algorithm>

namespace enw::serve {

double shard_imbalance(std::span<const std::uint64_t> per_shard_counts,
                       std::span<const std::uint8_t> live) {
  ENW_CHECK_MSG(per_shard_counts.size() == live.size(),
                "one liveness flag per shard slot");
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  std::size_t n = 0;
  for (std::size_t s = 0; s < per_shard_counts.size(); ++s) {
    if (!live[s]) continue;
    max = std::max(max, per_shard_counts[s]);
    total += per_shard_counts[s];
    ++n;
  }
  if (n == 0 || total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(n);
  return static_cast<double>(max) / mean;
}

double shard_imbalance(std::span<const std::uint64_t> per_shard_counts) {
  const std::vector<std::uint8_t> live(per_shard_counts.size(), 1);
  return shard_imbalance(per_shard_counts, live);
}

}  // namespace enw::serve
