// Key -> shard routing for the IndexService's per-shard server occupancy.
//
// A consistent-hash ring over the shard ids (32 virtual points per shard),
// so a future re-shard moves only ~1/N of the keyspace. Shards are uniform
// servers, so arc imbalance is harmless here. With one shard the router is
// free (always 0).

#ifndef SWARM_SRC_INDEX_SHARD_ROUTER_H_
#define SWARM_SRC_INDEX_SHARD_ROUTER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/hash/xxhash.h"

namespace swarm::index {

class ShardRouter {
 public:
  ShardRouter() = default;
  explicit ShardRouter(int shards) : shards_(shards < 1 ? 1 : shards) {
    if (shards_ == 1) {
      return;
    }
    ring_.reserve(static_cast<size_t>(shards_) * kVnodes);
    for (int s = 0; s < shards_; ++s) {
      for (int v = 0; v < kVnodes; ++v) {
        ring_.emplace_back(
            hash::Mix64(static_cast<uint64_t>(s) * 1031 + static_cast<uint64_t>(v), 0x7368617264),
            s);
      }
    }
    std::sort(ring_.begin(), ring_.end());
  }

  int shards() const { return shards_; }

  int ShardOf(uint64_t key) const {
    if (shards_ == 1) {
      return 0;
    }
    const uint64_t point = hash::Mix64(key, 0x726f757465);
    auto it = std::lower_bound(ring_.begin(), ring_.end(), std::make_pair(point, -1));
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    return it->second;
  }

 private:
  static constexpr int kVnodes = 32;
  int shards_ = 1;
  std::vector<std::pair<uint64_t, int>> ring_;
};

}  // namespace swarm::index

#endif  // SWARM_SRC_INDEX_SHARD_ROUTER_H_
