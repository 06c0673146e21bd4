// RAW baseline (§7, "Baselines"): an unreplicated disaggregated key-value
// store with no concurrency control. Not useful in practice — concurrent
// accesses can return torn data and a node failure loses keys — but it
// establishes the latency floor: every get and update is exactly one
// roundtrip to one memory node.
//
// Per-key layout on its single node: [len 8 B][value]. Gets read the whole
// region; updates write [len][value] blindly in place.
//
// Stale location caches: with no replicated tombstone to bounce off, a
// cached location can silently go dead under a delete + re-insert. Gets
// re-locate through the index when a cached region reads as tombstoned, and
// removes await the generation-guarded unmap (retrying against the index
// when the cached generation lost) so kOk is never reported for a remove
// that provably had no effect. Updates stay blind — a lost update into a
// dead region is exactly the anomaly the replicated stores' metadata
// machinery exists to prevent, and the latency floor keeps it.

#ifndef SWARM_SRC_KV_RAW_KV_H_
#define SWARM_SRC_KV_RAW_KV_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/kv_types.h"
#include "src/swarm/worker.h"

namespace swarm::kv {

class RawKvSession : public KvSession {
 public:
  RawKvSession(Worker* worker, index::IndexService* index, index::ClientCache* cache)
      : worker_(worker), index_(index), cache_(cache) {}

  sim::Task<KvResult> Get(uint64_t key) override;
  sim::Task<KvResult> Update(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Insert(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Remove(uint64_t key) override;

  // Placement filter for fresh inserts: only nodes marked serving receive new
  // regions (MembershipService::serving()). Unset = place on all nodes.
  void set_serving(std::shared_ptr<const std::vector<bool>> serving) {
    serving_ = std::move(serving);
  }

 private:
  struct Located {
    bool found = false;
    bool cache_hit = false;
    LayoutPin layout;  // 1 replica, region at meta_addr.
    uint64_t generation = 0;
  };

  sim::Task<Located> Locate(uint64_t key, KvResult* result);

  Worker* worker_;
  index::IndexService* index_;
  index::ClientCache* cache_;
  std::shared_ptr<const std::vector<bool>> serving_;
};

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_RAW_KV_H_
