// Client-side location cache (§5.2, §7.1).
//
// SWARM-KV clients cache the replica locations (and the 8 B In-n-Out
// metadata, i.e. the per-replica slot-cache words) of the keys they touch so
// that steady-state gets and updates bypass the index entirely. An entry
// holds the location, a share in the layout; the slot-cache words are
// per-writer state that lives in the layout itself, one block of 8 B words
// per writer (Worker::SlotCacheFor), and dies with it. The cache may
// be unbounded ("index caches large enough to cache all key locations", most
// of §7) or bounded with an approximate-LFU replacement policy (the 5 MiB-cache
// experiment of Fig. 6).
//
// The cache is one map whatever the index's shard count: index sharding
// models server occupancy only (IndexService::set_shard_service_time), so
// nothing about a key's shard changes what a client caches or evicts.
//
// Modeled entry sizes follow the paper's accounting: 24 B of location data
// per entry for DM-ABD/FUSEE-style caches, 32 B for SWARM-KV (location +
// In-n-Out metadata), and ~32 B of replacement-policy metadata that is the
// same for every system and therefore excluded from the comparison.

#ifndef SWARM_SRC_INDEX_CLIENT_CACHE_H_
#define SWARM_SRC_INDEX_CLIENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/random.h"
#include "src/swarm/layout.h"
#include "src/swarm/quorum_max.h"

namespace swarm::index {

// 32 B on the host, the paper's SWARM-KV entry budget (§7.1): the shared
// layout pointer, the mapping's generation and the LFU counter.
struct CacheEntry {
  std::shared_ptr<const ObjectLayout> layout;
  uint64_t generation = 0;  // Index generation of the mapping.
  uint32_t freq = 0;        // Approximate-LFU frequency.
};
static_assert(sizeof(CacheEntry) == 32, "client-cache entry must stay 32 B");

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;

  double MissRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(total);
  }
};

class ClientCache {
 public:
  // `capacity` = max entries; 0 = unbounded. `entry_bytes` is the modeled
  // per-entry footprint used when sizing from a byte budget (§7.1).
  explicit ClientCache(size_t capacity = 0, uint64_t entry_bytes = 32, uint64_t seed = 1)
      : capacity_(capacity), entry_bytes_(entry_bytes), rng_(seed) {}

  static size_t EntriesForBudget(uint64_t bytes, uint64_t entry_bytes) {
    return static_cast<size_t>(bytes / entry_bytes);
  }

  // Returns the entry and bumps its frequency, or nullptr on miss.
  CacheEntry* Lookup(uint64_t key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    if (it->second.freq < UINT32_MAX) {
      ++it->second.freq;
    }
    return &it->second;
  }

  // Inserts or replaces; evicts a low-frequency victim when the cache is
  // full.
  void Put(uint64_t key, CacheEntry entry) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      entry.freq = it->second.freq;
      it->second = std::move(entry);
      return;
    }
    if (capacity_ != 0 && map_.size() >= capacity_) {
      EvictOne();
    }
    entry.freq = 1;
    map_.emplace(key, std::move(entry));
    if (capacity_ != 0) {
      keys_.push_back(key);  // Only eviction samples it.
    }
  }

  // Drops a key (flush on observing a delete, §5.3.3/§5.3.4).
  void Invalidate(uint64_t key) {
    if (map_.erase(key) > 0) {
      ++stats_.invalidations;
    }
  }

  // Drops every entry referencing `layout` — the client's side of the §4.5
  // recycling message ("stop accessing the to-be-recycled buffers"): the
  // index GC is about to forget the retired layout, so a stale mapping to it
  // must not survive in any cache (IndexService::add_gc_listener).
  void InvalidateLayout(const ObjectLayout* layout) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.layout.get() == layout) {
        it = map_.erase(it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
  }

  size_t size() const { return map_.size(); }
  uint64_t ModeledBytes() const { return size() * entry_bytes_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  // Approximate LFU: sample a handful of entries in O(1) via a lazy key
  // vector, evict the least frequent, and age the sampled survivors so old
  // heat decays. Stale vector slots (already-evicted keys) are cleaned up
  // lazily as they are drawn.
  void EvictOne() {
    constexpr int kSamples = 8;
    uint64_t victim = 0;
    uint32_t victim_freq = UINT32_MAX;
    bool found = false;
    int draws = 0;
    while (draws < kSamples && !keys_.empty()) {
      const size_t slot = static_cast<size_t>(rng_.Below(keys_.size()));
      auto it = map_.find(keys_[slot]);
      if (it == map_.end()) {
        keys_[slot] = keys_.back();  // Stale: compact and redraw.
        keys_.pop_back();
        continue;
      }
      ++draws;
      if (it->second.freq < victim_freq) {
        victim_freq = it->second.freq;
        victim = it->first;
        found = true;
      }
      if (it->second.freq > 0) {
        --it->second.freq;  // Gentle aging so stale heat decays over time.
      }
    }
    if (found) {
      map_.erase(victim);
      ++stats_.evictions;
    }
  }

  size_t capacity_;
  uint64_t entry_bytes_;
  sim::Rng rng_;
  std::unordered_map<uint64_t, CacheEntry> map_;
  // Eviction's sampling support, bounded caches only; may contain stale keys.
  std::vector<uint64_t> keys_;
  CacheStats stats_;
};

}  // namespace swarm::index

#endif  // SWARM_SRC_INDEX_CLIENT_CACHE_H_
