#include "src/index/index_service.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/util/discard.h"

namespace swarm::index {

sim::Task<void> IndexService::Leg(bool response) {
  if (fabric_ != nullptr) {
    // Reliable transport over a faulty link: every drop costs one
    // retransmission timeout before the leg finally goes through. This keeps
    // the RPC's at-most-once apply semantics while letting chaos stretch the
    // window between an index mutation and its acknowledgement (or between a
    // client's request and the mutation).
    const int link = fabric_->index_link();
    while (fabric_->DropMessage(link, response)) {
      co_await sim_->Delay(fabric_->config().failure_detect_delay);
    }
  }
  sim::Time delay = one_way_;
  if (jitter_ > 0) {
    delay += sim_->rng().Range(-jitter_, jitter_);
  }
  if (fabric_ != nullptr) {
    delay += fabric_->LinkExtraDelay(fabric_->index_link(), response);
  }
  co_await sim_->Delay(std::max<sim::Time>(delay, 1));
}

sim::Task<void> IndexService::Roundtrip(fabric::ClientCpu* cpu) {
  if (cpu != nullptr) {
    // Posting the RPC's send WQE rides the same doorbell as any verbs batched
    // alongside it (e.g. an insert's parallel replica writes, §5.3.1).
    co_await cpu->Submit(submit_cost_);
  }
  co_await Leg(/*response=*/false);
}

sim::Task<void> IndexService::Occupy(int shard) {
  if (service_time_ == 0) {
    co_return;
  }
  // FIFO service at the shard's server: reserve the next slot now, then wait
  // until it starts and hold it for service_time_.
  sim::Time& busy_until = busy_until_[static_cast<size_t>(shard)];
  busy_until = std::max(sim_->Now(), busy_until) + service_time_;
  co_await sim_->Delay(busy_until - sim_->Now());
}

sim::Task<std::optional<IndexEntry>> IndexService::Lookup(uint64_t key, fabric::ClientCpu* cpu) {
  co_await Roundtrip(cpu);
  co_await Occupy(router_.ShardOf(key));
  ++stats_.lookups;
  std::optional<IndexEntry> result;
  auto it = map_.find(key);
  if (it != map_.end()) {
    result = it->second;
  }
  co_await Leg(/*response=*/true);
  co_return result;
}

sim::Task<std::pair<bool, IndexEntry>> IndexService::InsertIfAbsent(uint64_t key,
                                                                    LayoutPin layout,
                                                                    fabric::ClientCpu* cpu) {
  co_await Roundtrip(cpu);
  co_await Occupy(router_.ShardOf(key));
  ++stats_.inserts;
  std::pair<bool, IndexEntry> result;
  auto it = map_.find(key);
  if (it != map_.end()) {
    result = {false, it->second};
  } else {
    IndexEntry entry{std::move(layout), next_generation_++};
    map_.emplace(key, entry);
    result = {true, entry};
  }
  co_await Leg(/*response=*/true);
  co_return result;
}

sim::Task<bool> IndexService::RemoveIfGeneration(uint64_t key, uint64_t generation,
                                                 fabric::ClientCpu* cpu) {
  co_await Roundtrip(cpu);
  co_await Occupy(router_.ShardOf(key));
  ++stats_.removes;
  bool removed = false;
  auto it = map_.find(key);
  if (it != map_.end() && it->second.generation == generation) {
    RetireOwned(std::move(it->second.layout), kAllReplicas, /*moved=*/false);
    map_.erase(it);
    removed = true;
  }
  co_await Leg(/*response=*/true);
  co_return removed;
}

sim::Task<uint64_t> IndexService::ReplaceLayout(uint64_t key, uint64_t expected_generation,
                                                LayoutPin layout, fabric::ClientCpu* cpu) {
  co_await Roundtrip(cpu);
  co_await Occupy(router_.ShardOf(key));
  ++stats_.inserts;
  uint64_t new_generation = 0;
  auto it = map_.find(key);
  if (it != map_.end() && it->second.generation == expected_generation) {
    LayoutPin old = std::move(it->second.layout);
    it->second.layout = std::move(layout);
    it->second.generation = next_generation_++;
    new_generation = it->second.generation;
    // The replacement owns the slots it shares with its predecessor; the old
    // layout keeps only the genuinely vacated (fenced) ones, marked moved.
    const ObjectLayout& next = *it->second.layout;
    uint8_t vacated = 0;
    for (int r = 0; r < old->num_replicas; ++r) {
      const ReplicaLayout& rep = old->replica(r);
      bool shared = false;
      for (int q = 0; q < next.num_replicas; ++q) {
        const ReplicaLayout& kept = next.replica(q);
        shared = shared || (kept.node == rep.node && kept.meta_addr == rep.meta_addr);
      }
      if (!shared) {
        vacated |= static_cast<uint8_t>(1u << r);
      }
    }
    RetireOwned(std::move(old), vacated, /*moved=*/true);
  }
  co_await Leg(/*response=*/true);
  co_return new_generation;
}

size_t IndexService::GcRetired() {
  if (!safe_before_fn_) {
    return 0;
  }
  const uint64_t horizon = safe_before_fn_();
  // The list is in retirement order and retirement epochs never decrease
  // (Recycler::current_epoch only increments), so the entries the horizon
  // has passed are a prefix. Both passes stay inside it: everything retired
  // since the horizon is left untouched, so a Retire while a repair holds
  // the horizon costs O(passed prefix), not O(retired list).
  const auto passed_end = std::partition_point(
      retired_.begin(), retired_.end(),
      [horizon](const RetiredLayout& r) { return r.epoch < horizon; });
  const auto passed = static_cast<size_t>(passed_end - retired_.begin());
  // Pass 1: tell caches to drop references to every horizon-passed layout
  // (the §4.5 message). This releases their LayoutPin copies, so pass 2's
  // use-count gate sees only genuine in-flight holders. Once notified, a
  // retired layout can never re-enter a cache (it is unmapped; re-inserts
  // build fresh layouts), so each layout is notified exactly once even
  // when an in-flight holder pins it across many GC calls.
  for (size_t i = 0; i < passed; ++i) {
    RetiredLayout& r = retired_[i];
    if (!r.caches_notified) {
      r.caches_notified = true;
      for (auto& fn : gc_listeners_) {
        fn(r.layout);
      }
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < passed; ++i) {
    RetiredLayout& r = retired_[i];
    // The drop gate: beyond the retired entry's own reference, nothing may
    // reference the layout — no cache entry, no in-flight Located copy, no
    // repair snapshot, no straggler's pin. Exact in the single-threaded
    // simulation.
    if (r.layout.use_count() > 1) {
      retired_[kept++] = std::move(r);
      continue;
    }
    // Drop: free the slots the record owns back to their nodes. For a
    // MOVED slot this is the moment its migration fence is finally lifted
    // — the layout is unreferenceable, so no straggler can ever address
    // the slot again — and the address recycles through the slab
    // quarantine.
    for (int rep = 0; rep < r.layout->num_replicas; ++rep) {
      if (fabric_ == nullptr || (r.owned >> rep & 1) == 0) {
        continue;
      }
      const auto [addr, len] = r.layout->replica_slot(rep);
      auto& n = fabric_->node(r.layout->replica(rep).node);
      n.RestoreRegion(addr, len);
      // Every replica the index holds is a slab slot (AllocateObject,
      // RawKv), so false means only that a plain restart reset the node's
      // allocator since the slot was allocated: nothing is left to free.
      DiscardStatus(n.FreeSlot(addr));
    }
    r.layout.reset();  // The last share: frees the layout's block and its words.
  }
  const size_t dropped = passed - kept;
  retired_.erase(retired_.begin() + static_cast<std::ptrdiff_t>(kept), passed_end);
  retired_dropped_ += dropped;
  return dropped;
}

std::vector<IndexService::SlotOn> IndexService::SortedSlotsOn(int node, uint64_t lo,
                                                             uint64_t hi) const {
  std::vector<SlotOn> slots;
  const auto collect = [&](const LayoutPin& layout, uint8_t owned, SlotOn slot) {
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replica(r);
      if ((owned >> r & 1) != 0 && rep.node == node && rep.meta_addr >= lo &&
          rep.meta_addr < hi) {
        slot.addr = rep.meta_addr;
        slot.layout = &layout;
        slot.replica = r;
        slots.push_back(slot);
      }
    }
  };
  for (const auto& [key, entry] : map_) {
    collect(entry.layout, kAllReplicas, SlotOn{.key = key, .mapped = true});
  }
  for (const RetiredLayout& r : retired_) {
    collect(r.layout, r.owned, SlotOn{.moved = r.moved});
  }
  std::sort(slots.begin(), slots.end(),
            [](const SlotOn& a, const SlotOn& b) { return a.addr < b.addr; });
  for (size_t i = 1; i < slots.size(); ++i) {
    if (slots[i].addr == slots[i - 1].addr) {
      std::fprintf(stderr,
                   "index: node %d slot 0x%llx is owned by two layouts (a plain restart "
                   "reused an address a layout still lists)\n",
                   node, static_cast<unsigned long long>(slots[i].addr));
      std::abort();
    }
  }
  return slots;
}

std::vector<std::pair<uint64_t, IndexEntry>> IndexService::SnapshotSorted() const {
  std::vector<std::pair<uint64_t, IndexEntry>> entries(map_.begin(), map_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

}  // namespace swarm::index
