// Inverse placement map: node -> owned slots (grouped into extents by
// address order), the structure that makes rebuilding a node O(slots-on-node)
// instead of O(store).
//
// The IndexService maintains it as layouts are inserted, replaced (migration
// flips) and GC-dropped. Each slot records which layout currently OWNS the
// address — "newest claim wins": when a migration flip re-homes a key, the
// replacement layout re-registers and overwrites the slots it shares with its
// predecessor, and the predecessor keeps only the vacated (fenced) slot,
// marked `moved`. On GC drop, exactly the slots still owned by the dropped
// layout are released — which is also the moment the "permanent" migration
// fence over a vacated slot can finally be lifted and the slot recycled,
// because nothing can reference the layout anymore.
//
// Repair walks ForEachSlotOn(node) in address order: live slots plus
// retired-but-restorable ones (deleted layouts pinned by stale caches) —
// the same coverage the old O(store) SnapshotSorted + retired() walk had,
// minus moved slots, which repair must never restore.

#ifndef SWARM_SRC_INDEX_PLACEMENT_MAP_H_
#define SWARM_SRC_INDEX_PLACEMENT_MAP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/swarm/layout.h"

namespace swarm::index {

class PlacementMap {
 public:
  struct Slot {
    std::shared_ptr<const ObjectLayout> owner;
    uint64_t key = 0;
    int32_t replica = 0;   // Index into owner->replicas.
    bool moved = false;    // Vacated by a migration flip; never restore.
  };

  // Claims every replica slot of `layout` for it (overwriting any previous
  // owner's claim on shared addresses).
  void Register(uint64_t key, const std::shared_ptr<const ObjectLayout>& layout) {
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      auto& by_addr = NodeSlots(rep.node);
      Slot& s = by_addr[rep.meta_addr];
      s.owner = layout;
      s.key = key;
      s.replica = r;
      s.moved = false;
    }
  }

  // Marks the slots still owned by `layout` as moved (called after the
  // replacement layout re-registered: only the vacated slots remain).
  void MarkMoved(const ObjectLayout* layout) {
    ForEachOwned(layout, [](Slot& s) { s.moved = true; });
  }

  // Releases the slots still owned by `layout`: fn(node, addr, len) for each,
  // then the entry is erased. Called on GC drop.
  template <typename Fn>
  void Release(const ObjectLayout* layout, Fn&& fn) {
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      const auto node = static_cast<size_t>(rep.node);
      if (node >= nodes_.size()) {
        continue;
      }
      auto it = nodes_[node].find(rep.meta_addr);
      if (it == nodes_[node].end() || it->second.owner.get() != layout) {
        continue;  // A newer layout claimed this address.
      }
      fn(rep.node, rep.meta_addr, layout->replica_slot_bytes(rep.has_inplace()));
      nodes_[node].erase(it);
    }
  }

  // Address-ordered walk of one node's slots: fn(addr, const Slot&).
  template <typename Fn>
  void ForEachSlotOn(int node, Fn&& fn) const {
    const auto idx = static_cast<size_t>(node);
    if (idx >= nodes_.size()) {
      return;
    }
    for (const auto& [addr, slot] : nodes_[idx]) {
      fn(addr, slot);
    }
  }

  // How many slots `layout` still owns (its claims minus newer overwrites).
  // The GC's use-count gate subtracts these: each owned Slot holds one
  // shared_ptr reference that is the map's own, not an in-flight holder's.
  size_t OwnedCount(const ObjectLayout* layout) const {
    size_t n = 0;
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      const auto node = static_cast<size_t>(rep.node);
      if (node >= nodes_.size()) {
        continue;
      }
      auto it = nodes_[node].find(rep.meta_addr);
      if (it != nodes_[node].end() && it->second.owner.get() == layout) {
        ++n;
      }
    }
    return n;
  }

  // Slots currently tracked on `node` (moved ones included).
  uint64_t SlotsOn(int node) const {
    const auto idx = static_cast<size_t>(node);
    return idx < nodes_.size() ? nodes_[idx].size() : 0;
  }

  // Any non-moved slot left on `node`? (Drain's completion check.)
  bool HasLiveSlotOn(int node) const {
    const auto idx = static_cast<size_t>(node);
    if (idx >= nodes_.size()) {
      return false;
    }
    for (const auto& [addr, slot] : nodes_[idx]) {
      if (!slot.moved) {
        return true;
      }
    }
    return false;
  }

  size_t total_slots() const {
    size_t n = 0;
    for (const auto& m : nodes_) {
      n += m.size();
    }
    return n;
  }

 private:
  std::map<uint64_t, Slot>& NodeSlots(int node) {
    const auto idx = static_cast<size_t>(node);
    if (idx >= nodes_.size()) {
      nodes_.resize(idx + 1);
    }
    return nodes_[idx];
  }

  template <typename Fn>
  void ForEachOwned(const ObjectLayout* layout, Fn&& fn) {
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      const auto node = static_cast<size_t>(rep.node);
      if (node >= nodes_.size()) {
        continue;
      }
      auto it = nodes_[node].find(rep.meta_addr);
      if (it != nodes_[node].end() && it->second.owner.get() == layout) {
        fn(it->second);
      }
    }
  }

  std::vector<std::map<uint64_t, Slot>> nodes_;  // node -> addr -> slot.
};

}  // namespace swarm::index

#endif  // SWARM_SRC_INDEX_PLACEMENT_MAP_H_
