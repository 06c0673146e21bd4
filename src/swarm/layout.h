// Memory layout of a SWARM-replicated object on its memory nodes.
//
// Each replica of an object occupies, on its node (Fig. 3 + §4.4 + §3.3):
//
//   meta_addr:      K × 8 B   In-n-Out metadata words (one per writer subset,
//                             §4.4's contention-reduction array),
//   tsl_addr():     W × 8 B   timestamp-lock CAS words (one lock per writer,
//                             §3.3; Safe-Guess state, co-located for locality),
//   inplace_addr():           [hash 8 B][len 8 B][data max_value] — only at the
//                             object's designated replica (§6: in-place data
//                             is stored at one replica chosen by key hash).
//
// Out-of-place buffers are NOT part of the per-object layout: writers carve
// them from per-(client, node) pre-allocated pools (§4.3: "writers
// pre-allocate large memory chunks").

#ifndef SWARM_SRC_SWARM_LAYOUT_H_
#define SWARM_SRC_SWARM_LAYOUT_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulator.h"
#include "src/swarm/timestamp.h"

namespace swarm {

inline constexpr int kMaxReplicas = 8;

// In-place region header: [hash][len].
inline constexpr uint64_t kInPlaceHeaderBytes = 16;
// Out-of-place buffer header: [meta word][len].
inline constexpr uint64_t kOopHeaderBytes = 16;

// One replica's record: its node, the base of its slab slot (which is where
// the metadata array starts) and the offsets of the in-place and TSL regions
// inside that slot, as AllocateObject packs it. Every client keeps one
// ObjectLayout per key it has touched, so the record is held to 16 B (an
// ObjectLayout is 144 B); AllocateObject aborts on a geometry whose offsets
// or node id do not fit.
struct ReplicaLayout {
  uint64_t meta_addr = 0;       // Slot base = metadata array.
  int16_t node = -1;
  uint16_t inplace_offset = 0;  // 0 = this replica holds no in-place data.
  uint32_t tsl_offset = 0;

  bool has_inplace() const { return inplace_offset != 0; }
  // Meaningful only when has_inplace().
  uint64_t inplace_addr() const { return meta_addr + inplace_offset; }
  uint64_t tsl_addr() const { return meta_addr + tsl_offset; }
};
static_assert(sizeof(ReplicaLayout) == 16, "replica record must stay 16 B");

struct ObjectLayout {
  std::array<ReplicaLayout, kMaxReplicas> replicas;
  int32_t num_replicas = 0;
  int32_t meta_slots = 1;   // K metadata buffers (§4.4).
  int32_t max_writers = 1;  // W timestamp locks.
  uint32_t max_value = 0;   // capacity of value buffers, bytes.

  int majority() const { return num_replicas / 2 + 1; }
  uint64_t meta_region_bytes() const { return static_cast<uint64_t>(meta_slots) * 8; }
  uint64_t tsl_region_bytes() const { return static_cast<uint64_t>(max_writers) * 8; }
  uint64_t inplace_region_bytes() const { return kInPlaceHeaderBytes + max_value; }

  // One replica occupies ONE contiguous slab slot:
  //   [meta | in-place (designated replicas only) | tsl]
  // so a single interval fences it and a single FreeSlot releases it. The
  // in-place region is padded to 8 B so the TSL words stay aligned.
  uint64_t tsl_region_offset(bool with_inplace) const {
    return meta_region_bytes() +
           (with_inplace ? (inplace_region_bytes() + 7) & ~uint64_t{7} : 0);
  }
  uint64_t replica_slot_bytes(bool with_inplace) const {
    return tsl_region_offset(with_inplace) + tsl_region_bytes();
  }
  // [addr, addr+len) of replica r's slot, for fencing/freeing.
  std::pair<uint64_t, uint64_t> replica_slot(int r) const {
    const ReplicaLayout& rep = replicas[static_cast<size_t>(r)];
    return {rep.meta_addr, replica_slot_bytes(rep.has_inplace())};
  }
};

// The record's narrow fields hold the node id and the in-place and TSL
// offsets of the [meta | in-place | tsl] packing. A geometry they cannot hold
// is a deployment misconfiguration, like a writer past the TSL bound
// (CheckWriterBound in safe_guess.cc): abort with a message rather than
// truncate an address into another object's slot.
inline void CheckReplicaRecordFits(const ObjectLayout& layout, const int* nodes,
                                   int inplace_copies) {
  const auto fail = [](const char* what, long long value, unsigned long long limit) {
    std::fprintf(stderr, "layout: %s %lld does not fit the replica record (limit %llu)\n", what,
                 value, limit);
    std::abort();
  };
  const uint64_t meta = layout.meta_region_bytes();
  if (layout.meta_slots < 1 || meta > UINT16_MAX) {
    fail("meta region bytes", static_cast<long long>(meta), UINT16_MAX);
  }
  const uint64_t tsl_with_inplace = layout.tsl_region_offset(/*with_inplace=*/true);
  if (inplace_copies > 0 && tsl_with_inplace > UINT32_MAX) {
    fail("meta + in-place region bytes", static_cast<long long>(tsl_with_inplace), UINT32_MAX);
  }
  for (int r = 0; r < layout.num_replicas; ++r) {
    if (nodes[r] < 0 || nodes[r] > INT16_MAX) {
      fail("node id", nodes[r], INT16_MAX);
    }
  }
}

// Allocates one object's replicas on the given nodes. `inplace_copies`
// replicas (starting from replica 0, the designated one) get an in-place
// region; the paper uses one (§6), the failover experiment can provision a
// standby. Buffers come back zeroed, i.e. "empty" (§5.3.1).
inline ObjectLayout AllocateObject(fabric::Fabric& fabric, const int* nodes, int num_replicas,
                                   int meta_slots, int max_writers, uint32_t max_value,
                                   int inplace_copies = 1) {
  ObjectLayout layout;
  layout.num_replicas = num_replicas;
  layout.meta_slots = meta_slots;
  layout.max_writers = max_writers;
  layout.max_value = max_value;
  CheckReplicaRecordFits(layout, nodes, inplace_copies);
  for (int r = 0; r < num_replicas; ++r) {
    ReplicaLayout& rep = layout.replicas[static_cast<size_t>(r)];
    rep.node = static_cast<int16_t>(nodes[r]);
    fabric::MemoryNode& node = fabric.node(nodes[r]);
    // One slab slot per replica: [meta | in-place? | tsl]. The in-place
    // region sits contiguously after the metadata array so both can be
    // fetched in a single READ (§4.3: "the in-place data buffer is located
    // next to the 8 B metadata"); the timestamp locks ride in the same slot
    // so the whole replica is one fence/free interval.
    const bool with_inplace = r < inplace_copies;
    rep.meta_addr = node.AllocSlot(layout.replica_slot_bytes(with_inplace));
    if (with_inplace) {
      rep.inplace_offset = static_cast<uint16_t>(layout.meta_region_bytes());
    }
    rep.tsl_offset = static_cast<uint32_t>(layout.tsl_region_offset(with_inplace));
  }
  return layout;
}

// Per-(writer, object) cached words: this writer's metadata slot content on
// each replica (Algorithm 7's cached previous value; 8 B per replica, the
// "In-n-Out metadata" part of a SWARM-KV cache entry, §7.1).
struct ObjectCache {
  std::array<Meta, kMaxReplicas> slot{};
};

// Which metadata slot a writer CASes (§4.4: each buffer is updated by a
// subset of the writers).
inline int SlotOf(uint32_t tid, int meta_slots) {
  return static_cast<int>(tid % static_cast<uint32_t>(meta_slots));
}

// Client-side pool of out-of-place buffers on one node (§4.3: "writers
// pre-allocate large memory chunks"). Allocation is a client-local free-list
// pop / bump, never a roundtrip. A slot is recycled ONLY when the value it
// held has been superseded — the writer whose CAS replaced a metadata word
// frees the replaced word's buffer (Free()). A slow reader that still chases
// a freed-and-reused slot detects the reuse through the buffer's embedded
// header and retries; the recycler extension (src/swarm/recycler.h) layers
// the paper's polite membership-based protocol (§4.5) on top.
// Freed buffers sit in quarantine before reuse: a reader that picked up the
// superseded metadata word just before the free must be given time to finish
// its (single-roundtrip) pointer chase. This is the practical trade-off of
// §4.5 — recycling relies on partial synchrony, the read/write protocol does
// not. The quarantine must exceed the worst believable chase latency.
inline constexpr sim::Time kOopQuarantineNs = 200 * 1000;

class OopPool {
 public:
  OopPool(fabric::MemoryNode* node, sim::Simulator* sim, uint32_t max_value, int slots)
      : node_(node), sim_(sim),
        slot_bytes_((kOopHeaderBytes + max_value + kOopGranuleBytes - 1) & ~(kOopGranuleBytes - 1)),
        chunk_slots_(slots > 0 ? slots : 1) {
    AddChunk();
  }

  // Returns the granule index to embed in a metadata word.
  uint32_t AllocIdx() {
    if (head_ < quarantine_.size() && quarantine_[head_].ripe_at <= sim_->Now()) {
      const uint32_t idx = quarantine_[head_].idx;
      if (++head_ == quarantine_.size()) {
        quarantine_.clear();
        head_ = 0;
      } else if (head_ >= 64 && head_ * 2 >= quarantine_.size()) {
        // Compact the consumed prefix. Under steady churn the queue never
        // fully drains (pushes and pops run at matched rates), so without
        // this the dead prefix — and the vector — would grow forever. The
        // erase shifts in place: capacity sticks at its high-water mark and
        // steady-state recycling stays allocation-free.
        quarantine_.erase(quarantine_.begin(), quarantine_.begin() + static_cast<long>(head_));
        head_ = 0;
      }
      return idx;
    }
    if (next_in_chunk_ == chunk_slots_) {
      AddChunk();  // Exhausted: pre-allocate another chunk (no roundtrip).
    }
    const uint64_t addr = chunk_base_ + static_cast<uint64_t>(next_in_chunk_++) * slot_bytes_;
    return static_cast<uint32_t>(addr / kOopGranuleBytes);
  }

  // Recycles a superseded buffer (after quarantine). Accepts slots that were
  // originally allocated by other pools of the same geometry (write-backs
  // install words with buffers from the repairer's pool).
  void Free(uint32_t oop_idx) {
    if (oop_idx != 0) {
      quarantine_.push_back(Quarantined{oop_idx, sim_->Now() + kOopQuarantineNs});
    }
  }

  uint64_t slot_bytes() const { return slot_bytes_; }

 private:
  struct Quarantined {
    uint32_t idx;
    sim::Time ripe_at;
  };

  void AddChunk() {
    // Granule alignment is essential: metadata words address buffers in
    // kOopGranuleBytes units, so a misaligned base would truncate pointers.
    chunk_base_ = node_->Allocate(static_cast<uint64_t>(chunk_slots_) * slot_bytes_,
                                  kOopGranuleBytes);
    next_in_chunk_ = 0;
  }

  fabric::MemoryNode* node_;
  sim::Simulator* sim_;
  uint64_t slot_bytes_;
  int chunk_slots_;
  uint64_t chunk_base_ = 0;
  int next_in_chunk_ = 0;
  sim::PoolVec<Quarantined> quarantine_;
  size_t head_ = 0;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_LAYOUT_H_
