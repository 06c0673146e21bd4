// In-n-Out (§4): a single-node max register for large values, in one
// roundtrip, on a memory node with no compute.
//
// A write simultaneously (1) fills a fresh out-of-place buffer, (2) updates
// the 8-byte metadata word to (timestamp, oop pointer) via a CAS-emulated MAX
// (Algorithm 7), both pipelined in ONE roundtrip (Fig. 3), and (3) lazily
// refreshes the in-place copy + hash in the background. A read fetches the
// metadata array and the in-place data in one READ; if the hash validates the
// in-place bytes against the winning metadata word, it is done in one
// roundtrip, otherwise it falls back to chasing the out-of-place pointer
// (Algorithm 6).
//
// These are *client-side* helper routines: the node only ever sees raw
// READ/WRITE/CAS verbs.
//
// CasMax below is Algorithm 7's loop with §4.3's recycling rule, shared with
// DM-ABD's installs (abd.cc). A writer's pipelined first CAS stays with the
// writer, which continues with CasMax from the word the node returned.

#ifndef SWARM_SRC_SWARM_INOUT_H_
#define SWARM_SRC_SWARM_INOUT_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/task.h"
#include "src/swarm/layout.h"
#include "src/swarm/timestamp.h"
#include "src/swarm/worker.h"

namespace swarm {

// Result of reading one replica's metadata array (+ optional in-place data).
struct [[nodiscard]] NodeView {
  fabric::Status status = fabric::Status::kOk;
  Meta max;                    // ts-max over the metadata slots (full word, node-local oop).
  sim::PoolVec<Meta> slots;    // all K metadata words (for write-back CAS seeds).
  bool inplace_valid = false;  // in-place bytes match `max`'s hash.
  sim::Bytes value;            // in-place value, only if inplace_valid.

  bool ok() const { return status == fabric::Status::kOk; }

  // ts-max over slots excluding words that denote the write `w` itself
  // (needed by Safe-Guess's parallel read, which must compare against other
  // writes, not its own just-installed word).
  Meta MaxExcluding(Meta w) const {
    Meta m;
    for (Meta s : slots) {
      if (s.same_write_key() != w.same_write_key()) {
        m = TsMax(m, s);
      }
    }
    return m;
  }
};

// Result of a single-node max-write.
struct [[nodiscard]] NodeMaxResult {
  fabric::Status status = fabric::Status::kOk;
  Meta installed;  // the word now in our slot if we won; default if we lost.
  Meta observed;   // ts-max word observed at the slot during the op.
  // The word our install overwrote. Writers whose tids share a metadata slot
  // (meta_slots < max_writers) overwrite each other's words, so it may be a
  // foreign write that `observed`, already past it, no longer shows.
  Meta replaced;
  int cas_retries = 0;

  bool ok() const { return status == fabric::Status::kOk; }
};

// Returns `word`'s out-of-place buffer to `pool`; empty words and tombstones
// have none.
inline void FreeBuffer(OopPool& pool, Meta word) {
  if (!word.empty() && !word.deleted()) {
    pool.Free(word.oop());
  }
}

// Result of one CasMax.
struct [[nodiscard]] CasMaxResult {
  fabric::Status status = fabric::Status::kOk;  // Of the last CAS posted.
  bool installed = false;  // `desired` is in the word now, by our CAS.
  Meta replaced;           // The word our install overwrote.
  int cas_count = 0;       // CASes posted.

  bool ok() const { return status == fabric::Status::kOk; }
};

// Algorithm 7: CASes the 8 B word at `addr` from `prev` to `desired` while
// `prev` orders below `desired`, taking each word the node returns as the
// next `prev` and folding it into `*seen` as it arrives (a quorum phase's
// tasks may share one accumulator, read while some are still looping).
// §4.3's recycling rule: an install frees the replaced word's buffer; when
// the word reaches or passes `desired` first, `desired`'s buffer is freed; a
// failed CAS returns its status and frees nothing (it may have applied with
// its ack lost).
sim::Task<CasMaxResult> CasMax(fabric::Qp& qp, OopPool& pool, uint64_t addr, Meta prev,
                               Meta desired, Meta* seen);

// One replica of one object, bound to a worker. Cheap to construct per op.
class InOutReplica {
 public:
  InOutReplica(Worker* worker, const ObjectLayout* layout, int replica_idx)
      : worker_(worker), layout_(layout),
        rep_(&layout->replica(replica_idx)) {}

  int node() const { return rep_->node; }
  bool has_inplace() const { return rep_->has_inplace(); }

  // MAX-writes `w` (whose oop bits are filled from a freshly allocated
  // out-of-place buffer holding `value`) into this writer's metadata slot.
  // `slot_cache` seeds the first CAS's expected value (Algorithm 7's cached
  // previous value; stale caches cost retries, §4.4/§7.9) and is updated.
  // One roundtrip when the cache is fresh: pipelined [oop WRITE → slot CAS].
  sim::Task<NodeMaxResult> WriteMax(Meta w, std::span<const uint8_t> value, Meta* slot_cache);

  // Same, but on behalf of another writer's word `w_full_ts` (write-backs by
  // readers / quorum repair): targets the slot of w's tid.
  sim::Task<NodeMaxResult> WriteMaxFor(Meta w, std::span<const uint8_t> value, Meta slot_expected);

  // Reads the metadata array and, if `want_inplace` and this replica holds
  // in-place data, the in-place region — all in one READ.
  sim::Task<NodeView> ReadNode(bool want_inplace);

  // Follows `word`'s out-of-place pointer. Returns the value, or nullopt if
  // the buffer no longer matches (recycled by its writer).
  sim::Task<std::optional<sim::Bytes>> ReadOop(Meta word);

  // Flips `node_word` (our previously installed GUESSED word at this node) to
  // VERIFIED; if this replica is designated, refreshes in-place data in the
  // same pipelined roundtrip (§6: in-place written only when verifying).
  sim::Task<fabric::Status> PromoteVerified(Meta node_word, std::span<const uint8_t> value);

  // Direct VERIFIED max-write (Safe-Guess slow path, deletes, quorum repair):
  // like WriteMax, but also refreshes in-place data on designated replicas in
  // the same roundtrip.
  sim::Task<NodeMaxResult> WriteVerifiedNode(Meta w, std::span<const uint8_t> value,
                                             Meta slot_expected);

 private:
  sim::Task<NodeMaxResult> WriteMaxImpl(Meta w, std::span<const uint8_t> value, Meta slot_expected,
                                        bool refresh_inplace);

  // All callers derive `slot` via SlotOf(tid, meta_slots), so the bound holds
  // by construction; the assert keeps the slab-neighbor corruption class
  // (PR-9 seed 47000) impossible to reintroduce silently.
  uint64_t SlotAddr(int slot) const {
    assert(slot >= 0 && slot < layout_->meta_slots);
    return rep_->meta_addr + static_cast<uint64_t>(slot) * 8;
  }

  Worker* worker_;
  const ObjectLayout* layout_;
  const ReplicaLayout* rep_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_INOUT_H_
