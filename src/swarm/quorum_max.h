// Reliable max register over failure-prone In-n-Out replicas (Algorithm 8,
// Appendix A, plus the §6 engineering optimizations).
//
// The register's value is the ts-maximal metadata word across a majority of
// replicas, together with the bytes that word denotes. Every phase runs on
// the quorum engine (src/swarm/quorum.h), which owns the replica order and
// the escalation from an optimistic majority to every usable replica — what
// gives SWARM its no-downtime failover (§7.7).
//
// Roundtrip behaviour (Appendix A.2):
//  * Write: 1 RT when the slot caches are fresh.
//  * Read:  1 RT when a majority agrees on the max and in-place data
//           validates; +1 RT for an out-of-place chase; +1 RT when the max
//           must be written back to complete a majority (inner_write).

#ifndef SWARM_SRC_SWARM_QUORUM_MAX_H_
#define SWARM_SRC_SWARM_QUORUM_MAX_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/sim/task.h"
#include "src/swarm/inout.h"
#include "src/swarm/layout.h"
#include "src/swarm/timestamp.h"
#include "src/swarm/worker.h"

namespace swarm {

struct [[nodiscard]] WriteReadOutcome {
  bool ok = false;  // A majority acknowledged the write.
  // ts-max across the quorum EXCLUDING the write itself — the `m` that
  // Safe-Guess compares against its guess (Algorithm 2 line 7).
  Meta m;
  // Per-replica word this write installed (empty where it lost or was not
  // attempted); needed for the background VERIFIED promotion.
  std::array<Meta, kMaxReplicas> installed{};
  // Some replica NACKed kMovedReplica: the object's extents were migrated
  // away and the caller must re-locate through the index.
  bool moved = false;
  // Whether the write may have taken effect at ANY replica: an install, a
  // kNodeFailed completion (applied-but-unacked), or a straggler still in
  // flight. Only when this is false is a failed write provably a no-op —
  // the gate for safely re-executing it against a replacement layout.
  bool effect_possible = false;
  int rtts = 0;
};

struct [[nodiscard]] WriteOutcome {
  bool ok = false;  // A majority acknowledged the write.
  int rtts = 0;
};

struct [[nodiscard]] ReadOutcome {
  bool ok = false;        // A majority answered.
  Meta m;                 // Global ts-max (full word as seen at some replica).
  bool value_ok = false;  // Bytes for `m` were resolved (meaningless for empty/tombstone).
  bool used_inplace = false;
  bool moved = false;     // kMovedReplica seen: re-locate via the index.
  sim::Bytes value;
  std::array<Meta, kMaxReplicas> node_words{};  // Per-replica local max.
  std::array<bool, kMaxReplicas> node_ok{};
  int rtts = 0;
};

class QuorumMax {
 public:
  // The register of `cache`'s layout, with its writer's slot-cache words.
  // Each per-replica task takes a copy of the handle: stragglers may update
  // the words, and read the layout's records, after the caller's op is gone.
  QuorumMax(Worker* worker, SlotCache cache) : worker_(worker), cache_(std::move(cache)) {}

  // Safe-Guess's combined fast-path phase (Algorithm 2 line 6): per replica,
  // pipeline the In-n-Out max-write of `w` and a read of the metadata array
  // in the same roundtrip; wait for a majority.
  sim::Task<WriteReadOutcome> WriteAndRead(Meta w, std::span<const uint8_t> value);

  // Reliable max-register read. If `strong`, performs the write-back step
  // (inner_write) whenever fewer than a majority of replicas already hold the
  // max, and resolves the max's bytes (in-place fast path, else out-of-place
  // chase). A weak read skips write-back and byte resolution.
  sim::Task<ReadOutcome> ReadQuorum(bool strong);

  // Direct VERIFIED quorum write (Safe-Guess slow path, §5.3.2 deletes, and
  // quorum repair): one roundtrip to a majority when caches are fresh.
  sim::Task<WriteOutcome> WriteVerified(Meta w, std::span<const uint8_t> value);

  // Background promotion of a completed guessed write to VERIFIED (Algorithm
  // 2 line 8): flips the installed words and refreshes in-place data at the
  // designated replica. Fire-and-forget, so it outlives its op: each flip
  // holds its own share of `pin`'s layout. When the promoter owns the words
  // (a writer promoting its own write), `writer` is its handle, so the slot
  // caches track the flipped words and the next write's CAS stays 1-RT; a
  // reader passes a null handle.
  static sim::Task<void> Promote(Worker* worker, LayoutPin pin,
                                 std::array<Meta, kMaxReplicas> installed, sim::Bytes value,
                                 SlotCache writer);

 private:
  // Single attempts behind the public ops. Each public op runs its attempt
  // through Worker::RetryFenced: an attempt that failed while a QP is
  // revoked re-runs after an epoch pull, since a stale-epoch rejection says
  // nothing about object state and must never surface as unavailability
  // without a re-validated retry. An attempt only reads and max-writes (its
  // own word, or the max it read), so a rerun is safe whatever the failed
  // attempt did.
  sim::Task<WriteReadOutcome> WriteAndReadOnce(Meta w, std::span<const uint8_t> value);
  sim::Task<ReadOutcome> ReadQuorumOnce(bool strong);
  sim::Task<WriteOutcome> WriteVerifiedOnce(Meta w, std::span<const uint8_t> value);

  Worker* worker_;
  SlotCache cache_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_QUORUM_MAX_H_
