// Quorum-sourced replica copy: the shared core of crash-repair and live
// migration.
//
// Both flows do the same thing — read an object's authoritative state from a
// surviving quorum and install it, exact words preserved, into ONE replica
// slot — and differ only in where that slot lives. Crash repair rebuilds a
// wiped replica of the SAME layout (the rejoining node is quorum-excluded,
// so the harvest can never read it). Migration installs into a replica of a
// REPLACEMENT layout on a different node while the source layout keeps
// serving; there the source replica being vacated is region-fenced, and the
// harvest runs over the repair channel, which passes both fences.
//
// The copy moves three kinds of state, all of which must survive the slot
// move or crash:
//   * the metadata word — tombstones verbatim (deleted objects must not
//     resurrect), GUESSED flags preserved (an unarbitrated write stays
//     unarbitrated),
//   * the value bytes (in-place and/or a fresh out-of-place buffer on the
//     destination, per the destination layout),
//   * the timestamp-lock array — a lock majority that included the vacated
//     slot must not silently dissolve, so every readable source replica is
//     merged, not just a majority.

#ifndef SWARM_SRC_REPAIR_QUORUM_COPY_H_
#define SWARM_SRC_REPAIR_QUORUM_COPY_H_

#include <cstdint>
#include <memory>

#include "src/sim/task.h"
#include "src/swarm/layout.h"
#include "src/swarm/worker.h"

namespace swarm::repair {

// The register protocol an index-mapped layout is replicated with. The two
// share ObjectLayout but differ in their out-of-place image format and lock
// usage, so the copy routine must fit the protocol.
enum class LayoutProtocol : uint8_t {
  kSafeGuess,  // In-n-Out images + timestamp-lock state (SWARM-KV).
  kAbd,        // Self-validating ABD images, no locks (DM-ABD).
};

// Merge rule for restoring a timestamp-lock word from several copies: lock
// words only ever grow, so the higher counter wins; on a counter tie between
// modes, prefer READ — it blocks the writer's re-execution, i.e. the guessed
// write stands, which is the direction a reader that already committed the
// guess requires. (READ mode has the lower raw encoding at equal counters.)
uint64_t MergeTslWord(uint64_t a, uint64_t b);

// Reads the timestamp-lock arrays from every readable replica of `src`,
// merges them word-wise, and installs the merged array into `dst`'s replica
// `target`. Quorum-excluded source nodes are skipped (crash repair's wiped
// node); any OTHER unreadable source replica fails the copy — lock state may
// live at a single survivor.
sim::Task<bool> CopyLocks(Worker* worker, const ObjectLayout* src, const ObjectLayout* dst,
                          int target);

// Harvests the authoritative Safe-Guess state from `src`'s surviving quorum
// (ABD-style strong read: the max is write-back-stabilized at the survivors
// before it is trusted) and installs it — exact metadata word, value bytes,
// and merged lock state — into `dst`'s replica `target`. Pass dst == src for
// crash repair; a distinct layout for migration. The skipped-tombstone canary
// (fabric::CanaryKnobs::skip_tombstone_repair) is planted on crash repair's
// same-layout copy only, so migration copies stay exact.
sim::Task<bool> CopySafeGuessReplica(Worker* worker, LayoutPin src, const ObjectLayout* dst,
                                     int target);

// The one protocol switch of crash repair and live migration: copies `src`'s
// authoritative state into `dst`'s replica `target` with the routine that
// fits `protocol` — CopySafeGuessReplica, or AbdObject::CopyReplicaTo.
sim::Task<bool> CopyReplica(LayoutProtocol protocol, Worker* worker, LayoutPin src,
                            const ObjectLayout* dst, int target);

}  // namespace swarm::repair

#endif  // SWARM_SRC_REPAIR_QUORUM_COPY_H_
