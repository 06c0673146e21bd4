// DM-ABD baseline (§7, "Baselines"): a disaggregated key-value register
// replicated with the classic ABD protocol (Algorithm 1) using pure
// out-of-place updates — the "good engineering solution using known
// techniques" SWARM is compared against.
//
// Roundtrip structure (Table 2):
//  * update: 2 RTs — {read metadata for a fresh timestamp ∥ write the value
//    out-of-place} then CAS the metadata pointer at a majority.
//  * get: 2 RTs — read metadata at a majority, then chase the out-of-place
//    pointer (+1 RT write-back when the quorum disagrees).
//
// Out-of-place buffers are frames (src/swarm/layout.h) whose head hashes the
// value with the replica's metadata address: self-validating, because unlike
// In-n-Out the buffer is written before its metadata word exists. Every
// install (an update's phase 2, a tombstone, a write-back, a repair copy) is
// In-n-Out's CasMax (src/swarm/inout.h): Algorithm 7's loop with §4.3's
// recycling rule. All writers share one metadata slot per replica, so CAS
// retries pile up under contention (§7.8) — DM-ABD lacks §4.4's per-writer
// buffer array. Replica order, doorbells and escalation are the quorum
// engine's (src/swarm/quorum.h), and the §5.4 rerun of a fenced attempt is
// Worker::RetryFenced, both shared with SWARM's register.

#ifndef SWARM_SRC_SWARM_ABD_H_
#define SWARM_SRC_SWARM_ABD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/sim/task.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/safe_guess.h"
#include "src/swarm/worker.h"

namespace swarm {

// One ABD-replicated object bound to a worker: `cache`'s layout, which is
// the same ObjectLayout as SWARM objects', with meta_slots = 1 and no
// in-place region.
class AbdObject {
 public:
  AbdObject(Worker* worker, SlotCache cache) : worker_(worker), cache_(std::move(cache)) {}

  sim::Task<SgWriteResult> Write(std::span<const uint8_t> value);
  sim::Task<SgWriteResult> Delete();
  sim::Task<SgReadResult> Read();

  // Quorum-sourced replica copy (src/repair/quorum_copy.h): harvests this
  // (source) layout's authoritative state from its surviving quorum and
  // CAS-maxes it into `dst`'s replica `target` — the exact observed word for
  // tombstones, a freshly written out-of-place image for values. Crash repair
  // passes dst == this layout (the target's node must be repair-excluded on
  // the calling worker); live migration passes the replacement layout, and
  // the caller's worker must ride the repair channel (the vacated source
  // slot is region-fenced during the harvest). The image hash is salted with
  // the destination's metadata address, so the installed buffer
  // self-validates under `dst`. Returns false when no surviving quorum
  // answered or the value bytes could not be resolved (caller retries).
  sim::Task<bool> CopyReplicaTo(LayoutPin dst, int target);

 private:
  // Single attempts; Write and Delete re-run theirs through
  // Worker::RetryFenced when fenced verbs failed them.
  sim::Task<SgWriteResult> WriteAttempt(std::span<const uint8_t> value, bool* retry_safe);
  sim::Task<SgWriteResult> DeleteAttempt();

  Worker* worker_;
  SlotCache cache_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_ABD_H_
