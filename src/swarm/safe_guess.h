// Safe-Guess (§3, Algorithms 2/3/10): SWARM's wait-free, linearizable
// replicated register with single-roundtrip reads and writes in the common
// case.
//
// Writes guess a fresh timestamp from the loosely synchronized clock and
// install it speculatively while reading the register in the same roundtrip;
// if the guess was provably fresh the write is done (and a background task
// promotes it to VERIFIED). Otherwise the writer arbitrates with potential
// readers through its timestamp lock: if it locks the guessed timestamp in
// WRITE mode it may safely re-execute with a fresh timestamp; if it fails,
// some reader committed to the guessed value and the write stands.
//
// Reads return immediately on VERIFIED values; GUESSED values require either
// a second confirming read plus a READ-mode lock, or — the wait-free escape
// hatch — observing two different tuples from the same writer.

#ifndef SWARM_SRC_SWARM_SAFE_GUESS_H_
#define SWARM_SRC_SWARM_SAFE_GUESS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/sim/task.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/timestamp.h"
#include "src/swarm/worker.h"

namespace swarm {

enum class [[nodiscard]] SgStatus : uint8_t {
  kOk = 0,
  kNotFound,    // Register never written (empty replicas, §5.3.1).
  kDeleted,     // Register carries the delete tombstone (§5.3.2).
  kUnavailable, // No live majority of replicas.
  // The object's extents were migrated away (kMovedReplica NACKs) and the op
  // provably had NO effect here: the caller must re-locate the object
  // through the index and may safely re-execute against the new layout. An
  // op that MIGHT have taken effect reports kUnavailable instead — the
  // migration flip harvests the source's final state, so a possibly-applied
  // write may be committed and must not be blindly re-executed.
  kMoved,
};

struct [[nodiscard]] SgWriteResult {
  SgStatus status = SgStatus::kUnavailable;
  // Guess proven fresh: no lock, no re-execution. Not one roundtrip: a CAS
  // retry inside the write-and-read phase adds roundtrips (see rtts).
  bool fast_path = false;
  bool lock_lost = false;  // Slow path resolved by a reader committing our guess.
  int rtts = 0;
};

struct [[nodiscard]] SgReadResult {
  SgStatus status = SgStatus::kUnavailable;
  sim::Bytes value;
  bool fast_path = false;  // Returned a VERIFIED tuple from the first read.
  bool used_inplace = false;
  int rtts = 0;
  int iterations = 0;
};

// One Safe-Guess-replicated object, bound to a worker. Cheap to construct.
class SafeGuessObject {
 public:
  // The register of `cache`'s layout, written with its writer's words.
  SafeGuessObject(Worker* worker, SlotCache cache) : worker_(worker), cache_(std::move(cache)) {}

  // Algorithm 2. Empty `value` is a valid payload.
  sim::Task<SgWriteResult> Write(std::span<const uint8_t> value);

  // §5.3.2: writes the maximal timestamp so the object can never be
  // overwritten and all future reads observe the deletion.
  sim::Task<SgWriteResult> Delete();

  // Algorithm 3.
  sim::Task<SgReadResult> Read();

 private:
  Worker* worker_;
  SlotCache cache_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_SAFE_GUESS_H_
