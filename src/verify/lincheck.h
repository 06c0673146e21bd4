// Linearizability checking for register histories, with no bound on history
// length.
//
// A history is a collection of operations (reads and writes on registers
// identified by `key`) with invocation/response timestamps from the
// simulator's virtual clock. The checker decides whether a linearization
// exists that is consistent with register semantics: every read returns the
// latest linearized write's value (or 0, the initial/empty value, if none),
// every completed op takes effect exactly once between its invocation and
// response, and every PENDING op — one whose response was never recorded
// because the client observed a timeout, an unavailable quorum, or crashed
// mid-call — takes effect at most once, anywhere after its invocation.
//
// One engine decides: a Wing&Gong-style just-in-time DFS (linearize any op
// whose invocation precedes every unlinearized op's response, apply register
// semantics, memoize visited states, backtrack on dead ends) made tractable
// for multi-thousand-op chaos histories by three reductions applied first:
//
//  * P-compositionality (Herlihy&Wing locality / Lowe): the history is
//    partitioned by `key` and each cell is checked independently — a
//    5,000-op soak over 64 keys decomposes into ~80-op cells.
//  * Pending-op closure: pending reads constrain nothing and are dropped;
//    a pending write whose value no completed read ever returned can only
//    overwrite state, never explain anything, and is dropped too; a pending
//    write of a uniquely-written nonzero value that WAS read must linearize
//    before the first read that returned it, so its unbounded window is
//    capped at that read's response. Observed pending writes of DUPLICATE or
//    ZERO values (removes) carry no such proof; they are first tried with an
//    OPTIMISTIC cap at the next completed overwrite's response — capping a
//    pending op only restricts where it may linearize, so an acceptance
//    under the cap is a real linearization, while a rejection falls back to
//    an exact re-run with the cap removed. Without the cap a remove-heavy
//    single-key soak degenerates into one giant window.
//  * Time-window partitioning: within a cell, the history is cut at
//    quiescent points (instants no op spans). Windows chain through the set
//    of register values reachable at each cut, so concurrent tails with
//    ambiguous outcomes stay exact.
//
// Scaling to 10^5-op histories (see src/verify/README.md for the design
// note) the DFS itself is frontier-driven and its memo is persistent:
//
//  * Enabling rule in O(log n): ops are kept in a doubly-linked frontier
//    list ordered by invocation time with a min-deadline segment tree over
//    the unlinearized set. Candidates are scanned in invocation order and
//    the scan STOPS at the first op invoked after the enabling horizon
//    (the tree root), instead of rescanning all n ops per DFS node.
//  * Persistent bitset memo: the (linearized-set, register value) states
//    are stored as arrays of refcounted 64-byte chunks (FramePool slabs)
//    shared copy-on-write between the DFS cursor and every memoized state.
//    Sibling states share all chunks except the one they differ in, so a
//    memoized state costs O(1) chunks instead of an O(n/64)-word copy.
//
// On failure, CheckReport() shrinks the failing cell to a minimal
// non-linearizable window: the shortest truncation of the cell (later ops
// dropped, in-flight ops re-marked pending) that is already rejected,
// reported as op ids + time bounds + the op whose completion broke it.
// Rejection is monotone in the truncation cut (each truncation is exactly
// the history an observer records at that instant), so the minimizer
// binary-searches the completions — O(log n) truncation re-checks even for
// a 10^5-op window (stats.minimize_probes counts them).
//
// How it is checked (tests/lincheck_test.cc): a definition-level oracle, a
// memo-free search sharing only HistoryOp with this file, must match Check
// and CheckReport on small random histories and confirm CheckReport's window
// is minimal; medium histories whose verdict is known by construction must
// be accepted, and rejected once one read is made provably stale.
//
// Values are plain uint64 (0 = the initial/empty value). Writes should use
// distinct values for the strongest discrimination; duplicates are handled
// soundly but weaken both discrimination and the reductions above.

#ifndef SWARM_SRC_VERIFY_LINCHECK_H_
#define SWARM_SRC_VERIFY_LINCHECK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace swarm::verify {

struct HistoryOp {
  bool is_write = false;
  uint64_t value = 0;  // Written value, or value returned by the read.
  sim::Time invoked = 0;
  sim::Time responded = 0;
  // No response recorded: possibly applied anywhere after `invoked`, or
  // never. `responded` is ignored for pending ops.
  bool pending = false;
  // P-compositionality cell. Ops on different keys are independent
  // registers; single-register histories leave this 0.
  uint64_t key = 0;
};

struct CheckStats {
  uint64_t cells = 0;          // Per-key cells checked.
  uint64_t windows = 0;        // Time windows checked across all cells.
  uint64_t states = 0;         // Memoized DFS states explored.
  uint64_t max_window_ops = 0; // Largest window handed to the DFS.
  uint64_t fallback_cells = 0; // Cells re-checked exactly after the
                               // optimistic pending-remove cap rejected.
  uint64_t minimize_probes = 0; // Truncation re-checks run by the failure
                                // minimizer (binary search: O(log n)).
};

// Verdict plus, on failure, the minimal non-linearizable window.
struct CheckResult {
  bool linearizable = true;
  CheckStats stats;

  // Failure report (meaningful only when !linearizable).
  uint64_t key = 0;              // Failing cell.
  size_t culprit = SIZE_MAX;     // Op id whose completion makes the window fail.
  std::vector<size_t> window_ops;  // Ids (indices into the checked vector) of
                                   // the minimal failing window's ops.
  sim::Time window_begin = 0;
  sim::Time window_end = 0;

  // Human-readable report; `ops` must be the vector that was checked.
  std::string Describe(const std::vector<HistoryOp>& ops) const;
};

class LinearizabilityChecker {
 public:
  // True iff the history has a linearization consistent with register
  // semantics. Unbounded: partitions by key, prunes/caps pending ops, splits
  // at quiescent points, then runs the WGL DFS per window.
  static bool Check(const std::vector<HistoryOp>& ops);

  // Same decision procedure, plus stats and a minimal failing window on
  // rejection.
  static CheckResult CheckReport(const std::vector<HistoryOp>& ops);
};

}  // namespace swarm::verify

#endif  // SWARM_SRC_VERIFY_LINCHECK_H_
