// The ONE sanctioned way to drop a [[nodiscard]] status on the floor.
//
// Every status-bearing type in this tree (fabric::Status / OpResult,
// kv::KvStatus / KvResult, swarm's per-protocol results and QuorumVerdict,
// repair::RepairOutcome / MigrateStatus) is [[nodiscard]]: the chaos engine's
// headline catches — FUSEE's fire-and-forget backup index-slot clear (PR 6,
// seed 12115), the swallowed commit-critical phase-3 statuses (PR 2) — were
// all silently dropped statuses, so the compiler now refuses the silent drop.
//
// When a drop IS the intended semantics (a best-effort cache prefetch, a
// canary deliberately reproducing a bug, a fire-and-forget hint whose failure
// the protocol tolerates by design), route it through DiscardStatus() with a
// justification comment at the call site. `git grep DiscardStatus` then
// enumerates every intentional drop in the tree; the static-analysis suite
// (tools/lint/) treats DiscardStatus as the only recognised sink and flags
// `(void)`-casts of status types as evasion.

#ifndef SWARM_SRC_UTIL_DISCARD_H_
#define SWARM_SRC_UTIL_DISCARD_H_

namespace swarm {

// Consumes and ignores a status-bearing value, on purpose. The empty body
// compiles away entirely; the call exists for the reader and for grep.
template <typename T>
constexpr void DiscardStatus(T&& /*status*/) noexcept {}

}  // namespace swarm

#endif  // SWARM_SRC_UTIL_DISCARD_H_
