// Memory recycling coordination (§4.5, §5.4) — an extension the paper
// describes but its artifact does not implement ("We did not implement
// memory recycling").
//
// Out-of-place buffers can only be reused once no reader can still chase a
// stale pointer into them. The paper's design: before recycling, a client
// asks all readers to stop accessing the to-be-recycled buffers; readers
// acknowledge; clients that fail to respond are suspected by the membership
// service (uKharon), which instructs memory nodes to disconnect them so they
// can no longer access freed memory. Recycling therefore relies on partial
// synchrony, while the read/write protocol itself stays wait-free — the
// trade-off §4.5 argues for.
//
// This module implements that protocol as an epoch-based grace period:
//   * every participant (client) keeps a published epoch: "all my in-flight
//     reads started at or after this epoch",
//   * a recycling round advances the global epoch and collects
//     acknowledgements from all live participants,
//   * participants that do not acknowledge within their lease are suspected
//     and fenced via the membership service; the round then completes
//     without them (they can never touch memory again),
//   * buffers freed before the last fully-acknowledged epoch are safe to
//     reuse: SafeReclaimBefore() returns that horizon.
//
// OopPool's fixed time quarantine (layout.h) is the conservative stand-in
// used by the data path; the Recycler provides the protocol that justifies
// and bounds it.

#ifndef SWARM_SRC_SWARM_RECYCLER_H_
#define SWARM_SRC_SWARM_RECYCLER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/membership/membership.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace swarm {

// A client's side of the recycling protocol. An UNCOUPLED participant
// models the drain as a bounded virtual delay (ack_delay) — fine for pure
// protocol tests, but it lets an ack overtake the client's own still-running
// operation, so the published horizon can pass memory a live op is chasing
// (the use-count gate in IndexService::GcRetired was papering over exactly
// that). CoupleDrain wires the participant to the client's real op stream:
// the ack then completes only after every operation in flight at the drain's
// start has responded, which is the §4.5 contract.
class RecyclerParticipant {
 public:
  RecyclerParticipant(sim::Simulator* sim, uint32_t client_id, sim::Time ack_delay)
      : sim_(sim), client_id_(client_id), ack_delay_(ack_delay) {}

  uint32_t client_id() const { return client_id_; }
  uint64_t published_epoch() const { return published_epoch_; }
  bool crashed() const { return crashed_; }

  // Simulates a client crash: it will never acknowledge again.
  void Crash() { crashed_ = true; }

  // Couples epoch acks to a real op stream (e.g. kv::TrackedKvSession):
  // `barrier_fn` returns the next op sequence number, `oldest_fn` the oldest
  // sequence still in flight (== barrier when idle). An ack captures the
  // barrier when the drain starts and completes only once every older op has
  // responded; ops that start after the barrier never delay it, so a busy
  // client still acks in bounded time.
  void CoupleDrain(std::function<uint64_t()> barrier_fn, std::function<uint64_t()> oldest_fn) {
    barrier_fn_ = std::move(barrier_fn);
    oldest_fn_ = std::move(oldest_fn);
  }

  // Called (over the network) by the coordinator: drain reads older than
  // `epoch`, then publish.
  sim::Task<void> AckEpoch(uint64_t epoch, sim::Counter acks) {
    if (crashed_) {
      co_return;  // Never answers; the lease will expire.
    }
    co_await sim_->Delay(ack_delay_);
    if (barrier_fn_) {
      const uint64_t barrier = barrier_fn_();
      while (oldest_fn_() < barrier) {
        co_await sim_->Delay(kDrainPoll);
      }
    }
    if (epoch > published_epoch_) {
      published_epoch_ = epoch;
    }
    acks.Add(1);
  }

 private:
  // How often a coupled drain re-checks for older ops still in flight.
  static constexpr sim::Time kDrainPoll = 2000;

  sim::Simulator* sim_;
  uint32_t client_id_;
  sim::Time ack_delay_;
  std::function<uint64_t()> barrier_fn_;
  std::function<uint64_t()> oldest_fn_;
  uint64_t published_epoch_ = 0;
  bool crashed_ = false;
};

class Recycler {
 public:
  Recycler(sim::Simulator* sim, membership::MembershipService* membership)
      : sim_(sim), membership_(membership) {}

  void Register(RecyclerParticipant* participant) {
    membership_->RegisterClient(participant->client_id());
    participants_.push_back(participant);
  }

  uint64_t current_epoch() const { return epoch_; }

  // Buffers freed in epochs strictly below this are safe to reuse: every
  // live client acknowledged a later epoch, and everyone else is fenced.
  uint64_t SafeReclaimBefore() const { return safe_before_; }
  uint64_t fenced_clients() const { return fenced_; }

  // Crash-recover repair gate (repair::RepairService::InFlight): a repair
  // coordinator chases survivors' out-of-place pointers exactly like a
  // reader, but holds no lease and publishes no epoch — so the safe horizon
  // must not advance past a repair that is still in flight, or the buffers
  // it is reading could be declared recyclable under it.
  void set_repair_gate(std::function<bool()> gate) { repair_gate_ = std::move(gate); }

  // One recycling round (§5.4: run periodically in the background): advance
  // the epoch, gather acknowledgements, fence stragglers via membership.
  sim::Task<void> RunRound() {
    const uint64_t target = ++epoch_;
    sim::Counter acks(sim_);
    std::vector<RecyclerParticipant*> asked;
    for (RecyclerParticipant* p : participants_) {
      if (membership_->IsSuspected(p->client_id())) {
        // Suspected at round start: fence it STICKILY before this round can
        // move the horizon past it. Merely skipping would let a late lease
        // renewal resurrect a client that may still hold pre-epoch reads
        // into memory we are about to declare recyclable.
        if (!membership_->IsFenced(p->client_id())) {
          membership_->Fence(p->client_id());
          ++fenced_;
        }
        continue;
      }
      asked.push_back(p);
      sim::Spawn(AskOne(p, target, acks));
    }
    // Wait for all live participants, but no longer than the lease grace: a
    // client that cannot answer within it is expected to lose its lease.
    (void)co_await acks.WaitFor(static_cast<int>(asked.size()), lease_grace_);
    // SAFETY: the horizon may only move past a participant that either
    // acknowledged `target` or is fenced. A client that crashed mid-epoch
    // while holding a still-fresh lease may have reads from before the epoch
    // bump in flight, and memory nodes have not disconnected it yet — so
    // keep waiting for its lease to run out instead of recycling under it.
    for (;;) {
      bool blocked = false;
      for (RecyclerParticipant* p : asked) {
        if (p->published_epoch() < target && !membership_->IsSuspected(p->client_id())) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        break;
      }
      co_await sim_->Delay(suspect_poll_);
    }
    for (RecyclerParticipant* p : asked) {
      if (p->published_epoch() < target && membership_->IsSuspected(p->client_id()) &&
          !membership_->IsFenced(p->client_id())) {
        // The straggler's lease expired while we waited. Fence it STICKILY
        // before moving the horizon: once buffers it might reference are
        // recyclable, a late lease renewal must not resurrect it — the
        // membership service has already told memory nodes to disconnect it.
        // (The IsFenced guard keeps the count exact when churn overlaps
        // rounds.)
        membership_->Fence(p->client_id());
        ++fenced_;
      }
    }
    // An in-flight node repair reads like a client but acks no epochs: hold
    // the horizon until it completes (see set_repair_gate).
    while (repair_gate_ && repair_gate_()) {
      co_await sim_->Delay(suspect_poll_);
    }
    // Everyone still in the system has drained reads older than `target`.
    // max(): rounds may overlap (chaos fires them concurrently) and a
    // slow round must never regress the published horizon.
    safe_before_ = std::max(safe_before_, target);
  }

  // Keeps live participants' leases fresh (clients heartbeat; crashed ones
  // silently stop).
  void HeartbeatAll() {
    for (RecyclerParticipant* p : participants_) {
      if (!p->crashed()) {
        membership_->RenewLease(p->client_id());
      }
    }
  }

 private:
  // The ack RPC's network delay.
  static constexpr sim::Time kRpcDelay = 2 * 680;

  sim::Task<void> AskOne(RecyclerParticipant* p, uint64_t epoch, sim::Counter acks) {
    co_await sim_->Delay(kRpcDelay);  // Request over the network.
    co_await p->AckEpoch(epoch, acks);
  }

  sim::Simulator* sim_;
  membership::MembershipService* membership_;
  std::function<bool()> repair_gate_;
  sim::Time lease_grace_ = 2 * sim::kMillisecond;
  // How often a round re-checks whether a non-acking straggler has finally
  // lost its lease (bounded staleness of the fencing decision).
  sim::Time suspect_poll_ = 100 * sim::kMicrosecond;
  uint64_t epoch_ = 0;
  uint64_t safe_before_ = 0;
  uint64_t fenced_ = 0;
  std::vector<RecyclerParticipant*> participants_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_RECYCLER_H_
