// Membership service (a uKharon [22] stand-in).
//
// The paper relies on uKharon, a microsecond-scale membership manager, for
// two things: letting clients learn about memory-node failures without
// waiting for per-operation timeouts, and fencing suspected clients so that
// out-of-place buffers can be recycled safely (§4.5, §5.4).
//
// We model it as a centralized observer with a configurable detection delay:
// when a node crashes, every subscribed client's known-failed set is updated
// `detection_delay` later; clients that queried earlier learn through their
// own op timeouts, exactly as in the paper's failover experiment (§7.7).
// Client leases support the recycler extension: a client that stops renewing
// its lease is suspected and (in the model) fenced from the fabric.
//
// --- The membership epoch (§5.4 per-client QP revocation) -----------------
//
// The service keeps a monotonically increasing EPOCH that advances on every
// repair-relevant transition: a node crash, a restart-for-repair
// (BeginRepair) and a readmission (CompleteRepair). Each advance is pushed
// to all memory nodes IMMEDIATELY (the membership service instructs the
// nodes, as uKharon instructs them to disconnect suspected clients) and to
// subscribed clients after the detection delay.
//
// Clients stamp every verb with their cached epoch (Worker → Qp →
// ClientEpoch); a node rejects any verb stamped with an epoch older than its
// fence epoch, completing it as kStaleEpoch — a completion that proves
// NOTHING about object state. The rejection also revokes the issuing QP
// client-side: further verbs on it fail fast until the client re-validates
// its epoch with the service (ValidateEpoch, the pull path that works even
// for a client whose push notifications never arrive) and re-arms its QPs
// (Worker::RefreshEpoch).
//
// Why this closes the crash-repair residual window: the repair fence
// (set_repair_fenced) only rejects verbs that EXECUTE while the node is
// mid-repair. A verb already in flight across the WHOLE cycle — issued
// before the crash, executing after readmission, possibly at a SURVIVOR
// whose state the repair already harvested — passes that fence and would be
// trusted (e.g. a TryLock CAS completing a lock majority the lock
// restoration could not see). With epoch fencing, any verb stamped before
// the crash is rejected everywhere from the crash instant on, so no
// completion that straddles a repair can ever count toward a quorum.
//
// The chaos canary gallery reproduces the pre-fix behavior with
// fabric::CanaryKnobs::unenforced_epoch_fence: the epoch still advances and
// reaches the nodes, but they stop enforcing it, so the suites can
// demonstrate they catch the violation.
//
// --- Elastic membership: the node lifecycle state model ------------------
//
// A memory node moves through five lifecycle states:
//
//     join ──> syncing ──> serving ──> draining ──> retired
//
//   * JOIN     (AdmitNode): the node is powered on and reachable — clients
//     can open queue pairs to it — but no object layout references it and
//     placement must not choose it. It holds no data.
//   * SYNCING  (the MigrationService rebalance): extents are being copied
//     onto the node from surviving quorums. Each extent becomes visible to
//     clients only through its atomic ownership flip (index generation bump
//     + source-region retirement); until a flip commits, the extent's reads
//     and writes keep going to the old owner. The node needs NO quorum
//     exclusion in this state: nothing references it until a flip, and a
//     flipped layout is fully installed.
//   * SERVING  (CompleteJoin): placement includes the node; it is a normal
//     replica holder. All pre-existing nodes start here.
//   * DRAINING (BeginDrain): placement excludes the node for NEW objects and
//     the MigrationService moves its extents away one by one, but the node
//     keeps serving every extent it still owns — a drain under full traffic
//     is invisible to clients except for per-extent relocation NACKs
//     (kMovedReplica) at flip instants.
//   * RETIRED  (Decommission): all extents are gone; the node is switched
//     off. Retirement is crash-like for the fabric (verbs time out) and
//     advances the membership epoch so stragglers bounce, but unlike a
//     crash nothing needs repair — the node owns nothing. Retired nodes are
//     never crash/restart candidates for the chaos engine and never rejoin;
//     re-admission of hardware is modeled as a fresh AdmitNode.
//
// The `repairing` flag stays ORTHOGONAL to the lifecycle: a serving node
// that crash-recovers is repaired in place (src/repair/repair.h) whatever
// its state, and migrate-vs-repair arbitration is the MigrationService's
// job, not the membership's.

#ifndef SWARM_SRC_MEMBERSHIP_MEMBERSHIP_H_
#define SWARM_SRC_MEMBERSHIP_MEMBERSHIP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace swarm::membership {

// Lifecycle state of a memory node (see the header comment). The syncing
// phase is not a distinct state here: it is kJoining/kDraining WHILE the
// MigrationService has a plan in flight for the node.
enum class NodeState : uint8_t {
  kServing = 0,
  kJoining = 1,
  kDraining = 2,
  kRetired = 3,
};

class MembershipService {
 public:
  MembershipService(sim::Simulator* sim, fabric::Fabric* fabric,
                    sim::Time detection_delay = 50 * sim::kMicrosecond,
                    sim::Time lease_duration = 1 * sim::kMillisecond)
      : sim_(sim), fabric_(fabric), detection_delay_(detection_delay),
        lease_duration_(lease_duration),
        repairing_(std::make_shared<std::vector<bool>>(
            static_cast<size_t>(fabric->num_nodes()), false)),
        serving_(std::make_shared<std::vector<bool>>(
            static_cast<size_t>(fabric->num_nodes()), true)),
        states_(static_cast<size_t>(fabric->num_nodes()), NodeState::kServing) {}

  // --- Memory-node monitoring ---

  // Registers a client's known-failed vector for push notification.
  void Subscribe(std::shared_ptr<std::vector<bool>> known_failed) {
    subscribers_.push_back(std::move(known_failed));
  }

  // Registers a client's cached epoch for push notification: each
  // repair-relevant transition is pushed `detection_delay` later. A client
  // that is NOT subscribed (the chaos suites' "client that never learns")
  // only advances through the kStaleEpoch→ValidateEpoch pull path.
  void SubscribeEpoch(std::shared_ptr<fabric::ClientEpoch> epoch) {
    epoch_subscribers_.push_back(std::move(epoch));
  }

  // Crashes `node` on the fabric and notifies subscribers after the
  // detection delay. The overload with an explicit delay scripts a slow (or
  // fast) detection sweep for this one event — the chaos engine uses it to
  // model uKharon under load.
  void CrashNode(int node) { CrashNode(node, detection_delay_); }
  void CrashNode(int node, sim::Time detection_delay) {
    fabric_->Crash(node);
    AdvanceEpoch();  // In-flight verbs must not outlive the crash (§5.4).
    PushEpoch(detection_delay);
    NotifyFailed(node, true, detection_delay);
  }

  void RecoverNode(int node) { RecoverNode(node, detection_delay_); }
  void RecoverNode(int node, sim::Time detection_delay) {
    fabric_->Recover(node);
    NotifyFailed(node, false, detection_delay);
  }

  // Scripts the baseline detection delay for subsequent crash/recover
  // notifications (a chaos "detection sweep" slows or speeds the service).
  void set_detection_delay(sim::Time d) { detection_delay_ = d; }

  // --- Crash-recover repair lifecycle (src/repair/repair.h) ---
  //
  // A restarted memory node must not serve quorum operations until a repair
  // coordinator has rebuilt its replica slots from surviving quorums. The
  // per-node `repairing` flag is that gate: Workers share the vector and
  // quorum selection (src/swarm/) excludes flagged nodes entirely — they
  // neither receive protocol verbs nor count toward any majority. Only the
  // repair coordinator itself addresses a repairing node (directly, replica
  // by replica).

  // Restarts `node` with its allocation map preserved, marks it repairing,
  // and FENCES it: every verb except the repair coordinator's keeps failing
  // (an in-flight verb issued against the crashed node must not execute
  // against the wiped-but-alive memory). Subscribers are NOT notified — the
  // node stays in their known-failed sets until CompleteRepair.
  void BeginRepair(int node) {
    fabric_->RecoverPreservingLayout(node);
    fabric_->node(node).set_repair_fenced(true);
    (*repairing_)[static_cast<size_t>(node)] = true;
    AdvanceEpoch();  // Restart-for-repair is a repair-relevant transition.
    PushEpoch(detection_delay_);
  }

  // Readmits a repaired node: lifts the fence, clears the repairing flag
  // immediately and pushes the recovery notification after the detection
  // delay.
  void CompleteRepair(int node) {
    fabric_->node(node).set_repair_fenced(false);
    (*repairing_)[static_cast<size_t>(node)] = false;
    // Readmission advances the epoch BEFORE the fence lifts takes effect for
    // stale clients: a verb issued under the pre-repair view that lands on
    // the freshly restored replicas must bounce, not be trusted.
    AdvanceEpoch();
    PushEpoch(detection_delay_);
    NotifyFailed(node, false, detection_delay_);
  }

  // A repair that gave up (no surviving quorum within its retry budget)
  // leaves the node excluded — safe, merely unavailable — until a later
  // readmission triggers a re-repair (repair::RepairService dark-slot
  // bookkeeping).
  bool IsRepairing(int node) const {
    const auto idx = static_cast<size_t>(node);
    return idx < repairing_->size() && (*repairing_)[idx];
  }
  const std::shared_ptr<std::vector<bool>>& repairing() const { return repairing_; }

  // --- Elastic membership (node lifecycle; see the header comment) ---

  // Admits a brand-new memory node: hot-adds it on the fabric (bounded by
  // FabricConfig::max_nodes) in state kJoining — reachable, empty, excluded
  // from placement until CompleteJoin. Grows every per-node shared vector in
  // place so pre-existing clients see a consistent view. Returns the new
  // node id, or -1 if the fabric is at its lifetime bound.
  int AdmitNode() {
    const int id = fabric_->AddNode();
    if (id < 0) {
      return -1;
    }
    const auto n = static_cast<size_t>(id) + 1;
    repairing_->resize(n, false);
    serving_->resize(n, false);
    states_.resize(n, NodeState::kJoining);
    for (auto& s : subscribers_) {
      if (s->size() < n) {
        s->resize(n, false);
      }
    }
    return id;
  }

  // Joining → serving: the MigrationService finished installing the node's
  // share of extents; placement may now choose it for new objects.
  void CompleteJoin(int node) {
    SetState(node, NodeState::kServing, /*serving=*/true);
  }

  // Serving → draining: placement stops choosing the node, the
  // MigrationService starts moving its extents away. The node keeps serving
  // every extent it still owns.
  void BeginDrain(int node) {
    SetState(node, NodeState::kDraining, /*serving=*/false);
  }

  // Draining → retired: all extents are gone; switch the node off. Crash-like
  // for the fabric (a retired node answers nothing), epoch-bumped so verbs
  // still in flight toward it cannot be trusted anywhere — but nothing needs
  // repair, because a fully drained node owns nothing.
  void Decommission(int node) {
    SetState(node, NodeState::kRetired, /*serving=*/false);
    fabric_->Crash(node);
    AdvanceEpoch();
    PushEpoch(detection_delay_);
    NotifyFailed(node, true, detection_delay_);
  }

  NodeState State(int node) const {
    const auto idx = static_cast<size_t>(node);
    return idx < states_.size() ? states_[idx] : NodeState::kServing;
  }
  bool IsRetired(int node) const { return State(node) == NodeState::kRetired; }
  // Chaos crash/restart targeting: a retired node is switched off — crashing
  // it is meaningless and restarting it would resurrect a ghost.
  bool CrashEligible(int node) const { return !IsRetired(node); }

  // Placement filter, shared with the KV stores like `repairing()`: serving_
  // lists which nodes placement may choose. Object layouts created before a
  // membership change keep their nodes regardless — only the MigrationService
  // moves existing extents.
  const std::shared_ptr<std::vector<bool>>& serving() const { return serving_; }
  bool IsServing(int node) const {
    const auto idx = static_cast<size_t>(node);
    return idx < serving_->size() && (*serving_)[idx];
  }

  // An extent ownership flip is a repair-relevant transition (§5.4): verbs
  // stamped before the flip must not be trusted as evidence about the moved
  // extent. The MigrationService bumps the epoch at each flip instant.
  void NoteOwnershipFlip() {
    AdvanceEpoch();
    PushEpoch(detection_delay_);
  }

  // --- Membership epoch (see the header comment) ---

  uint64_t epoch() const { return epoch_; }

  // The pull path: a client that learned it is stale (kStaleEpoch)
  // re-validates its view. Modeled as instantaneous service state; the
  // caller (Worker::RefreshEpoch) pays the network roundtrip.
  uint64_t ValidateEpoch() const { return epoch_; }

  // --- Client leases (for the memory recycler, §4.5/§5.4) ---

  void RegisterClient(uint32_t client_id) {
    leases_[client_id] = sim_->Now() + lease_duration_;
  }

  void RenewLease(uint32_t client_id) {
    if (fenced_.count(client_id) != 0) {
      return;  // Disconnected: renewals can no longer reach the service.
    }
    auto it = leases_.find(client_id);
    if (it != leases_.end()) {
      it->second = sim_->Now() + lease_duration_;
    }
  }

  // A client whose lease expired (or who was fenced) is suspected; the
  // membership service would instruct memory nodes to disconnect it so it
  // can no longer access freed memory (§5.4).
  bool IsSuspected(uint32_t client_id) const {
    if (fenced_.count(client_id) != 0) {
      return true;
    }
    auto it = leases_.find(client_id);
    return it == leases_.end() || it->second < sim_->Now();
  }

  // Permanently disconnects a suspected client (§5.4: memory nodes reject
  // its accesses). Fencing is STICKY: once someone acted on the suspicion —
  // e.g. the recycler reused memory the client could still reference — a
  // late lease renewal must not resurrect it.
  void Fence(uint32_t client_id) { fenced_.insert(client_id); }
  bool IsFenced(uint32_t client_id) const { return fenced_.count(client_id) != 0; }

  // Scripted lease expiry: immediately suspects `client_id` as if its lease
  // had run out (chaos's "client appears dead to the membership service").
  // A later RenewLease resurrects it — unless it was fenced meanwhile —
  // modeling a network-partitioned client coming back.
  void ExpireLease(uint32_t client_id) {
    auto it = leases_.find(client_id);
    if (it != leases_.end()) {
      it->second = sim_->Now() - 1;
    }
  }

  bool HasRegisteredClients() const { return !leases_.empty(); }

  // Registered lease holders, sorted by id — a deterministic order for the
  // chaos engine's target picks (unordered_map iteration is not).
  std::vector<uint32_t> RegisteredClients() const {
    std::vector<uint32_t> ids;
    ids.reserve(leases_.size());
    for (const auto& [id, expiry] : leases_) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  sim::Time detection_delay() const { return detection_delay_; }

 private:
  void AdvanceEpoch() {
    ++epoch_;
    fabric_->SetFenceEpoch(epoch_);  // Nodes learn immediately (uKharon push).
  }

  void SetState(int node, NodeState state, bool serving) {
    const auto idx = static_cast<size_t>(node);
    if (idx >= states_.size()) {
      states_.resize(idx + 1, NodeState::kServing);
      serving_->resize(idx + 1, true);
    }
    states_[idx] = state;
    (*serving_)[idx] = serving;
  }

  // Pushes `node`'s failed/recovered bit to subscribed clients after the
  // detection delay, growing vectors that predate a hot-added node.
  void NotifyFailed(int node, bool failed, sim::Time detection_delay) {
    sim_->After(detection_delay, [this, node, failed] {
      const auto idx = static_cast<size_t>(node);
      for (auto& s : subscribers_) {
        if (s->size() <= idx) {
          s->resize(idx + 1, false);
        }
        (*s)[idx] = failed;
      }
    });
  }

  // Pushes the epoch-at-transition to subscribed clients after the detection
  // delay. max(): pushes may be delivered out of order when detection delays
  // differ per event, and a client's cached epoch must never regress.
  void PushEpoch(sim::Time detection_delay) {
    const uint64_t e = epoch_;
    sim_->After(detection_delay, [this, e] {
      for (auto& s : epoch_subscribers_) {
        s->value = std::max(s->value, e);
      }
    });
  }

  sim::Simulator* sim_;
  fabric::Fabric* fabric_;
  sim::Time detection_delay_;
  sim::Time lease_duration_;
  std::vector<std::shared_ptr<std::vector<bool>>> subscribers_;
  std::vector<std::shared_ptr<fabric::ClientEpoch>> epoch_subscribers_;
  std::unordered_map<uint32_t, sim::Time> leases_;
  std::unordered_set<uint32_t> fenced_;
  std::shared_ptr<std::vector<bool>> repairing_;
  std::shared_ptr<std::vector<bool>> serving_;
  std::vector<NodeState> states_;
  uint64_t epoch_ = 1;
};

}  // namespace swarm::membership

#endif  // SWARM_SRC_MEMBERSHIP_MEMBERSHIP_H_
