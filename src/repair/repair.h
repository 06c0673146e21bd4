// Crash-recover repair (the availability story §7.7 leaves implicit): when a
// failed memory node restarts, its DRAM contents are gone but the cluster's
// allocation map is not. The RepairService turns that restart into a correct
// crash-recover cycle:
//
//   1. restart  — MembershipService::BeginRepair brings the node back with
//                 its allocation map preserved and flags it `repairing`;
//                 Workers drop it from quorum selection entirely (it neither
//                 receives protocol verbs nor counts toward any majority),
//   2. repair   — a coordinator walks every replica slot the node hosts
//                 (index-guided), reads the authoritative state back from a
//                 surviving quorum — ABD-style read-repair with tombstone
//                 stabilization: the quorum max is re-installed at the
//                 survivors before it is trusted, and delete tombstones are
//                 restored verbatim so deleted objects cannot resurrect —
//                 and writes it into the rejoining node's slots,
//   3. readmit  — MembershipService::CompleteRepair clears the repairing
//                 flag and pushes the recovery notification.
//
// Correctness rests on quorum intersection: while the node is excluded,
// every committed write reaches a majority of the REMAINING replicas, so a
// post-readmission majority — which can include the repaired node — always
// intersects either the repair's source quorum or a post-exclusion write
// quorum. A repair that cannot find a surviving quorum within its retry
// budget gives up and leaves the node permanently excluded: reduced
// availability, never stale reads.
//
// The ChaosEngine drives the lifecycle via set_repair_fn (ChaosConfig::
// repair), and the Recycler's safe horizon waits for in-flight repairs
// (Recycler::set_repair_gate): a repair chases survivors' out-of-place
// pointers exactly like a reader, but is not a lease-holding participant.

#ifndef SWARM_SRC_REPAIR_REPAIR_H_
#define SWARM_SRC_REPAIR_REPAIR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/index/index_service.h"
#include "src/membership/membership.h"
#include "src/repair/quorum_copy.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/swarm/worker.h"

namespace swarm::repair {

struct [[nodiscard]] RepairOutcome {
  bool complete = false;       // Every slot restored (or nothing to restore).
  uint64_t slots_repaired = 0;
  uint64_t slots_failed = 0;   // Slots whose source quorum did not answer.
  // Slots the walk visited on the node — the repair's work metric:
  // O(slots-on-node), not O(store); the scale soak asserts the ratio stays
  // flat as the store grows. (Finding the slots is a host-side filter over
  // the whole index, which this counter does not measure.)
  uint64_t slots_walked = 0;
};

struct RepairConfig {
  // Repair rounds per node before giving up (the node then stays excluded).
  int max_rounds = 10;
  sim::Time round_retry_delay = 30 * sim::kMicrosecond;
};

// A store whose replica placement the repair coordinator can walk. RepairNode
// must be idempotent: the coordinator re-invokes it until `complete`.
class RepairableStore {
 public:
  virtual ~RepairableStore() = default;

  // Rebuilds every replica slot this store placed on `node`, reading from
  // surviving quorums through `worker` — whose repair-excluded set contains
  // `node`, so its quorum reads cannot touch the node being rebuilt.
  virtual sim::Task<RepairOutcome> RepairNode(int node, Worker* worker) = 0;

  // Lifecycle notifications around the whole repair of `node`.
  virtual void OnRepairBegin(int node) { (void)node; }
  // readmitted=false: the coordinator gave up; the node stays excluded.
  virtual void OnRepairComplete(int node, bool readmitted) {
    (void)node;
    (void)readmitted;
  }
};

// Repairs objects reachable through an IndexService (the SWARM-KV and DM-ABD
// layouts), told which register protocol the layouts carry.
class IndexRepairSource : public RepairableStore {
 public:
  IndexRepairSource(index::IndexService* index, LayoutProtocol protocol)
      : index_(index), protocol_(protocol) {}

  sim::Task<RepairOutcome> RepairNode(int node, Worker* worker) override;

 private:
  index::IndexService* index_;
  LayoutProtocol protocol_;
};

// The repair coordinator: one per cluster, owning a dedicated Worker for its
// verbs (the worker's repair-excluded set must be the membership service's
// `repairing` vector, so the coordinator's own quorum reads skip the node
// under repair).
class RepairService {
 public:
  RepairService(membership::MembershipService* membership, Worker* worker,
                RepairConfig config = {})
      : membership_(membership), worker_(worker), config_(config),
        resuming_(static_cast<size_t>(worker->fabric()->num_nodes()), false),
        lifecycle_gen_(static_cast<size_t>(worker->fabric()->num_nodes()), 0) {
    worker_->set_repair_excluded(membership_->repairing());
    worker_->MarkRepairChannel();  // Repair verbs pass the rejoin fence.
  }

  void RegisterStore(RepairableStore* store) { stores_.push_back(store); }

  // The full lifecycle for one restarted node: restart (allocation map
  // preserved, quorum-excluded) → repair every registered store → readmit.
  // Returns true when the node was readmitted, false when repair gave up
  // (the node stays excluded until a later readmission triggers a
  // re-repair — see the dark-slot bookkeeping below).
  sim::Task<bool> RecoverAndRepair(int node);

  // True while any node's repair is running — the Recycler's safe-horizon
  // gate (Recycler::set_repair_gate).
  bool InFlight() const { return in_flight_ > 0; }

  // --- Dark-slot bookkeeping -----------------------------------------------
  //
  // Two overlapping repairs can mutually wait: an object hosting BOTH
  // repairing nodes has no surviving quorum, so each repair's rounds keep
  // failing that slot while the other node is excluded. A repair that
  // exhausts its round budget gives up — safe, but previously PERMANENTLY
  // dark even when the blocker was transient (the other repair completed
  // right after our give-up, a drop burst cleared, ...). The service now
  // remembers every given-up node together with its residual failed-slot
  // count, and every successful readmission re-triggers those repairs: the
  // world just changed in exactly the way that can unblock them. A resumed
  // repair skips the restart (the node is still fenced and excluded, its
  // partially repaired slots intact — RepairNode is idempotent) and runs the
  // round loop again.

  // Given-up nodes (node → slots still failing at give-up). Empty when no
  // node is dark.
  const std::map<int, uint64_t>& dark_nodes() const { return dark_; }

  uint64_t repairs_completed() const { return repairs_completed_; }
  uint64_t repairs_aborted() const { return repairs_aborted_; }
  uint64_t repairs_resumed() const { return repairs_resumed_; }
  uint64_t slots_repaired() const { return slots_repaired_; }
  // Total slots walked across every repair round — the measured repair cost
  // (proportional to slots-on-node, not store size).
  uint64_t slots_walked() const { return slots_walked_; }

  const RepairConfig& config() const { return config_; }

 private:
  // Grows the per-node lifecycle vectors for a node hot-added after this
  // service was constructed (elastic membership: an admitted node can crash
  // and repair like any other).
  void EnsureTracked(int node) {
    const auto n = static_cast<size_t>(node) + 1;
    if (resuming_.size() < n) {
      resuming_.resize(n, false);
      lifecycle_gen_.resize(n, 0);
    }
  }

  // Re-runs the round loop for a node whose earlier repair gave up; called
  // on every successful readmission. Readmits on success (which in turn
  // re-triggers any remaining dark nodes).
  sim::Task<void> ResumeRepair(int node);

  // Runs up to max_rounds over all registered stores; true when complete.
  sim::Task<bool> RepairRounds(int node, uint64_t* residual_failed);

  void TriggerDarkRetries();

  membership::MembershipService* membership_;
  Worker* worker_;
  RepairConfig config_;
  std::vector<RepairableStore*> stores_;
  int in_flight_ = 0;
  std::map<int, uint64_t> dark_;           // Given-up nodes, deterministic order.
  std::vector<bool> resuming_;             // Per-node re-repair in progress.
  std::vector<uint64_t> lifecycle_gen_;    // Bumped by each RecoverAndRepair.
  uint64_t repairs_completed_ = 0;
  uint64_t repairs_aborted_ = 0;
  uint64_t repairs_resumed_ = 0;
  uint64_t slots_repaired_ = 0;
  uint64_t slots_walked_ = 0;
};

}  // namespace swarm::repair

#endif  // SWARM_SRC_REPAIR_REPAIR_H_
