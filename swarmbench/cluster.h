// One SWARM-KV deployment as the benchmark drives it.
//
// A simulator, a fabric of 4 memory nodes, the index service, membership, the
// memory recycler, and one client process per client: CPU, location cache,
// guess clock, worker and KV session. The wiring is the production one:
//
//  * every verb is stamped with the client's membership epoch, and workers
//    re-validate it through the membership service's pull path;
//  * quorum selection skips nodes under repair, and fresh inserts are placed
//    on serving nodes only;
//  * removed keys' layouts are retired under recycler epochs whose acks drain
//    each client's in-flight op (kv::TrackedKvSession), so the retired-layout
//    GC frees their slots while the workload runs;
//  * with `repair_coordinator`, one more worker (tid inside max_writers)
//    drives repair::RepairService over the index's placement map, and the
//    recycler's horizon waits for in-flight repairs.
//
// Each client process runs one worker (one outstanding op, closed loop).

#ifndef SWARMBENCH_CLUSTER_H_
#define SWARMBENCH_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/kv/tracked_session.h"
#include "src/membership/membership.h"
#include "src/repair/repair.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/swarm/clock.h"
#include "src/swarm/recycler.h"
#include "src/swarm/worker.h"

namespace swarm::kvbench {

inline constexpr uint32_t kValueBytes = 64;

struct ClusterConfig {
  uint64_t seed = 1;
  int clients = 4;
  size_t cache_entries = 0;  // Per client; 0 = unbounded.
  int inplace_copies = 1;
  bool repair_coordinator = false;
};

struct ClientProcess {
  std::unique_ptr<fabric::ClientCpu> cpu;
  std::unique_ptr<index::ClientCache> cache;
  std::unique_ptr<GuessClock> clock;
  std::unique_ptr<Worker> worker;
  // Clients only (the repair coordinator has none of these):
  std::unique_ptr<kv::SwarmKvSession> swarm;
  std::unique_ptr<kv::TrackedKvSession> session;  // What the workload calls.
  std::unique_ptr<RecyclerParticipant> participant;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  sim::Simulator& sim() { return *sim_; }
  fabric::Fabric& fabric() { return *fabric_; }
  index::IndexService& index() { return *index_; }
  membership::MembershipService& membership() { return *membership_; }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  ClientProcess& client(int c) { return clients_[static_cast<size_t>(c)]; }
  // Null unless built with repair_coordinator.
  repair::RepairService* repair() { return repair_.get(); }
  fabric::ClientCpu* coordinator_cpu() { return coordinator_.cpu.get(); }

  // Fills every unbounded client cache with every mapped key's location, as
  // an unboundedly long warm-up would (the paper's "caches large enough for
  // all key locations").
  void PrewarmCaches(uint64_t keys);

  // Runs recycler rounds every kRecyclePeriod while `*active` > 0; a round
  // renews client leases first, so idle phases never expire them.
  sim::Task<void> RecyclerLoop(const int* active);

 private:
  static constexpr sim::Time kRecyclePeriod = 100 * sim::kMicrosecond;

  // CPU, cache, clock and an epoch-fenced, repair-excluding worker; the
  // constructor adds the KV session and recycler participant to clients.
  ClientProcess MakeClient(uint32_t tid, const ProtocolConfig& proto, int64_t skew);

  ClusterConfig cfg_;
  // Declaration order is destruction order in reverse: the simulator outlives
  // everything that schedules onto it.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<index::IndexService> index_;
  std::unique_ptr<membership::MembershipService> membership_;
  std::unique_ptr<Recycler> recycler_;
  std::vector<ClientProcess> clients_;
  ClientProcess coordinator_;
  std::unique_ptr<repair::IndexRepairSource> repair_source_;
  std::unique_ptr<repair::RepairService> repair_;
};

}  // namespace swarm::kvbench

#endif  // SWARMBENCH_CLUSTER_H_
