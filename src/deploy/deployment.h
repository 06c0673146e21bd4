// One KV-store deployment, wired the way production runs it.
//
// The paper runs every store on one deployment (§7): memory nodes behind a
// fabric, an index service, membership, and client processes with one
// outstanding op per worker. Deployment builds that once for the benches,
// the KV chaos suites and the examples:
//
//  * a simulator, a fabric, the index service (fabric-connected, so chaos can
//    fault its link), membership, the memory recycler and, for FUSEE, the
//    FUSEE store;
//  * per client process a CPU, a location cache and its own known-failed
//    view and membership epoch, both subscribed to membership pushes; per
//    worker a guess clock, a worker stamping every verb with the process's
//    epoch and skipping nodes under repair, the store session (SWARM-KV and
//    DM-ABD place fresh inserts on serving nodes only), a TrackedKvSession
//    the application calls, and a RecyclerParticipant whose epoch acks drain
//    that session's in-flight ops;
//  * the index's retired-layout GC runs under the recycler's horizon and
//    drops each retired layout from every client cache before forgetting it;
//  * optionally a repair coordinator (RepairService over the store, gating
//    the recycler's horizon) and a migration coordinator (MigrationService),
//    each a one-worker process wired like a client.
//
// SizeProtocol is the only writer-sizing rule: every worker the deployment
// builds is a writer, coordinators included, and more writers than the
// metadata word's tid space abort the build. The undersized-writer-bound
// canary (fabric::CanaryKnobs) skips it, keeping the protocol verbatim.

#ifndef SWARM_SRC_DEPLOY_DEPLOYMENT_H_
#define SWARM_SRC_DEPLOY_DEPLOYMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/fusee_kv.h"
#include "src/kv/kv_types.h"
#include "src/kv/tracked_session.h"
#include "src/membership/membership.h"
#include "src/repair/migration.h"
#include "src/repair/repair.h"
#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "src/swarm/recycler.h"
#include "src/swarm/worker.h"

namespace swarm::deploy {

struct DeploymentConfig {
  uint64_t seed = 1;
  std::string store = "swarm";  // swarm | raw | dmabd | fusee
  fabric::FabricConfig fabric;
  // max_writers and meta_slots of 0 are sized by SizeProtocol.
  ProtocolConfig proto;
  int num_clients = 4;
  int workers_per_client = 1;  // Concurrent operations per client (§7.2).
  // Index sharding (consistent hash of key): shards > 1 splits the service
  // into independent shards and segments every client cache to match. The
  // per-shard service occupancy models a real index server's serialization
  // (0 keeps index ops latency-only).
  int index_shards = 1;
  sim::Time index_shard_service_time = 0;
  size_t cache_capacity = 0;        // Entries per client; 0 = unbounded.
  int64_t max_clock_skew_ns = 400;  // Clients draw skew uniformly in ±this.
  // How long FUSEE blocks every client while it recovers from a failure.
  sim::Time fusee_recovery = 40 * sim::kMillisecond;
  // Set = build a repair coordinator with this config; likewise migration.
  std::optional<repair::RepairConfig> repair;
  std::optional<repair::MigrationConfig> migration;

  DeploymentConfig() {
    proto.meta_slots = 0;
    proto.max_writers = 0;
  }
};

// The writer-sizing rule. `writers` counts every worker that may CAS a
// timestamp lock. max_writers 0 becomes `writers` (one lock per writer), and
// a smaller explicit value widens to it, because a tid past the layout's TSL
// region would CAS the neighboring slab slot's words. meta_slots 0 becomes
// min(writers, 64): one In-n-Out metadata buffer per writer (§7.9's
// recommended configuration), capped. More writers than the metadata word's
// tid space abort.
ProtocolConfig SizeProtocol(ProtocolConfig proto, int writers);

// One worker of a client process and the sessions on top of it. A
// coordinator's worker has no sessions.
struct ClientWorker {
  std::unique_ptr<GuessClock> clock;
  std::unique_ptr<Worker> worker;
  std::unique_ptr<kv::KvSession> store;           // The store's own session.
  std::unique_ptr<kv::TrackedKvSession> session;  // What the application calls.
  std::unique_ptr<RecyclerParticipant> participant;
};

struct ClientProcess {
  std::unique_ptr<fabric::ClientCpu> cpu;
  std::unique_ptr<index::ClientCache> cache;  // Null for a coordinator.
  std::vector<ClientWorker> workers;
};

class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& cfg);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // The config as built: proto is sized.
  const DeploymentConfig& config() const { return cfg_; }
  sim::Simulator& sim() { return *sim_; }
  fabric::Fabric& fabric() { return *fabric_; }
  index::IndexService& index() { return *index_; }
  membership::MembershipService& membership() { return *membership_; }
  Recycler& recycler() { return *recycler_; }

  int num_clients() const { return static_cast<int>(clients_.size()); }
  ClientProcess& client(int c) { return clients_[static_cast<size_t>(c)]; }
  const ClientProcess& client(int c) const { return clients_[static_cast<size_t>(c)]; }
  // The application-facing sessions numbered across all client processes in
  // order: session i runs on the worker with tid i.
  int num_sessions() const { return static_cast<int>(sessions_.size()); }
  kv::KvSession& session(int i) { return *sessions_[static_cast<size_t>(i)]; }

  // Null unless configured.
  repair::RepairService* repair() { return repair_.get(); }
  repair::MigrationService* migration() { return migration_.get(); }
  Worker* repair_worker() { return WorkerOf(repair_coordinator_); }
  Worker* migration_worker() { return WorkerOf(migration_coordinator_); }

  // Fills every unbounded client cache with the location of each of keys
  // [0, keys), as an unboundedly long warm-up would (the paper's "caches
  // large enough for all key locations"). Bounded caches are left cold.
  void PrewarmCaches(uint64_t keys);

 private:
  // A CPU, the process's own known-failed view and epoch, and `workers`
  // clocks and epoch-stamped, repair-excluding workers with the next tids.
  ClientProcess MakeProcess(int workers, int64_t skew);
  // The store session, tracked session and recycler participant per worker.
  void AddSessions(ClientProcess& p);
  void BuildRepair();
  void BuildMigration();
  static Worker* WorkerOf(ClientProcess& p) {
    return p.workers.empty() ? nullptr : p.workers.front().worker.get();
  }

  DeploymentConfig cfg_;
  // Declaration order is destruction order in reverse: the simulator outlives
  // everything that schedules onto it.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<index::IndexService> index_;
  std::unique_ptr<membership::MembershipService> membership_;
  std::unique_ptr<Recycler> recycler_;
  std::unique_ptr<kv::FuseeStore> fusee_;
  std::vector<ClientProcess> clients_;
  std::vector<kv::TrackedKvSession*> sessions_;
  ClientProcess repair_coordinator_;
  ClientProcess migration_coordinator_;
  std::unique_ptr<repair::IndexRepairSource> repair_source_;
  std::unique_ptr<repair::RepairService> repair_;
  std::unique_ptr<repair::IndexMigrationSource> migration_source_;
  std::unique_ptr<repair::MigrationService> migration_;
  uint32_t next_tid_ = 0;
};

}  // namespace swarm::deploy

#endif  // SWARM_SRC_DEPLOY_DEPLOYMENT_H_
