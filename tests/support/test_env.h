// Shared test scaffolding: a simulator + fabric + workers wired together the
// way SWARM-KV would, with deterministic timing by default.

#ifndef SWARM_TESTS_SUPPORT_TEST_ENV_H_
#define SWARM_TESTS_SUPPORT_TEST_ENV_H_

#include <memory>
#include <numeric>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/membership/membership.h"
#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "src/swarm/layout.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/worker.h"

namespace swarm::testing {

struct TestEnv {
  explicit TestEnv(uint64_t seed = 1, fabric::FabricConfig fcfg = DefaultFabric(),
                   ProtocolConfig pcfg = DefaultProtocol())
      : sim(seed), fabric(&sim, fcfg), proto(pcfg),
        known_failed(std::make_shared<std::vector<bool>>(
            static_cast<size_t>(fcfg.num_nodes), false)) {}

  static fabric::FabricConfig DefaultFabric() {
    fabric::FabricConfig cfg;
    cfg.num_nodes = 4;
    cfg.node_capacity_bytes = 8ull << 20;
    cfg.delay_jitter = 60;
    return cfg;
  }

  static ProtocolConfig DefaultProtocol() {
    ProtocolConfig cfg;
    cfg.replicas = 3;
    cfg.meta_slots = 4;
    cfg.max_writers = 8;
    cfg.max_value = 64;
    cfg.oop_pool_slots = 256;
    return cfg;
  }

  // Creates a worker with its own CPU and clock (skew in ns, may be negative).
  Worker& MakeWorker(int64_t skew_ns = 0) {
    const uint32_t tid = static_cast<uint32_t>(workers.size());
    cpus.push_back(std::make_unique<fabric::ClientCpu>(&sim));
    clocks.push_back(std::make_unique<GuessClock>(&sim, skew_ns));
    workers.push_back(std::make_unique<Worker>(&fabric, tid, cpus.back().get(),
                                               clocks.back().get(), proto, known_failed));
    return *workers.back();
  }

  // Allocates one replicated object over nodes 0..R-1.
  LayoutPin MakeObject(int inplace_copies = 1) {
    std::vector<int> nodes(static_cast<size_t>(proto.replicas));
    std::iota(nodes.begin(), nodes.end(), 0);
    return AllocateObject(fabric, nodes.data(), proto.replicas, proto.meta_slots,
                          proto.max_writers, proto.max_value, inplace_copies);
  }

  std::shared_ptr<ObjectCache> MakeCache() { return std::make_shared<ObjectCache>(); }

  sim::Simulator sim;
  fabric::Fabric fabric;
  ProtocolConfig proto;
  std::shared_ptr<std::vector<bool>> known_failed;
  std::vector<std::unique_ptr<fabric::ClientCpu>> cpus;
  std::vector<std::unique_ptr<GuessClock>> clocks;
  std::vector<std::unique_ptr<Worker>> workers;
};

// Elastic-membership scenarios hot-add nodes mid-run (MigrationService::
// AdmitAndRebalance → Fabric::AddNode): the fabric needs lifetime headroom
// beyond the initial cluster, reserved up front so the per-link chaos fault
// arrays and the index pseudo-link stay stable across admissions.
inline fabric::FabricConfig ElasticFabric(int headroom = 2) {
  fabric::FabricConfig cfg = TestEnv::DefaultFabric();
  cfg.max_nodes = cfg.num_nodes + headroom;
  return cfg;
}

// Wires a worker's membership-epoch stamp and re-validation pull (§5.4):
// its verbs carry the client's cached epoch instead of kNoFenceEpoch, so the
// epoch-fenced verb path runs in unit fixtures too, not just the chaos
// harness.
inline void WireWorkerEpoch(Worker& w, membership::MembershipService& membership) {
  auto epoch = std::make_shared<fabric::ClientEpoch>();
  epoch->value = membership.epoch();
  w.set_epoch(epoch);
  w.set_epoch_source([&membership] { return membership.ValidateEpoch(); });
  membership.SubscribeEpoch(std::move(epoch));
}

inline std::vector<uint8_t> Val(std::initializer_list<uint8_t> bytes) { return bytes; }

inline std::vector<uint8_t> ValN(size_t n, uint8_t fill) { return std::vector<uint8_t>(n, fill); }

}  // namespace swarm::testing

#endif  // SWARM_TESTS_SUPPORT_TEST_ENV_H_
