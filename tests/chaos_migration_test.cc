// Migration-chaos scenario family: elastic-membership lifecycles — node
// admission with rebalancing, drains, decommissions — injected by the
// ChaosEngine (ChaosConfig::migration_weight) while the randomized
// multi-client workload keeps running and crashes/repairs/drop-bursts land on
// top. Three regimes per store, all linearizability-checked and
// seed-replayable:
//
//   * crash during migration: a memory node dies (and crash-recovers through
//     the RepairService) while a migration batch is copying extents — copies
//     lose their source or destination mid-round and must retry or abort
//     with the cluster exactly as before;
//   * migrate during repair: migrations fire while repairs are in flight, so
//     the migrate-vs-repair same-slot arbitration (skip sources under
//     repair, never pick a repairing destination) runs hot;
//   * concurrent grow+shrink: an admission's rebalancing races a drain of
//     another node — two coordinators flip ownership of overlapping key sets
//     concurrently, serialized per key only by the index's generation guard.
//
// Stale-cache clients riding the old layouts are inherent to the workload:
// caches are invalidated only by the retired-layout GC, so between a flip
// and the horizon every client write bounces off the vacated slot's region
// fence (kMovedReplica) and re-learns — the tentpole's safety argument.
//
// The companion unit lifecycle tests live in tests/migration_test.cc; the
// fence-disabled canary (flip WITHOUT fencing the vacated slot is caught by
// the checker) lives in tests/chaos_replay_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/deploy/deployment.h"
#include "src/repair/migration.h"
#include "src/repair/repair.h"
#include "tests/support/scenario.h"

namespace swarm {
namespace {

using testing::ChaosDeployment;
using testing::ChaosHistories;
using testing::CheckHistories;
using testing::DriveScenarios;
using testing::ElasticFabric;
using testing::KvChaos;
using testing::ScenarioSpec;
using testing::SeedMessage;

void ExpectLinearizable(const ChaosHistories& hist, const ScenarioSpec& spec,
                        const chaos::ChaosEngine& engine) {
  const std::string violation = CheckHistories(hist);
  EXPECT_TRUE(violation.empty()) << violation << "\n  " << SeedMessage(spec, engine);
}

// Every injected lifecycle ran to completion by simulation end: one
// kMigrateDone per kMigrateStart (success or graceful abort), and no node
// left crashed mid-repair.
void ExpectMigrationLifecyclesComplete(const chaos::ChaosEngine& engine,
                                       const ScenarioSpec& spec) {
  size_t starts = 0;
  size_t dones = 0;
  for (const chaos::FaultEvent& e : engine.trace()) {
    starts += e.kind == chaos::FaultKind::kMigrateStart ? 1 : 0;
    dones += e.kind == chaos::FaultKind::kMigrateDone ? 1 : 0;
  }
  EXPECT_EQ(starts, dones) << SeedMessage(spec, engine);
  EXPECT_EQ(engine.crashed_count(), 0) << SeedMessage(spec, engine);
}

// ---------- Runner: crash-recover wiring + a migration coordinator --------

// An elastic fabric (headroom for admitted nodes), a repair coordinator and
// a migration coordinator on top of the deployment; SWARM-KV and DM-ABD
// sessions and the FUSEE store place fresh keys on serving nodes only.
void RunMigrationScenario(const char* store, const ScenarioSpec& spec) {
  deploy::DeploymentConfig cfg = ChaosDeployment(spec, store, ElasticFabric());
  cfg.fusee_recovery = 300 * sim::kMicrosecond;
  cfg.repair = repair::RepairConfig{};
  cfg.migration = repair::MigrationConfig{};
  KvChaos c(spec, cfg);
  ChaosHistories hist;
  c.SpawnClients(spec, &hist);
  c.Run();
  ExpectLinearizable(hist, spec, c.engine);
  ExpectMigrationLifecyclesComplete(c.engine, spec);
}

// ---------- The three regimes ----------

// Baseline: migrations under the crash-recover fault mix — crashes land
// before, during and after the copy rounds.
ScenarioSpec CrashDuringMigrationSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 6;
  spec.ops_per_client = 14;
  spec.mean_think = 18000;  // Stretch the workload past the lifecycles.
  spec.faults.horizon = 260 * sim::kMicrosecond;
  spec.faults.mean_gap = 8 * sim::kMicrosecond;
  spec.faults.migration_weight = 2.5;
  spec.faults.max_migrations = 2;
  spec.faults.max_crashed = 1;
  spec.faults.restart = true;
  spec.faults.repair = true;
  spec.faults.min_down = 50 * sim::kMicrosecond;
  spec.faults.max_down = 150 * sim::kMicrosecond;
  spec.faults.max_drop_p = 0.3;
  spec.faults.drop_ack_weight = 2.0;
  return spec;
}

// Repair-heavy: more and longer-overlapping crash-recover lifecycles so
// migrations routinely fire while a repair holds a node — the arbitration
// regime. Two nodes may be down at once.
ScenarioSpec MigrateDuringRepairSpec(uint64_t seed) {
  ScenarioSpec spec = CrashDuringMigrationSpec(seed);
  spec.faults.crash_weight = 2.5;
  spec.faults.max_crashed = 2;
  spec.faults.horizon = 300 * sim::kMicrosecond;
  spec.mean_think = 24000;
  return spec;
}

// Pure elasticity: no crashes at all, but both lifecycles (grow, shrink)
// injected close together so the admission's rebalancing overlaps the drain
// — concurrent coordinators flipping overlapping key sets, serialized per
// key only by the index generation guard. Drop bursts keep the copy rounds
// retrying mid-overlap.
ScenarioSpec ConcurrentGrowShrinkSpec(uint64_t seed) {
  ScenarioSpec spec = CrashDuringMigrationSpec(seed);
  spec.faults.crash_weight = 0.0;
  spec.faults.migration_weight = 5.0;
  spec.faults.mean_gap = 5 * sim::kMicrosecond;
  spec.faults.max_drop_p = 0.35;
  return spec;
}

TEST(ChaosMigrationSwarmKv, CrashDuringMigrationStaysLinearizable) {
  DriveScenarios(10000, [](const ScenarioSpec& s) { RunMigrationScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = CrashDuringMigrationSpec(seed);
    spec.faults.churn_weight = 0.4;  // Retired-as-moved layouts ride the GC horizon.
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosMigrationSwarmKv, MigrateDuringRepairStaysLinearizable) {
  DriveScenarios(10300, [](const ScenarioSpec& s) { RunMigrationScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = MigrateDuringRepairSpec(seed);
    spec.faults.churn_weight = 0.3;
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosMigrationSwarmKv, ConcurrentGrowShrinkStaysLinearizable) {
  DriveScenarios(10600, [](const ScenarioSpec& s) { RunMigrationScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ConcurrentGrowShrinkSpec(seed);
    spec.faults.churn_weight = 0.4;
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosMigrationDmAbdKv, CrashDuringMigrationStaysLinearizable) {
  DriveScenarios(11000, [](const ScenarioSpec& s) { RunMigrationScenario("dmabd", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = CrashDuringMigrationSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosMigrationDmAbdKv, MigrateDuringRepairStaysLinearizable) {
  DriveScenarios(11300, [](const ScenarioSpec& s) { RunMigrationScenario("dmabd", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = MigrateDuringRepairSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosMigrationDmAbdKv, ConcurrentGrowShrinkStaysLinearizable) {
  DriveScenarios(11600, [](const ScenarioSpec& s) { RunMigrationScenario("dmabd", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ConcurrentGrowShrinkSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosMigrationFuseeKv, CrashDuringMigrationStaysLinearizable) {
  DriveScenarios(12000, [](const ScenarioSpec& s) { RunMigrationScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = CrashDuringMigrationSpec(seed);
    // FUSEE stalls on every failed verb (a full recovery), so milder drops.
    spec.faults.max_drop_p = 0.15;
    return spec;
  });
}

TEST(ChaosMigrationFuseeKv, MigrateDuringRepairStaysLinearizable) {
  DriveScenarios(12300, [](const ScenarioSpec& s) { RunMigrationScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = MigrateDuringRepairSpec(seed);
    spec.faults.max_drop_p = 0.15;
    spec.mean_think = 30000;  // Room for overlapping recovery stalls.
    return spec;
  });
}

TEST(ChaosMigrationFuseeKv, ConcurrentGrowShrinkStaysLinearizable) {
  DriveScenarios(12600, [](const ScenarioSpec& s) { RunMigrationScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ConcurrentGrowShrinkSpec(seed);
    spec.faults.max_drop_p = 0.15;
    return spec;
  });
}

}  // namespace
}  // namespace swarm
