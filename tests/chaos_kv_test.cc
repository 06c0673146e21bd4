// Chaos suites for the three KV stores (SWARM-KV, DM-ABD, FUSEE): hundreds
// of machine-generated fault scenarios — node crashes with randomized
// detection, per-link delay spikes, message-drop bursts (including the
// applied-but-unacked case), membership lease expiries and recycler epoch
// churn — interleaved with a randomized multi-client workload whose complete
// history is checked for linearizability. Every failure prints the seed that
// reproduces it byte-identically (CHAOS_SEED=<seed>).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "src/deploy/deployment.h"
#include "src/repair/repair.h"
#include "tests/support/scenario.h"

namespace swarm {
namespace {

using testing::ChaosDeployment;
using testing::ChaosHistories;
using testing::CheckerScaleSoakSpec;
using testing::CheckHistories;
using testing::DriveScaleScenarios;
using testing::DriveScenarios;
using testing::DriveSoakScenarios;
using testing::KvChaos;
using testing::LongHorizonSoakSpec;
using testing::ScenarioSpec;
using testing::SeedMessage;
using testing::SplitBrainSoakSpec;

// Shared scenario epilogue: linearizability check + replayable seed message.
// Soak runners also pass a wall-clock budget for the CHECK itself — the
// acceptance bar for the unbounded checker (a 2,000+-op multi-key history
// was impossible to check at all under the legacy 63-op DFS).
// `max_window_ops`, when nonzero, bounds the largest window the splitter
// handed to the DFS — the remove-heavy soak's structural guard that pending
// removes no longer swallow the whole cell.
// `min_ops_fraction` is the degenerate-soak bar: the fraction of issued ops
// that must appear in the recorded history. FUSEE's split-brain regimes
// lower it — every cross-side verb fails into a 500 us STORE-WIDE recovery
// stall, so stalls chain across the fault horizon and a large minority of
// ops (mostly reads) die unavailable. That blindness is the finding, not a
// broken scenario; the surviving majority still must linearize.
// Wall-clock check budgets are waived under sanitizers: shadow-memory
// bookkeeping slows the checker several-fold, so the budget would gate CI
// on sanitizer overhead rather than checker complexity. The check itself
// (and the min-ops degeneracy bar) still runs.
#if defined(__SANITIZE_ADDRESS__)
#define SWARM_CHECK_BUDGET_WAIVED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWARM_CHECK_BUDGET_WAIVED 1
#endif
#endif
#ifndef SWARM_CHECK_BUDGET_WAIVED
#define SWARM_CHECK_BUDGET_WAIVED 0
#endif

void ExpectLinearizable(const ChaosHistories& hist, const ScenarioSpec& spec,
                        const chaos::ChaosEngine& engine, double check_budget_s = 0.0,
                        uint64_t max_window_ops = 0, double min_ops_fraction = 0.75) {
  const auto start = std::chrono::steady_clock::now();
  verify::CheckStats stats;
  const std::string violation = CheckHistories(hist, &stats);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!violation.empty() && std::getenv("CHAOS_DUMP") != nullptr) {
    // Replay diagnostics: the complete recorded history, per key.
    for (const auto& [key, ops] : hist.per_key) {
      std::fprintf(stderr, "key %llu:\n", static_cast<unsigned long long>(key));
      for (const verify::HistoryOp& op : ops) {
        std::fprintf(stderr, "  %c(%llu) @%lld..%lld%s\n", op.is_write ? 'W' : 'R',
                     static_cast<unsigned long long>(op.value),
                     static_cast<long long>(op.invoked), static_cast<long long>(op.responded),
                     op.pending ? " pending" : "");
      }
    }
  }
  EXPECT_TRUE(violation.empty()) << violation << "\n  " << SeedMessage(spec, engine);
  if (check_budget_s > 0.0) {
    size_t ops = 0;
    for (const auto& [key, key_ops] : hist.per_key) {
      ops += key_ops.size();
    }
    if (!SWARM_CHECK_BUDGET_WAIVED) {
      EXPECT_LT(secs, check_budget_s)
          << "checking " << ops << " ops across " << hist.per_key.size() << " keys took " << secs
          << " s\n  " << SeedMessage(spec, engine);
    }
    // A soak that recorded far fewer ops than its spec issued has silently
    // degenerated (e.g. everything went unavailable) and proves nothing.
    EXPECT_GE(ops, static_cast<size_t>(
                       static_cast<double>(spec.clients * spec.ops_per_client) *
                       min_ops_fraction))
        << SeedMessage(spec, engine);
  }
  if (max_window_ops > 0 && stats.fallback_cells == 0) {
    // Structural guard for the pending-remove window cap. Skipped when the
    // exact fallback ran: the fallback deliberately re-checks with the cap
    // OFF, so its (accepted) giant window lands in the stats — only an
    // all-optimistic run proves the splitter kept cutting.
    EXPECT_LE(stats.max_window_ops, max_window_ops)
        << "the time-window splitter degenerated (" << stats.windows << " windows, largest "
        << stats.max_window_ops << " ops; " << stats.fallback_cells << " fallback cells)\n  "
        << SeedMessage(spec, engine);
  }
}

// Workload ~150 us of virtual time; faults land every ~8 us of it. Crashes
// are crash-stop (a restarted disaggregated-memory node would come back
// empty, which no quorum protocol without state transfer survives) and
// limited to a minority of every 3-replica set.
ScenarioSpec KvSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 4;
  spec.ops_per_client = 12;
  spec.mean_think = 8000;
  spec.faults.horizon = 150 * sim::kMicrosecond;
  spec.faults.mean_gap = 8 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;
  spec.faults.restart = false;
  spec.faults.max_drop_p = 0.35;
  return spec;
}

// One store under the spec's faults. The deployment's recycler rides along:
// with churn_weight > 0 chaos fires recycler rounds and expires leases
// mid-workload, and the retired-layout GC runs under its horizon.
// Simulator::Run returning proves every churn round completed (fencing
// worked) even when chaos expired leases mid-round; the safety side of the
// fencing protocol is recycler_test's job.
void RunKvScenario(const char* store, const ScenarioSpec& spec, double check_budget_s = 0.0,
                   testing::KvOpMix mix = {}, uint64_t max_window_ops = 0,
                   double min_ops_fraction = 0.75) {
  deploy::DeploymentConfig cfg = ChaosDeployment(spec, store);
  // Short recovery so the multi-phase failover completes inside the
  // scenario; FUSEE blocks all progress while it runs (§7.7).
  cfg.fusee_recovery = 500 * sim::kMicrosecond;
  KvChaos c(spec, cfg);
  ChaosHistories hist;
  c.SpawnClients(spec, &hist, mix);
  c.Run();
  ExpectLinearizable(hist, spec, c.engine, check_budget_s, max_window_ops, min_ops_fraction);
}

// ---------- Crash-recover scenarios (restart → repair → readmit) ----------
//
// The nastiest regime: a memory node crashes MID-WORKLOAD, restarts empty,
// is rebuilt from the surviving quorum by the RepairService while reads race
// the repair, and rejoins quorums — all under ack-loss-biased drop bursts
// (the possibly-applied case repair and quorum commits are most sensitive
// to). Histories must stay linearizable across the whole cycle.

// Lifecycle accounting shared by every crash-recover runner: all repair
// lifecycles completed (readmitted, or safely gave up leaving the node
// excluded) by simulation end, and the coordinator's counters agree with the
// injected trace. With max_crashed = 2 this is the deadlock-safety half of
// the concurrent-repair contract: two repairs that mutually wait for each
// other's node (an object hosting both) must still terminate via the round
// budget rather than hang the simulation.
void ExpectRepairLifecyclesComplete(KvChaos& c, const ScenarioSpec& spec) {
  EXPECT_EQ(c.engine.crashed_count(), 0) << SeedMessage(spec, c.engine);
  size_t done_events = 0;
  for (const chaos::FaultEvent& e : c.engine.trace()) {
    done_events += e.kind == chaos::FaultKind::kRepairDone ? 1 : 0;
  }
  EXPECT_EQ(c.d.repair()->repairs_completed() + c.d.repair()->repairs_aborted(), done_events)
      << SeedMessage(spec, c.engine);
}

ScenarioSpec CrashRecoverSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 4;
  spec.ops_per_client = 14;
  spec.mean_think = 16000;  // Stretch the workload past restart + repair.
  spec.faults.horizon = 220 * sim::kMicrosecond;
  spec.faults.mean_gap = 8 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;
  spec.faults.restart = true;
  spec.faults.repair = true;
  spec.faults.min_down = 60 * sim::kMicrosecond;
  spec.faults.max_down = 200 * sim::kMicrosecond;
  spec.faults.max_drop_p = 0.35;
  spec.faults.drop_req_weight = 1.0;
  spec.faults.drop_ack_weight = 3.0;  // Target ack loss (satellite: per-direction weights).
  return spec;
}

// The crash-recover runner: the deployment adds a repair coordinator over
// the store (SWARM-KV's recycler horizon waits for in-flight repairs).
// `stale_client`: client 0 becomes the suites' DEAF client — it receives no
// membership pushes (neither failure notifications nor epoch advances), so
// it keeps issuing verbs stamped with its boot-time epoch across whole
// crash-repair cycles. The epoch fence must bounce them (kStaleEpoch →
// re-validation pull → retry); with the pre-fix canary knob they land on
// repaired state and are trusted. Returns whether the deaf client's worker
// pulled its epoch, i.e. took that path.
bool RunCrashRecoverScenario(const char* store, const ScenarioSpec& spec,
                             bool stale_client = false) {
  deploy::DeploymentConfig cfg = ChaosDeployment(spec, store);
  cfg.fusee_recovery = 300 * sim::kMicrosecond;
  cfg.repair = repair::RepairConfig{};
  KvChaos c(spec, cfg);
  const Worker* deaf = nullptr;
  if (stale_client) {
    deaf = c.d.client(0).workers[0].worker.get();
    testing::MakeDeaf(*c.d.client(0).workers[0].worker, c.d.membership());
  }
  ChaosHistories hist;
  c.SpawnClients(spec, &hist);
  c.Run();
  ExpectLinearizable(hist, spec, c.engine);
  ExpectRepairLifecyclesComplete(c, spec);
  return deaf != nullptr && deaf->epoch_pulls() > 0;
}

// Path coverage of a stale-client sweep: the scenarios in which the deaf
// client took the fence path it exists for. A fault mix or runner that
// stopped reaching the path would leave the sweep green and vacuous, so at
// least 90% of the scenarios must pull. One replayed seed is no sweep.
struct FencePathCoverage {
  int scenarios = 0;
  int pulled = 0;

  void Add(bool deaf_pulled) {
    ++scenarios;
    pulled += deaf_pulled ? 1 : 0;
  }
};

void ExpectFencePathCovered(const FencePathCoverage& cov) {
  uint64_t seed = 0;
  if (testing::ForcedSeed(&seed)) {
    return;
  }
  EXPECT_GE(10 * cov.pulled, 9 * cov.scenarios)
      << "the deaf client pulled its epoch in only " << cov.pulled << " of " << cov.scenarios
      << " scenarios";
}

TEST(ChaosSwarmKv, RandomFaultScenariosStayLinearizable) {
  DriveScenarios(1000, [](const ScenarioSpec& s) { RunKvScenario("swarm", s); }, [](uint64_t seed) {
    ScenarioSpec spec = KvSpec(seed);
    // SWARM-KV also rides recycler epoch churn and scripted lease expiries
    // (the participants are registered in RunSwarmKvScenario), and faults on
    // the index RPC link (the index service is fabric-connected here).
    spec.faults.lease_weight = 0.6;
    spec.faults.churn_weight = 0.6;
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosDmAbdKv, RandomFaultScenariosStayLinearizable) {
  DriveScenarios(2000, [](const ScenarioSpec& s) { RunKvScenario("dmabd", s); }, [](uint64_t seed) {
    ScenarioSpec spec = KvSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosFuseeKv, RandomFaultScenariosStayLinearizable) {
  DriveScenarios(3000, [](const ScenarioSpec& s) { RunKvScenario("fusee", s); }, [](uint64_t seed) {
    ScenarioSpec spec = KvSpec(seed);
    // FUSEE's synchronous replication treats every failed verb as a node
    // failure and pays a full recovery, so keep drop bursts milder and give
    // the workload room for the recovery stalls.
    spec.faults.max_drop_p = 0.15;
    spec.faults.horizon = 120 * sim::kMicrosecond;
    return spec;
  });
}

TEST(ChaosSwarmKv, CrashRecoverRepairStaysLinearizable) {
  DriveScenarios(4000, [](const ScenarioSpec& s) { RunCrashRecoverScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = CrashRecoverSpec(seed);
    spec.faults.lease_weight = 0.4;
    spec.faults.churn_weight = 0.4;  // Recycler rounds race the repair gate.
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosDmAbdKv, CrashRecoverRepairStaysLinearizable) {
  DriveScenarios(5000, [](const ScenarioSpec& s) { RunCrashRecoverScenario("dmabd", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = CrashRecoverSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosFuseeKv, CrashRecoverRepairStaysLinearizable) {
  DriveScenarios(6000, [](const ScenarioSpec& s) { RunCrashRecoverScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = CrashRecoverSpec(seed);
    // Milder drops (every failed verb costs FUSEE a full recovery stall) and
    // a longer tail: ops block while the repair runs.
    spec.faults.max_drop_p = 0.15;
    return spec;
  });
}

// ---------- Concurrent repairs: max_crashed = 2 ----------
//
// The previously untested territory: TWO memory nodes down at once, both in
// the kRecoverWithRepair lifecycle, while the workload keeps running. Per
// object, three regimes coexist and must all stay linearizable:
//   * a surviving majority exists (one replica on a repairing node): normal
//     ops proceed with the repairing node quorum-excluded, and its repair
//     copies from the survivors;
//   * BOTH repairing nodes host replicas: no surviving majority — ops go
//     unavailable (recorded pending) and both repairs keep failing that
//     object's slot. If the crashes were staggered enough that one repair
//     readmits within the other's round budget, the second then completes;
//     otherwise both give up and the object stays dark — reduced
//     availability, never a stale read;
//   * untouched objects: unaffected throughout.
// The per-object survivor-quorum checks live in the repair paths themselves
// (quorum reads exclude EVERY repairing node; FUSEE's per-key source check
// skips repair-excluded replicas) — this suite drives them end-to-end.

ScenarioSpec ConcurrentRepairSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 6;
  spec.ops_per_client = 16;
  spec.mean_think = 24000;  // Stretch the workload past two repair cycles.
  spec.faults.horizon = 300 * sim::kMicrosecond;
  spec.faults.mean_gap = 7 * sim::kMicrosecond;
  spec.faults.max_crashed = 2;
  spec.faults.crash_weight = 2.0;  // Make overlapping double-crashes common.
  spec.faults.restart = true;
  spec.faults.repair = true;
  spec.faults.min_down = 40 * sim::kMicrosecond;
  spec.faults.max_down = 160 * sim::kMicrosecond;
  spec.faults.max_drop_p = 0.3;
  spec.faults.drop_ack_weight = 2.0;
  return spec;
}

TEST(ChaosSwarmKv, ConcurrentRepairsStayLinearizable) {
  DriveScenarios(7000, [](const ScenarioSpec& s) { RunCrashRecoverScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ConcurrentRepairSpec(seed);
    spec.faults.churn_weight = 0.3;  // Recycler's horizon gates on BOTH repairs.
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosDmAbdKv, ConcurrentRepairsStayLinearizable) {
  DriveScenarios(7500, [](const ScenarioSpec& s) { RunCrashRecoverScenario("dmabd", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ConcurrentRepairSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosFuseeKv, ConcurrentRepairsStayLinearizable) {
  DriveScenarios(8000, [](const ScenarioSpec& s) { RunCrashRecoverScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ConcurrentRepairSpec(seed);
    // FUSEE is 2-replica: with two nodes down, keys hosted on both are dark
    // until a repair readmits. Milder drops (failed verbs cost recovery
    // stalls) and extra think time for the store-wide repair gate.
    spec.faults.max_drop_p = 0.15;
    spec.mean_think = 30000;
    return spec;
  });
}

// ---------- Crash-recover with a client that NEVER learns ----------
//
// The §5.4 per-client-revocation regime end to end: client 0 is deaf — no
// membership pushes ever reach it, so its verbs stay stamped with the
// boot-time epoch across every crash → repair → readmit cycle, and long
// delay spikes keep some of them in flight across the WHOLE cycle. The
// epoch fence must reject every such verb (the client recovers through the
// kStaleEpoch → ValidateEpoch pull), keeping the history linearizable. The
// pre-fix counterpart of this regime is the stale-epoch canary in
// chaos_replay_test.cc.

ScenarioSpec CrashRecoverStaleClientSpec(uint64_t seed) {
  ScenarioSpec spec = CrashRecoverSpec(seed);
  // Stale stamps need no extreme delays: every crash/rejoin transition
  // advances the epoch while the deaf client keeps issuing old-stamp verbs,
  // so the fence + pull-revalidation path runs hot at ordinary spike sizes.
  // The cross-cycle stranded-verb window itself is demonstrated by the
  // scripted stale-epoch canary (chaos_replay_test.cc); the extreme-spike
  // regime (>100 us, where verbs outlive whole repair cycles) gets its own
  // suites below with the once-open seeds pinned.
  spec.faults.max_spike = 40 * sim::kMicrosecond;
  spec.faults.max_spike_duration = 120 * sim::kMicrosecond;
  spec.faults.min_down = 30 * sim::kMicrosecond;
  spec.faults.max_down = 90 * sim::kMicrosecond;
  return spec;
}

// The extreme-spike regime the 40 us pin used to keep out: single verbs
// delayed up to 120 us — longer than a whole crash → repair → readmit
// cycle, so a stranded verb can depart before the crash and land after the
// readmit with ANY amount of repaired state in between. Seeds 9068 (swarm)
// and 9697 (dm-abd) excavated real windows here when first recorded in the
// ROADMAP; they are pinned as canaries below and the sweeps keep digging.
ScenarioSpec ExtremeSpikeStaleClientSpec(uint64_t seed) {
  ScenarioSpec spec = CrashRecoverStaleClientSpec(seed);
  spec.faults.max_spike = 120 * sim::kMicrosecond;
  spec.faults.max_spike_duration = 200 * sim::kMicrosecond;
  return spec;
}

TEST(ChaosSwarmKv, CrashRecoverStaleClientStaysLinearizable) {
  FencePathCoverage cov;
  DriveScenarios(9000,
                 [&cov](const ScenarioSpec& s) {
                   cov.Add(RunCrashRecoverScenario("swarm", s, /*stale_client=*/true));
                 },
                 [](uint64_t seed) {
                   ScenarioSpec spec = CrashRecoverStaleClientSpec(seed);
                   spec.faults.lease_weight = 0.3;
                   spec.faults.churn_weight = 0.3;
                   spec.faults.fault_index_link = true;
                   return spec;
                 });
  ExpectFencePathCovered(cov);
}

TEST(ChaosDmAbdKv, CrashRecoverStaleClientStaysLinearizable) {
  FencePathCoverage cov;
  DriveScenarios(9500,
                 [&cov](const ScenarioSpec& s) {
                   cov.Add(RunCrashRecoverScenario("dmabd", s, /*stale_client=*/true));
                 },
                 [](uint64_t seed) {
                   ScenarioSpec spec = CrashRecoverStaleClientSpec(seed);
                   spec.faults.fault_index_link = true;
                   return spec;
                 });
  ExpectFencePathCovered(cov);
}

TEST(ChaosFuseeKv, CrashRecoverStaleClientStaysLinearizable) {
  FencePathCoverage cov;
  DriveScenarios(9800,
                 [&cov](const ScenarioSpec& s) {
                   cov.Add(RunCrashRecoverScenario("fusee", s, /*stale_client=*/true));
                 },
                 [](uint64_t seed) {
                   ScenarioSpec spec = CrashRecoverStaleClientSpec(seed);
                   // FUSEE stalls on every failed verb; milder drops keep the
                   // scenario moving while the spikes do the stale-verb work.
                   spec.faults.max_drop_p = 0.15;
                   return spec;
                 });
  ExpectFencePathCovered(cov);
}

// The two once-open windows, pinned. Both were recorded in the ROADMAP when
// >100 us spikes first excavated them; a fixed seed each keeps the exact
// excavation in the suite forever (regressions replay byte-identically).

TEST(ChaosSwarmKv, ExtremeSpikeRecordedSeed9068StaysLinearizable) {
  ScenarioSpec spec = ExtremeSpikeStaleClientSpec(9068);
  spec.faults.lease_weight = 0.3;
  spec.faults.churn_weight = 0.3;
  spec.faults.fault_index_link = true;
  RunCrashRecoverScenario("swarm", spec, /*stale_client=*/true);
}

TEST(ChaosDmAbdKv, ExtremeSpikeRecordedSeed9697StaysLinearizable) {
  ScenarioSpec spec = ExtremeSpikeStaleClientSpec(9697);
  spec.faults.fault_index_link = true;
  RunCrashRecoverScenario("dmabd", spec, /*stale_client=*/true);
}

// And the sweeps: fresh seed bases so the regime keeps digging for new
// windows instead of replaying the two it already found.

TEST(ChaosSwarmKv, ExtremeSpikeStaleClientStaysLinearizable) {
  FencePathCoverage cov;
  DriveScenarios(14000,
                 [&cov](const ScenarioSpec& s) {
                   cov.Add(RunCrashRecoverScenario("swarm", s, /*stale_client=*/true));
                 },
                 [](uint64_t seed) {
                   ScenarioSpec spec = ExtremeSpikeStaleClientSpec(seed);
                   spec.faults.lease_weight = 0.3;
                   spec.faults.churn_weight = 0.3;
                   spec.faults.fault_index_link = true;
                   return spec;
                 });
  ExpectFencePathCovered(cov);
}

TEST(ChaosDmAbdKv, ExtremeSpikeStaleClientStaysLinearizable) {
  FencePathCoverage cov;
  DriveScenarios(14300,
                 [&cov](const ScenarioSpec& s) {
                   cov.Add(RunCrashRecoverScenario("dmabd", s, /*stale_client=*/true));
                 },
                 [](uint64_t seed) {
                   ScenarioSpec spec = ExtremeSpikeStaleClientSpec(seed);
                   spec.faults.fault_index_link = true;
                   return spec;
                 });
  ExpectFencePathCovered(cov);
}

TEST(ChaosFuseeKv, ExtremeSpikeStaleClientStaysLinearizable) {
  FencePathCoverage cov;
  DriveScenarios(14600,
                 [&cov](const ScenarioSpec& s) {
                   cov.Add(RunCrashRecoverScenario("fusee", s, /*stale_client=*/true));
                 },
                 [](uint64_t seed) {
                   ScenarioSpec spec = ExtremeSpikeStaleClientSpec(seed);
                   // FUSEE stalls on every failed verb; milder drops keep
                   // the scenario moving while the spikes do the work.
                   spec.faults.max_drop_p = 0.15;
                   return spec;
                 });
  ExpectFencePathCovered(cov);
}

// ---------- Asymmetric sustained partitions ----------
//
// One direction of one link drops EVERYTHING for 40–120 us while the other
// keeps delivering (chaos.h kPartition). Both halves are nastier than the
// probabilistic bursts above: requests-dropped starves a whole quorum leg
// (the node is healthy but unreachable, so failure detection and quorum
// math disagree about it), and acks-dropped is the half-open split where
// every verb APPLIES at the node but completes locally as failed — a whole
// leg of possibly-applied state accumulating for the duration. A modest
// crash budget rides along so partitions overlap real failures.

ScenarioSpec DirectionalPartitionSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 4;
  spec.ops_per_client = 14;
  spec.mean_think = 16000;  // Stretch the workload past a full partition.
  spec.faults.horizon = 240 * sim::kMicrosecond;
  spec.faults.mean_gap = 10 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;
  spec.faults.restart = false;
  spec.faults.max_drop_p = 0.25;
  spec.faults.partition_weight = 2.5;
  spec.faults.min_partition_duration = 40 * sim::kMicrosecond;
  spec.faults.max_partition_duration = 120 * sim::kMicrosecond;
  return spec;
}

TEST(ChaosSwarmKv, DirectionalPartitionsStayLinearizable) {
  DriveScenarios(13000, [](const ScenarioSpec& s) { RunKvScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = DirectionalPartitionSpec(seed);
    spec.faults.lease_weight = 0.4;
    spec.faults.churn_weight = 0.4;
    spec.faults.fault_index_link = true;  // Partitions can isolate the index RPC link too.
    return spec;
  });
}

TEST(ChaosDmAbdKv, DirectionalPartitionsStayLinearizable) {
  DriveScenarios(13300, [](const ScenarioSpec& s) { RunKvScenario("dmabd", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = DirectionalPartitionSpec(seed);
    spec.faults.fault_index_link = true;
    return spec;
  });
}

TEST(ChaosFuseeKv, DirectionalPartitionsStayLinearizable) {
  DriveScenarios(13600, [](const ScenarioSpec& s) { RunKvScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = DirectionalPartitionSpec(seed);
    // A partitioned leg reads as a failed node to FUSEE's synchronous
    // replication, and every such verb costs a full recovery stall: milder
    // background drops and shorter partitions keep the scenario moving.
    spec.faults.max_drop_p = 0.15;
    spec.faults.max_partition_duration = 80 * sim::kMicrosecond;
    return spec;
  });
}

// ---------- Long-horizon soaks: 2,048 ops across 64 keys ----------
//
// The scenarios the 63-op cap forbade: ~2.5 ms of virtual time, ~100 faults
// per run including per-QP drop bursts, histories in the thousands of ops.
// The checker epilogue also enforces the acceptance bar: the full soak
// history checks in well under 5 seconds.

constexpr double kSoakCheckBudgetSeconds = 5.0;

TEST(ChaosSwarmKvSoak, LongHorizonFullMixStaysLinearizable) {
  DriveSoakScenarios(40000,
                     [](const ScenarioSpec& spec) {
                       RunKvScenario("swarm", spec, kSoakCheckBudgetSeconds);
                     },
                     [](uint64_t seed) {
                       ScenarioSpec spec = LongHorizonSoakSpec(seed);
                       // The full SWARM-KV fault surface: lease expiries,
                       // recycler churn epochs, index-link faults, per-QP
                       // bursts — with enough horizon for slow incubation.
                       spec.faults.lease_weight = 0.5;
                       spec.faults.churn_weight = 0.5;
                       spec.faults.fault_index_link = true;
                       return spec;
                     });
}

TEST(ChaosDmAbdKvSoak, LongHorizonFullMixStaysLinearizable) {
  DriveSoakScenarios(41000,
                     [](const ScenarioSpec& spec) {
                       RunKvScenario("dmabd", spec, kSoakCheckBudgetSeconds);
                     },
                     [](uint64_t seed) {
                       ScenarioSpec spec = LongHorizonSoakSpec(seed);
                       spec.faults.fault_index_link = true;
                       return spec;
                     });
}

TEST(ChaosFuseeKvSoak, LongHorizonFullMixStaysLinearizable) {
  DriveSoakScenarios(42000,
                     [](const ScenarioSpec& spec) {
                       RunKvScenario("fusee", spec, kSoakCheckBudgetSeconds);
                     },
                     [](uint64_t seed) {
                       ScenarioSpec spec = LongHorizonSoakSpec(seed);
                       // Milder drops: every failed verb stalls FUSEE behind
                       // a full recovery, and the soak has 2,048 of them.
                       spec.faults.max_drop_p = 0.12;
                       return spec;
                     });
}

// ---------- Remove-heavy single-key soak ----------
//
// The degenerate shape for the time-window splitter: one key, half the ops
// removes, faults leaving PENDING removes behind. Pre-fix, an observed
// pending write of a duplicate/zero value kept its window open to the end of
// the cell, so the whole 1,000+-op history collapsed into one window and the
// check blew up exponentially. The optimistic next-completed-overwrite cap
// (with its exact fallback) re-enables the cuts; this suite pins the
// check-time budget.

TEST(ChaosSwarmKvSoak, RemoveHeavySingleKeySoakChecksWithinBudget) {
  DriveSoakScenarios(43000,
                     [](const ScenarioSpec& spec) {
                       // Remove-heavy mix: 30% gets / 10% updates / 15%
                       // inserts / 45% removes.
                       // Budget + structural guard: capped runs peak below
                       // ~300 ops per window here, while the pre-fix splitter
                       // degenerates to 900+-op windows (nearly the whole
                       // cell) on the same seeds.
                       RunKvScenario("swarm", spec, kSoakCheckBudgetSeconds,
                                          testing::KvOpMix{0.30, 0.40, 0.55},
                                          /*max_window_ops=*/512);
                     },
                     [](uint64_t seed) {
                       ScenarioSpec spec = LongHorizonSoakSpec(seed);
                       spec.keys = 1;  // Every op lands in ONE checker cell.
                       spec.ops_per_client = 128;  // 1,024 ops on the key.
                       spec.faults.lease_weight = 0.3;
                       spec.faults.churn_weight = 0.3;
                       // Ack-biased drops: removes APPLY but report
                       // unavailable — the observed-pending removes whose
                       // unbounded windows used to swallow the whole cell.
                       spec.faults.max_drop_p = 0.4;
                       spec.faults.drop_ack_weight = 4.0;
                       return spec;
                     });
}

// ---------- Client split-brain scenarios ----------
//
// The adversary the single-link partitions never modeled: the CLIENT
// population is cut into two groups that each reach a disjoint subset of the
// nodes, so both sides keep completing quorum ops against different replica
// subsets for the split's whole duration, and the merged history is what the
// checker must reconcile. Short spec for seed breadth; the soak variant
// below layers splits onto the full long-horizon mix.

ScenarioSpec ClientSplitSpec(uint64_t seed) {
  ScenarioSpec spec = KvSpec(seed);
  spec.mean_think = 16000;  // Stretch the workload past a full split.
  spec.faults.horizon = 240 * sim::kMicrosecond;
  spec.faults.qp_tag_count = spec.clients;  // Splits group clients by QP tag.
  spec.faults.client_split_weight = 2.5;
  spec.faults.min_client_split_duration = 40 * sim::kMicrosecond;
  spec.faults.max_client_split_duration = 120 * sim::kMicrosecond;
  return spec;
}

TEST(ChaosSwarmKv, ClientSplitBrainStaysLinearizable) {
  DriveScenarios(15000, [](const ScenarioSpec& s) { RunKvScenario("swarm", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ClientSplitSpec(seed);
    spec.faults.lease_weight = 0.4;
    spec.faults.churn_weight = 0.4;
    return spec;
  });
}

TEST(ChaosDmAbdKv, ClientSplitBrainStaysLinearizable) {
  DriveScenarios(15300, [](const ScenarioSpec& s) { RunKvScenario("dmabd", s); },
                 [](uint64_t seed) { return ClientSplitSpec(seed); });
}

TEST(ChaosFuseeKv, ClientSplitBrainStaysLinearizable) {
  DriveScenarios(15600, [](const ScenarioSpec& s) { RunKvScenario("fusee", s); },
                 [](uint64_t seed) {
    ScenarioSpec spec = ClientSplitSpec(seed);
    // Cross-side drops read as failed nodes to FUSEE's synchronous
    // replication and each costs a recovery stall; shorter splits and milder
    // background drops keep the scenario moving.
    spec.faults.max_drop_p = 0.15;
    spec.faults.max_client_split_duration = 80 * sim::kMicrosecond;
    return spec;
  });
}

TEST(ChaosSwarmKvSoak, ClientSplitBrainSoakStaysLinearizable) {
  DriveSoakScenarios(44000,
                     [](const ScenarioSpec& spec) {
                       RunKvScenario("swarm", spec, kSoakCheckBudgetSeconds);
                     },
                     [](uint64_t seed) {
                       ScenarioSpec spec = SplitBrainSoakSpec(seed);
                       spec.faults.lease_weight = 0.5;
                       spec.faults.churn_weight = 0.5;
                       return spec;
                     });
}

TEST(ChaosDmAbdKvSoak, ClientSplitBrainSoakStaysLinearizable) {
  DriveSoakScenarios(45000,
                     [](const ScenarioSpec& spec) {
                       RunKvScenario("dmabd", spec, kSoakCheckBudgetSeconds);
                     },
                     [](uint64_t seed) { return SplitBrainSoakSpec(seed); });
}

TEST(ChaosFuseeKvSoak, ClientSplitBrainSoakStaysLinearizable) {
  DriveSoakScenarios(46000,
                     [](const ScenarioSpec& spec) {
                       // min_ops_fraction 0.5: splits blind FUSEE (see
                       // ExpectLinearizable) — recovery stalls chain across
                       // the horizon and ~40% of ops die unavailable.
                       RunKvScenario("fusee", spec, kSoakCheckBudgetSeconds, {},
                                     /*max_window_ops=*/0, /*min_ops_fraction=*/0.5);
                     },
                     [](uint64_t seed) {
                       ScenarioSpec spec = SplitBrainSoakSpec(seed);
                       spec.faults.max_drop_p = 0.12;
                       spec.faults.client_split_weight = 0.5;
                       spec.faults.min_client_split_duration = 30 * sim::kMicrosecond;
                       spec.faults.max_client_split_duration = 80 * sim::kMicrosecond;
                       return spec;
                     });
}

// ---------- Checker-scale storms: 10^5 ops per scenario ----------
//
// 10 clients x 10,000 ops over 64 keys under client split-brain plus
// multi-tenant Zipfian hot-key contention (theta=0.99, 5 tenants on rotated
// hot sets — the examples/ workload promoted into the fault regime). The
// hottest cells run to ~10^4 ops, the scale the frontier DFS + persistent
// memo were built for; the 60 s budget is the acceptance bar and is pure
// check time, not simulation time. Suites are named *ScaleSoak* so the
// chaos-soak CI jobs can exclude them; the checker-scale job runs them with
// CHAOS_SCALE_SCENARIOS raised (locally they default to one scenario each).

constexpr double kScaleCheckBudgetSeconds = 60.0;

TEST(ChaosSwarmKvScaleSoak, HundredThousandOpStormStaysLinearizable) {
  DriveScaleScenarios(47000,
                      [](const ScenarioSpec& spec) {
                        RunKvScenario("swarm", spec, kScaleCheckBudgetSeconds);
                      },
                      [](uint64_t seed) {
                        ScenarioSpec spec = CheckerScaleSoakSpec(seed);
                        spec.faults.lease_weight = 0.5;
                        spec.faults.churn_weight = 0.5;
                        return spec;
                      });
}

TEST(ChaosDmAbdKvScaleSoak, HundredThousandOpStormStaysLinearizable) {
  DriveScaleScenarios(48000,
                      [](const ScenarioSpec& spec) {
                        RunKvScenario("dmabd", spec, kScaleCheckBudgetSeconds);
                      },
                      [](uint64_t seed) { return CheckerScaleSoakSpec(seed); });
}

TEST(ChaosFuseeKvScaleSoak, HundredThousandOpStormStaysLinearizable) {
  DriveScaleScenarios(49000,
                      [](const ScenarioSpec& spec) {
                        RunKvScenario("fusee", spec, kScaleCheckBudgetSeconds, {},
                                      /*max_window_ops=*/0, /*min_ops_fraction=*/0.5);
                      },
                      [](uint64_t seed) {
                        ScenarioSpec spec = CheckerScaleSoakSpec(seed);
                        spec.faults.max_drop_p = 0.10;
                        spec.faults.max_client_split_duration = 100 * sim::kMicrosecond;
                        return spec;
                      });
}

}  // namespace
}  // namespace swarm
