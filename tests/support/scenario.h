// Chaos scenario scaffolding: ScenarioSpec + the machinery shared by the
// chaos suites (tests/chaos_*_test.cc).
//
// A scenario is a randomized multi-client open-loop workload interleaved
// with ChaosEngine fault injection. (ScenarioSpec, seed) fully determines
// the execution: every random choice — client think times, key picks, fault
// instants, drop coin-flips, latency jitter — is drawn either from the
// simulator's seeded Rng or from client Rngs derived from the seed. A
// failing seed printed by a suite replays byte-identically via the
// CHAOS_SEED environment variable (or tests/chaos_replay_test.cc, which
// asserts trace-hash identity).
//
// Environment knobs:
//   CHAOS_SCENARIOS=N  run N scenarios per suite (CI uses 200)
//   CHAOS_SEED=S       run only seed S (replay of a reported failure)

#ifndef SWARM_TESTS_SUPPORT_SCENARIO_H_
#define SWARM_TESTS_SUPPORT_SCENARIO_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/deploy/deployment.h"
#include "src/kv/kv_types.h"
#include "src/membership/membership.h"
#include "src/repair/migration.h"
#include "src/repair/repair.h"
#include "src/sim/chaos.h"
#include "src/verify/lincheck.h"
#include "src/ycsb/workload.h"
#include "tests/support/test_env.h"

namespace swarm::testing {

// Scenarios per suite: CHAOS_SCENARIOS overrides the built-in default.
inline int ScenarioCount(int fallback) {
  if (const char* s = std::getenv("CHAOS_SCENARIOS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) {
      return static_cast<int>(v);
    }
  }
  return fallback;
}

// Long-horizon soak scenarios are ~40x the virtual time of a regular one, so
// they scale through their own knob (CI's chaos-soak job raises it; the ASan
// matrix lowers it) instead of CHAOS_SCENARIOS.
inline constexpr int kDefaultSoakScenarios = 3;

inline int SoakScenarioCount(int fallback = kDefaultSoakScenarios) {
  if (const char* s = std::getenv("CHAOS_SOAK_SCENARIOS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) {
      return static_cast<int>(v);
    }
  }
  return fallback;
}

// Checker-scale soaks (10^5 ops) are ~50x a long-horizon soak, so they get
// their own knob and default to ONE scenario per suite locally; the CI
// checker-scale job raises it.
inline int ScaleScenarioCount(int fallback = 1) {
  if (const char* s = std::getenv("CHAOS_SCALE_SCENARIOS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) {
      return static_cast<int>(v);
    }
  }
  return fallback;
}

// Replay mode: CHAOS_SEED pins every suite to one seed.
inline bool ForcedSeed(uint64_t* seed) {
  if (const char* s = std::getenv("CHAOS_SEED")) {
    *seed = std::strtoull(s, nullptr, 10);
    return true;
  }
  return false;
}

// A scenario: workload shape + fault mix. Together with `seed` this fully
// determines the execution.
struct ScenarioSpec {
  uint64_t seed = 1;
  int clients = 4;
  uint64_t keys = 4;          // Key space (KV suites); protocol suites use 1 register.
  int ops_per_client = 10;
  uint32_t value_size = 16;
  sim::Time mean_think = 6000;     // Mean gap between a client's ops.
  int64_t max_clock_skew = 5000;   // Per-client GuessClock skew bound, ns.
  // Hot-key contention (multi-tenant Zipfian storms): when zipf_theta > 0,
  // KvChaosClient draws keys Zipfian(theta)-skewed instead of uniformly.
  // With tenants > 1, client c belongs to tenant (c % tenants) and its
  // distribution is rotated by the tenant's block offset, so each tenant
  // hammers a DIFFERENT hot key while all tenants share the full key space
  // — per-key cells stay dense (the checker-scale regime) without
  // partitioning the store into disjoint namespaces.
  double zipf_theta = 0.0;
  int tenants = 1;
  chaos::ChaosConfig faults;
};

// Long-horizon soak: 2,048 ops across 64 keys (~2.5 ms of virtual time)
// under the full fault mix, including per-QP drop bursts singling out one
// client's queue pair. Impossible before the unbounded checker: the legacy
// DFS capped every per-key history at 63 ops, forcing scenarios short enough
// that faults needing long incubation (recycler horizon churn across many
// epochs, slow ack-biased drop accumulation, repair overlapping later
// faults) were never observed under the linearizability contract. Suites add
// their store-specific fault classes (lease/churn weights, repair) on top.
inline ScenarioSpec LongHorizonSoakSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 8;
  spec.keys = 64;
  spec.ops_per_client = 256;  // 2,048 ops total.
  spec.value_size = 16;
  spec.mean_think = 5000;
  spec.faults.horizon = 1 * sim::kMillisecond;
  spec.faults.mean_gap = 10 * sim::kMicrosecond;  // ~100 faults per scenario.
  spec.faults.max_crashed = 1;
  spec.faults.restart = false;  // Crash-stop unless the suite wires repair.
  spec.faults.max_drop_p = 0.30;
  spec.faults.qp_drop_weight = 0.6;
  spec.faults.qp_tag_count = spec.clients;
  return spec;
}

// The long-horizon regime plus recurring client split-brain partitions:
// the client population is repeatedly cut into two groups that each see a
// disjoint subset of the nodes (chaos::ChaosConfig::client_split_weight), so
// both sides keep completing ops against different replica subsets and the
// merged history is what the checker must reconcile. The weight makes splits
// the single most likely fault class; everything else from the soak mix
// stays in.
inline ScenarioSpec SplitBrainSoakSpec(uint64_t seed) {
  ScenarioSpec spec = LongHorizonSoakSpec(seed);
  spec.faults.client_split_weight = 1.5;
  spec.faults.min_client_split_duration = 40 * sim::kMicrosecond;
  spec.faults.max_client_split_duration = 200 * sim::kMicrosecond;
  return spec;
}

// Checker-scale soak: 10^5 ops (10 clients x 10,000 ops over 64 keys,
// ~100 ms of virtual time) under client split-brain + multi-tenant Zipfian
// hot-key contention. The fault horizon covers the first ~40 ms so the tail
// drains cleanly and histories complete. This is the regime the frontier
// checker + persistent memo were built for: the hottest tenant keys
// accumulate 10^4-op cells, which the scan-based engine's O(n) enabling
// rescan and per-state bitset copies made intractable. Suites assert a
// wall-clock budget on the check itself (<60 s, see chaos_kv_test.cc).
inline ScenarioSpec CheckerScaleSoakSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 10;
  spec.keys = 64;
  spec.ops_per_client = 10000;  // 100,000 ops total.
  spec.value_size = 16;
  spec.mean_think = 5000;
  spec.zipf_theta = 0.99;
  spec.tenants = 5;
  spec.faults.horizon = 40 * sim::kMillisecond;
  spec.faults.mean_gap = 150 * sim::kMicrosecond;  // ~250 faults per scenario.
  spec.faults.max_crashed = 1;
  spec.faults.restart = false;  // Crash-stop unless the suite wires repair.
  spec.faults.max_drop_p = 0.20;
  spec.faults.qp_drop_weight = 0.5;
  spec.faults.qp_tag_count = spec.clients;
  spec.faults.client_split_weight = 1.0;
  return spec;
}

// Simulator + fabric + membership + chaos engine for the register-level
// chaos suites, which drive protocol objects directly instead of a KV
// deployment. Workers subscribe to membership notifications and share the
// membership service's per-node `repairing` set, so quorum selection
// excludes nodes mid-repair; each worker also carries a membership epoch
// (§5.4 QP revocation) pushed by the service, so every chaos suite exercises
// the epoch-fenced verb path. Every chaos client worker is a writer, so the
// protocol is sized by the deployment's writer rule (deploy::SizeProtocol).
struct ChaosEnv {
  explicit ChaosEnv(const ScenarioSpec& spec)
      : env(spec.seed, TestEnv::DefaultFabric(),
            deploy::SizeProtocol(TestEnv::DefaultProtocol(), spec.clients)),
        membership(&env.sim, &env.fabric, /*detection_delay=*/50 * sim::kMicrosecond),
        engine(&env.fabric, &membership, spec.faults) {
    membership.Subscribe(env.known_failed);
  }

  // Chaos workers are tagged in creation order so per-QP drop bursts
  // (ChaosConfig::qp_drop_weight with qp_tag_count = spec.clients) can
  // single out one client's queue pair. Suites that create one worker per
  // client in client order therefore get tag == client id for free.
  Worker& MakeSkewedWorker(const ScenarioSpec& spec) {
    Worker& w = env.MakeWorker(env.sim.rng().Range(-spec.max_clock_skew, spec.max_clock_skew));
    w.set_repair_excluded(membership.repairing());
    w.set_chaos_tag(next_chaos_tag_++);
    WireWorkerEpoch(w, membership);
    return w;
  }

  TestEnv env;
  membership::MembershipService membership;
  chaos::ChaosEngine engine;
  int next_chaos_tag_ = 0;
};

// The elastic-membership choreography the chaos engine's migration hook
// fires (ChaosEngine::set_migration_fn; free function because the hook's
// lambda must not itself be a coroutine). Even steps grow — admit a fresh
// node and rebalance three keys onto it — odd steps shrink — drain node 0
// and decommission it. Every store moves through the same MigrationService,
// so one step serves them all.
inline sim::Task<bool> GrowShrinkStep(repair::MigrationService* migration, int step) {
  if (step % 2 == 0) {
    const int node = co_await migration->AdmitAndRebalance(/*max_keys=*/3);
    co_return node >= 0;
  }
  co_return co_await migration->Drain(/*node=*/0, /*decommission=*/true);
}

inline std::vector<uint8_t> EncodeValue(uint64_t v, uint32_t size) {
  std::vector<uint8_t> b(std::max<uint32_t>(size, 8));
  std::memcpy(b.data(), &v, 8);
  return b;
}

inline uint64_t DecodeValue(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  if (b.size() >= 8) {
    std::memcpy(&v, b.data(), 8);
  }
  return v;
}

// Per-key recorded histories. Value 0 models "absent" (never inserted or
// deleted); writes use globally unique nonzero values.
struct ChaosHistories {
  std::map<uint64_t, std::vector<verify::HistoryOp>> per_key;
  uint64_t next_value = 1;
  int pending_ops = 0;   // Ops recorded as possibly-applied.
  int failed_reads = 0;  // Unavailable reads (no constraint, not recorded).
};

// Op-mix for KvChaosClient: cumulative dice cutoffs (get < update < insert;
// the remainder is removes). The default reproduces the original
// 40/30/20/10 mix; the repair canaries use a remove-heavy variant.
struct KvOpMix {
  double get = 0.40;
  double update = 0.70;
  double insert = 0.90;
};

// One KV chaos client: randomized gets/updates/inserts/removes against a
// shared small key space, recording every op's invocation/response. Ops
// whose outcome the client never learned (unavailable quorum, node timeouts)
// are recorded as PENDING writes — possibly applied — which is exactly the
// ambiguity LinearizabilityChecker::Check resolves.
inline sim::Task<void> KvChaosClient(sim::Simulator* sim, kv::KvSession* kv, uint64_t rng_seed,
                                     const ScenarioSpec& spec, ChaosHistories* hist,
                                     KvOpMix mix = {}, int client = 0) {
  sim::Rng rng(rng_seed);
  // Zipfian hot-key mode: rank 0 (the hottest key) maps to the client's
  // tenant offset, so tenants contend on different hot keys over the shared
  // key space. Draws come from the client's own rng — determinism per
  // (spec, seed) is unchanged.
  ycsb::ZipfianGenerator zipf(spec.keys, spec.zipf_theta > 0.0 ? spec.zipf_theta : 0.99);
  const uint64_t tenant_offset =
      spec.tenants > 1
          ? static_cast<uint64_t>(client % spec.tenants) * (spec.keys / spec.tenants)
          : 0;
  for (int i = 0; i < spec.ops_per_client; ++i) {
    co_await sim->Delay(
        1 + static_cast<sim::Time>(rng.Below(static_cast<uint64_t>(2 * spec.mean_think))));
    const uint64_t key = spec.zipf_theta > 0.0
                             ? (zipf.Next(rng) + tenant_offset) % spec.keys
                             : rng.Below(spec.keys);
    const double dice = rng.Double();
    verify::HistoryOp op;
    op.invoked = sim->Now();
    if (dice < mix.get) {
      // Get. A failed read constrains nothing and is dropped entirely.
      kv::KvResult r = co_await kv->Get(key);
      op.responded = sim->Now();
      if (r.status == kv::KvStatus::kUnavailable) {
        ++hist->failed_reads;
        continue;
      }
      op.is_write = false;
      op.value = r.status == kv::KvStatus::kOk ? DecodeValue(r.value) : 0;
    } else if (dice < mix.update) {
      // Update. kNotFound is a read of "absent"; an unavailable outcome is a
      // possibly-applied write (some replicas may hold it).
      const uint64_t v = hist->next_value++;
      kv::KvResult r = co_await kv->Update(key, EncodeValue(v, spec.value_size));
      op.responded = sim->Now();
      op.is_write = true;
      op.value = v;
      if (r.status == kv::KvStatus::kUnavailable ||
          (r.status == kv::KvStatus::kNotFound && r.ambiguous)) {
        // Unknown outcome — including the tombstone-bounce case where the
        // guessed word was installed and a racing reader may commit it.
        op.pending = true;
        ++hist->pending_ops;
      } else if (r.status == kv::KvStatus::kNotFound) {
        op.is_write = false;
        op.value = 0;
      }
    } else if (dice < mix.insert) {
      // Insert (updates when the key exists).
      const uint64_t v = hist->next_value++;
      kv::KvResult r = co_await kv->Insert(key, EncodeValue(v, spec.value_size));
      op.responded = sim->Now();
      op.is_write = true;
      op.value = v;
      if (!r.ok()) {
        op.pending = true;
        ++hist->pending_ops;
      }
    } else {
      // Remove: a write of "absent". Not-found removes read "absent".
      kv::KvResult r = co_await kv->Remove(key);
      op.responded = sim->Now();
      op.is_write = true;
      op.value = 0;
      if (r.status == kv::KvStatus::kUnavailable) {
        op.pending = true;
        ++hist->pending_ops;
      } else if (r.status == kv::KvStatus::kNotFound) {
        op.is_write = false;
      }
    }
    hist->per_key[key].push_back(op);
  }
}

// The deployment a KV chaos scenario runs on (src/deploy): the spec's seed,
// client count and clock skew over the unit fixtures' fabric and protocol.
// Runners add the store-specific parts (repair, migration, FUSEE recovery).
inline deploy::DeploymentConfig ChaosDeployment(const ScenarioSpec& spec, const char* store,
                                               fabric::FabricConfig fabric =
                                                   TestEnv::DefaultFabric()) {
  deploy::DeploymentConfig cfg;
  cfg.seed = spec.seed;
  cfg.store = store;
  cfg.fabric = fabric;
  cfg.proto = TestEnv::DefaultProtocol();
  cfg.num_clients = spec.clients;
  cfg.max_clock_skew_ns = spec.max_clock_skew;
  return cfg;
}

// A KV chaos scenario: a full deployment plus the chaos engine on its fabric
// and membership. Client i's worker carries chaos tag i, so per-QP drop
// bursts (ChaosConfig::qp_drop_weight with qp_tag_count = spec.clients)
// single out one client's queue pair. The engine's hooks drive what the
// deployment built: recycler epoch churn (a round after renewing every
// lease), crash-recover repair and the grow/shrink migration steps.
struct KvChaos {
  KvChaos(const ScenarioSpec& spec, const deploy::DeploymentConfig& cfg)
      : d(cfg), engine(&d.fabric(), &d.membership(), spec.faults) {
    for (int c = 0; c < d.num_clients(); ++c) {
      for (deploy::ClientWorker& w : d.client(c).workers) {
        w.worker->set_chaos_tag(c);
      }
    }
    engine.set_epoch_churn([r = &d.recycler()]() -> sim::Task<void> {
      r->HeartbeatAll();
      return r->RunRound();
    });
    if (repair::RepairService* repair = d.repair()) {
      engine.set_repair_fn([repair](int node) { return repair->RecoverAndRepair(node); });
    }
    if (repair::MigrationService* migration = d.migration()) {
      engine.set_migration_fn(
          [this, migration] { return GrowShrinkStep(migration, migration_step++); });
    }
  }

  // One KvChaosClient per session, recording into `hist`.
  void SpawnClients(const ScenarioSpec& spec, ChaosHistories* hist, KvOpMix mix = {}) {
    for (int i = 0; i < d.num_sessions(); ++i) {
      sim::Spawn(KvChaosClient(&d.sim(), &d.session(i),
                               spec.seed * 131 + static_cast<uint64_t>(i), spec, hist, mix, i));
    }
  }

  void Run() {
    engine.Start();
    d.sim().Run();
  }

  deploy::Deployment d;
  chaos::ChaosEngine engine;
  int migration_step = 0;
};

// The stale-client suites' deaf client: from now on no membership push
// reaches `w` — neither node-failure notifications nor epoch advances — so it
// keeps stamping verbs with its current epoch across whole crash-repair
// cycles. Its only way forward is the fence itself: kStaleEpoch completions
// force the re-validation pull (Worker::RefreshEpoch).
inline void MakeDeaf(Worker& w, const membership::MembershipService& membership) {
  w.set_known_failed(
      std::make_shared<std::vector<bool>>(static_cast<size_t>(w.fabric()->max_nodes()), false));
  auto epoch = std::make_shared<fabric::ClientEpoch>();
  epoch->value = membership.epoch();
  w.set_epoch(std::move(epoch));
}

// Checks every per-key history through the unbounded checker (src/verify/
// lincheck.h): keys become P-compositionality cells of ONE keyed history, so
// multi-thousand-op soaks decompose instead of hitting the legacy 63-op cap.
// Returns "" or the checker's minimal-failing-window report. `stats`, when
// given, receives the run's CheckStats (the remove-heavy soak asserts the
// splitter kept cutting).
inline std::string CheckHistories(const ChaosHistories& hist,
                                  verify::CheckStats* stats = nullptr) {
  std::vector<verify::HistoryOp> flat;
  for (const auto& [key, ops] : hist.per_key) {
    for (verify::HistoryOp op : ops) {
      op.key = key;
      flat.push_back(op);
    }
  }
  verify::CheckResult report = verify::LinearizabilityChecker::CheckReport(flat);
  if (stats != nullptr) {
    *stats = report.stats;
  }
  return report.linearizable ? "" : report.Describe(flat);
}

// Drives `run(make_spec(seed))` over `count` seeds starting at `seed_base`,
// honoring CHAOS_SEED replay mode, stopping at the first failing seed (the
// one to replay).
template <typename RunFn, typename SpecFn>
void DriveScenariosN(int count, uint64_t seed_base, RunFn run, SpecFn make_spec) {
  uint64_t forced = 0;
  if (ForcedSeed(&forced)) {
    run(make_spec(forced));
    return;
  }
  for (int i = 0; i < count; ++i) {
    run(make_spec(seed_base + static_cast<uint64_t>(i)));
    if (::testing::Test::HasFailure()) {
      break;  // The first failing seed is the one to replay.
    }
  }
}

// Regular suites: CHAOS_SCENARIOS scenarios each (CI raises the default).
inline constexpr int kDefaultChaosScenarios = 40;

template <typename RunFn, typename SpecFn>
void DriveScenarios(uint64_t seed_base, RunFn run, SpecFn make_spec) {
  DriveScenariosN(ScenarioCount(kDefaultChaosScenarios), seed_base, run, make_spec);
}

// Soak suites: CHAOS_SOAK_SCENARIOS scenarios each.
template <typename RunFn, typename SpecFn>
void DriveSoakScenarios(uint64_t seed_base, RunFn run, SpecFn make_spec) {
  DriveScenariosN(SoakScenarioCount(), seed_base, run, make_spec);
}

// Checker-scale suites: CHAOS_SCALE_SCENARIOS scenarios each (default 1).
template <typename RunFn, typename SpecFn>
void DriveScaleScenarios(uint64_t seed_base, RunFn run, SpecFn make_spec) {
  DriveScenariosN(ScaleScenarioCount(), seed_base, run, make_spec);
}

// Failure annotation: the seed, how to replay it, and what was injected.
inline std::string SeedMessage(const ScenarioSpec& spec, const chaos::ChaosEngine& engine) {
  std::string filter = "*";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    filter = std::string(info->test_suite_name()) + "." + info->name();
  }
  return "seed=" + std::to_string(spec.seed) + " faults=[" + engine.TraceSummary() +
         "]  replay: CHAOS_SEED=" + std::to_string(spec.seed) +
         " <binary> --gtest_filter=" + filter;
}

}  // namespace swarm::testing

#endif  // SWARM_TESTS_SUPPORT_SCENARIO_H_
