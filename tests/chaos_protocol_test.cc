// Chaos suites for the protocol layer: ABD registers (full linearizability
// histories), the reliable quorum-max register (validity + monotonicity),
// single-node In-n-Out (untorn values, max semantics), and timestamp locks
// (true exclusion) — each under machine-generated crash/delay/drop schedules
// driven by the seeded chaos engine. Failures print the reproducing seed.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/swarm/abd.h"
#include "src/swarm/inout.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/timestamp_lock.h"
#include "tests/support/scenario.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::ChaosEnv;
using testing::ChaosHistories;
using testing::CheckHistories;
using testing::DecodeValue;
using testing::EncodeValue;
using testing::DriveScenarios;
using verify::HistoryOp;
using testing::ScenarioSpec;
using testing::SeedMessage;
using testing::ValN;

ScenarioSpec ProtoSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.ops_per_client = 12;
  spec.mean_think = 7000;
  spec.faults.horizon = 140 * sim::kMicrosecond;
  spec.faults.mean_gap = 8 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;  // A minority of every 3-replica object.
  spec.faults.restart = false;  // Crash-stop (restarted nodes come back empty).
  spec.faults.crashable_nodes = 3;
  return spec;
}

// ---------- ABD register: full history linearizability ----------

Task<void> AbdChaosClient(ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                          const ScenarioSpec* spec, ChaosHistories* hist) {
  AbdObject obj(w, layout, std::make_shared<ObjectCache>());
  sim::Rng rng(rng_seed);
  for (int i = 0; i < spec->ops_per_client; ++i) {
    co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                      rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
    HistoryOp op;
    op.invoked = c->env.sim.Now();
    if (rng.Chance(0.5)) {
      const uint64_t v = hist->next_value++;
      SgWriteResult r = co_await obj.Write(EncodeValue(v, spec->value_size));
      op.responded = c->env.sim.Now();
      op.is_write = true;
      op.value = v;
      if (r.status != SgStatus::kOk) {
        op.pending = true;  // Possibly applied at some replicas.
        ++hist->pending_ops;
      }
    } else {
      SgReadResult r = co_await obj.Read();
      op.responded = c->env.sim.Now();
      if (r.status == SgStatus::kUnavailable) {
        ++hist->failed_reads;
        continue;
      }
      op.is_write = false;
      op.value = r.status == SgStatus::kOk ? DecodeValue(r.value) : 0;
    }
    hist->per_key[0].push_back(op);
  }
}

void RunAbdScenario(const ScenarioSpec& spec) {
  ChaosEnv c(spec);
  std::vector<int> nodes{0, 1, 2};
  const LayoutPin layout = AllocateObject(c.env.fabric, nodes.data(), 3, /*meta_slots=*/1,
                                       /*max_writers=*/1, c.env.proto.max_value,
                                       /*inplace_copies=*/0);
  ChaosHistories hist;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    Spawn(AbdChaosClient(&c, &w, layout.get(), spec.seed * 97 + static_cast<uint64_t>(i), &spec,
                         &hist));
  }
  c.engine.Start();
  c.env.sim.Run();
  const std::string violation = CheckHistories(hist);
  EXPECT_TRUE(violation.empty()) << violation << "\n  " << SeedMessage(spec, c.engine);
}

TEST(ChaosAbd, RandomFaultScenariosStayLinearizable) {
  DriveScenarios(4000, RunAbdScenario, ProtoSpec);
}

// ---------- Quorum-max register: validity + monotonicity ----------

struct QmState {
  std::map<uint64_t, uint8_t> fills;  // same_write_key -> value fill byte.
  uint64_t floor = 0;                 // ts_order_key of the latest completed write.
  uint8_t next_fill = 1;
  std::string violation;
};

Task<void> QmWriter(ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                    const ScenarioSpec* spec, QmState* st) {
  QuorumMax reg(w, layout, w->SlotCacheFor(layout));
  sim::Rng rng(rng_seed);
  for (uint32_t i = 1; i <= static_cast<uint32_t>(spec->ops_per_client); ++i) {
    co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                      rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
    const Meta word = Meta::Pack(i * 64 + w->tid(), w->tid(), false, 0);
    const uint8_t fill = st->next_fill++;
    st->fills[word.same_write_key()] = fill;
    WriteReadOutcome wr = co_await reg.WriteAndRead(word, ValN(16, fill));
    if (wr.ok) {
      st->floor = std::max(st->floor, word.ts_order_key());
    }
  }
}

Task<void> QmReader(ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                    const ScenarioSpec* spec, QmState* st) {
  QuorumMax reg(w, layout, w->SlotCacheFor(layout));
  sim::Rng rng(rng_seed);
  Meta last;
  for (int i = 0; i < spec->ops_per_client; ++i) {
    co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                      rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
    const uint64_t floor_at_invoke = st->floor;
    ReadOutcome r = co_await reg.ReadQuorum(true);
    if (!r.ok) {
      continue;  // No majority answered: no constraint.
    }
    // Write-read monotonicity: a read invoked after a write completed
    // returns at least that write's timestamp.
    if (r.m.ts_order_key() < floor_at_invoke) {
      st->violation = "read returned ts below a completed write's";
    }
    // Read-read monotonicity for this reader.
    if (TsLess(r.m, last)) {
      st->violation = "sequential reads went backwards";
    }
    last = TsMax(last, r.m);
    // Validity: resolved bytes must be exactly what the max's writer wrote.
    if (!r.m.empty() && r.value_ok) {
      auto it = st->fills.find(r.m.same_write_key());
      if (it == st->fills.end()) {
        st->violation = "read resolved a value never written";
      } else {
        for (uint8_t b : r.value) {
          if (b != it->second) {
            st->violation = "read returned torn/foreign bytes";
          }
        }
      }
    }
  }
}

void RunQuorumMaxScenario(const ScenarioSpec& spec) {
  ChaosEnv c(spec);
  const LayoutPin layout = c.env.MakeObject();
  QmState st;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    if (i % 2 == 0) {
      Spawn(QmWriter(&c, &w, layout.get(), spec.seed * 97 + static_cast<uint64_t>(i), &spec, &st));
    } else {
      Spawn(QmReader(&c, &w, layout.get(), spec.seed * 97 + static_cast<uint64_t>(i), &spec, &st));
    }
  }
  c.engine.Start();
  c.env.sim.Run();
  EXPECT_TRUE(st.violation.empty()) << st.violation << "\n  " << SeedMessage(spec, c.engine);
}

TEST(ChaosQuorumMax, ValidityAndMonotonicityUnderFaults) {
  DriveScenarios(5000, RunQuorumMaxScenario, ProtoSpec);
}

// ---------- Single-node In-n-Out: untorn values, max semantics ----------

struct InOutState {
  std::map<uint64_t, uint8_t> fills;
  uint64_t floor = 0;
  uint8_t next_fill = 1;
  std::string violation;
};

Task<void> InOutWriter(ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                       const ScenarioSpec* spec, InOutState* st) {
  InOutReplica rep(w, layout, 0);
  Meta cache;
  sim::Rng rng(rng_seed);
  for (uint32_t i = 1; i <= static_cast<uint32_t>(spec->ops_per_client); ++i) {
    co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                      rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
    const bool verified = rng.Chance(0.4);  // Verified writes refresh in-place.
    const Meta word = Meta::Pack(i * 64 + w->tid(), w->tid(), verified, 0);
    const uint8_t fill = st->next_fill++;
    st->fills[word.same_write_key()] = fill;
    NodeMaxResult wr =
        verified ? co_await rep.WriteVerifiedNode(word, ValN(24, fill), cache)
                 : co_await rep.WriteMax(word, ValN(24, fill), &cache);
    if (wr.ok()) {
      Meta reached = TsMax(wr.installed, wr.observed);
      st->floor = std::max(st->floor, reached.ts_order_key());
      cache = wr.observed.empty() ? cache : wr.observed;
    }
  }
}

Task<void> InOutReader(ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                       const ScenarioSpec* spec, InOutState* st) {
  InOutReplica rep(w, layout, 0);
  sim::Rng rng(rng_seed);
  Meta last;
  for (int i = 0; i < spec->ops_per_client; ++i) {
    co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                      rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
    const uint64_t floor_at_invoke = st->floor;
    NodeView v = co_await rep.ReadNode(true);
    if (!v.ok()) {
      continue;
    }
    if (v.max.ts_order_key() < floor_at_invoke) {
      st->violation = "node max went below a completed write";
    }
    if (TsLess(v.max, last)) {
      st->violation = "sequential reads of one node went backwards";
    }
    last = TsMax(last, v.max);
    if (v.max.empty()) {
      continue;
    }
    std::vector<uint8_t> bytes;
    if (v.inplace_valid) {
      bytes = v.value;
    } else {
      auto oop = co_await rep.ReadOop(v.max);
      if (!oop.has_value()) {
        continue;  // Buffer recycled mid-chase: the caller-level retry case.
      }
      bytes = *oop;
    }
    auto it = st->fills.find(v.max.same_write_key());
    if (it == st->fills.end()) {
      st->violation = "resolved a value never written";
    } else {
      for (uint8_t b : bytes) {
        if (b != it->second) {
          st->violation = "torn or foreign bytes escaped validation";
        }
      }
    }
  }
}

void RunInOutScenario(const ScenarioSpec& spec) {
  ChaosEnv c(spec);
  std::vector<int> nodes{0};
  const LayoutPin layout = AllocateObject(c.env.fabric, nodes.data(), 1, /*meta_slots=*/4,
                                       /*max_writers=*/8, /*max_value=*/24,
                                       /*inplace_copies=*/1);
  InOutState st;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    if (i % 2 == 0) {
      Spawn(InOutWriter(&c, &w, layout.get(), spec.seed * 97 + static_cast<uint64_t>(i), &spec, &st));
    } else {
      Spawn(InOutReader(&c, &w, layout.get(), spec.seed * 97 + static_cast<uint64_t>(i), &spec, &st));
    }
  }
  c.engine.Start();
  c.env.sim.Run();
  EXPECT_TRUE(st.violation.empty()) << st.violation << "\n  " << SeedMessage(spec, c.engine);
}

TEST(ChaosInOut, SingleNodeMaxRegisterUnderLinkFaults) {
  DriveScenarios(6000, RunInOutScenario, [](uint64_t seed) {
    ScenarioSpec spec = ProtoSpec(seed);
    spec.faults.crash_weight = 0;  // One copy: a crash trivially loses data.
    return spec;
  });
}

// ---------- Timestamp locks: true exclusion ----------

struct LockState {
  // Per counter value: did WRITE mode / READ mode ever win?
  std::map<uint32_t, bool> write_won;
  std::map<uint32_t, bool> read_won;
};

Task<void> LockClient(ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint32_t owner_tid,
                      LockMode mode, uint64_t rng_seed, const ScenarioSpec* spec, LockState* st) {
  TimestampLock lock(w, layout, owner_tid);
  sim::Rng rng(rng_seed);
  for (uint32_t cnt = 1; cnt <= static_cast<uint32_t>(spec->ops_per_client); ++cnt) {
    co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                      rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
    TryLockResult r = co_await lock.TryLock(cnt, mode);
    if (r.acquired) {
      (mode == LockMode::kWrite ? st->write_won : st->read_won)[cnt] = true;
    }
  }
}

void RunLockScenario(const ScenarioSpec& spec) {
  ChaosEnv c(spec);
  const LayoutPin layout = c.env.MakeObject();
  LockState st;
  // Client 0 is the lock's owner re-executing writes; the rest are readers
  // racing to commit the owner's guessed timestamps (Algorithm 4).
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    const LockMode mode = i == 0 ? LockMode::kWrite : LockMode::kRead;
    Spawn(LockClient(&c, &w, layout.get(), /*owner_tid=*/0, mode,
                     spec.seed * 97 + static_cast<uint64_t>(i), &spec, &st));
  }
  c.engine.Start();
  c.env.sim.Run();
  for (const auto& [cnt, won] : st.write_won) {
    if (!won) {
      continue;
    }
    auto it = st.read_won.find(cnt);
    EXPECT_FALSE(it != st.read_won.end() && it->second)
        << "true exclusion violated at counter " << cnt << "\n  " << SeedMessage(spec, c.engine);
  }
}

TEST(ChaosTimestampLock, TrueExclusionUnderFaults) {
  DriveScenarios(7000, RunLockScenario, ProtoSpec);
}

}  // namespace
}  // namespace swarm
