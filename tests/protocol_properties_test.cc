// Parameterized property sweeps over the protocol stack: Safe-Guess
// linearizability and wait-freedom across replication factors, metadata
// buffer widths, value sizes and clock-skew regimes; quorum-max register
// properties (validity, monotonicity) under concurrency; and tolerance of a
// minority of crashed replicas in every configuration.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "src/sim/sync.h"
#include "src/swarm/safe_guess.h"
#include "src/verify/lincheck.h"
#include "tests/support/test_env.h"
#include "src/util/discard.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using verify::HistoryOp;
using verify::LinearizabilityChecker;
using testing::TestEnv;
using testing::ValN;

// ---------- Safe-Guess across configurations ----------
// Param: (replicas, meta_slots, value_size, skew_ns, seed, crash_minority)

using SgParam = std::tuple<int, int, uint32_t, int64_t, uint64_t, bool>;

class SafeGuessMatrix : public ::testing::TestWithParam<SgParam> {};

struct MatrixState {
  std::vector<HistoryOp> history;
  uint64_t next_value = 1;
  int max_iters = 0;
  uint64_t unavailable = 0;
};

std::vector<uint8_t> Enc(uint64_t v, uint32_t size) {
  std::vector<uint8_t> b(std::max<uint32_t>(size, 8));
  std::memcpy(b.data(), &v, 8);
  return b;
}

uint64_t Dec(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  if (b.size() >= 8) {
    std::memcpy(&v, b.data(), 8);
  }
  return v;
}

Task<void> MatrixWriter(TestEnv* env, Worker* w, const ObjectLayout* layout, uint32_t vsize,
                        int ops, MatrixState* st) {
  SafeGuessObject obj(w, layout, w->SlotCacheFor(layout));
  for (int i = 0; i < ops; ++i) {
    co_await env->sim.Delay(static_cast<sim::Time>(env->sim.rng().Below(7000)));
    const uint64_t v = st->next_value++;
    HistoryOp op;
    op.is_write = true;
    op.value = v;
    op.invoked = env->sim.Now();
    SgWriteResult r = co_await obj.Write(Enc(v, vsize));
    op.responded = env->sim.Now();
    if (r.status != SgStatus::kOk) {
      ++st->unavailable;
      continue;
    }
    st->history.push_back(op);
  }
}

Task<void> MatrixReader(TestEnv* env, Worker* w, const ObjectLayout* layout, int ops,
                        MatrixState* st) {
  SafeGuessObject obj(w, layout, w->SlotCacheFor(layout));
  for (int i = 0; i < ops; ++i) {
    co_await env->sim.Delay(static_cast<sim::Time>(env->sim.rng().Below(7000)));
    HistoryOp op;
    op.invoked = env->sim.Now();
    SgReadResult r = co_await obj.Read();
    op.responded = env->sim.Now();
    if (r.status == SgStatus::kUnavailable) {
      ++st->unavailable;
      continue;
    }
    op.value = r.status == SgStatus::kOk ? Dec(r.value) : 0;
    st->max_iters = std::max(st->max_iters, r.iterations);
    st->history.push_back(op);
  }
}

TEST_P(SafeGuessMatrix, LinearizableAndWaitFreeEverywhere) {
  const auto [replicas, slots, vsize, skew, seed, crash] = GetParam();
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  fcfg.num_nodes = std::max(4, replicas);
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  pcfg.replicas = replicas;
  pcfg.meta_slots = slots;
  pcfg.max_writers = 8;
  pcfg.max_value = std::max<uint32_t>(vsize, 8);
  TestEnv env(seed, fcfg, pcfg);
  const LayoutPin layout = env.MakeObject();
  if (crash) {
    // A minority crash must not affect safety or liveness.
    env.fabric.Crash(layout->replica(replicas / 2).node);
  }

  MatrixState st;
  const int writers = 3;
  const int readers = 2;
  const int ops = 4;
  for (int i = 0; i < writers; ++i) {
    Worker& w = env.MakeWorker(env.sim.rng().Range(-skew, skew));
    Spawn(MatrixWriter(&env, &w, layout.get(), vsize, ops, &st));
  }
  for (int i = 0; i < readers; ++i) {
    Worker& w = env.MakeWorker(0);
    Spawn(MatrixReader(&env, &w, layout.get(), ops, &st));
  }
  env.sim.Run();

  EXPECT_EQ(st.unavailable, 0u);
  EXPECT_EQ(st.history.size(), static_cast<size_t>((writers + readers) * ops));
  EXPECT_TRUE(LinearizabilityChecker::Check(st.history))
      << "replicas=" << replicas << " slots=" << slots << " vsize=" << vsize
      << " skew=" << skew << " seed=" << seed << " crash=" << crash;
  EXPECT_LE(st.max_iters, 2 * pcfg.max_writers + 1);
}

INSTANTIATE_TEST_SUITE_P(
    ReplicaSweep, SafeGuessMatrix,
    ::testing::Combine(::testing::Values(3, 5, 7), ::testing::Values(1, 8),
                       ::testing::Values(16u), ::testing::Values(int64_t{3000}),
                       ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
                       ::testing::Bool()));

INSTANTIATE_TEST_SUITE_P(
    ValueSizeSweep, SafeGuessMatrix,
    ::testing::Combine(::testing::Values(3), ::testing::Values(4),
                       ::testing::Values(8u, 256u, 4096u), ::testing::Values(int64_t{1000}),
                       ::testing::Values(uint64_t{11}, uint64_t{12}), ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    SkewSweep, SafeGuessMatrix,
    ::testing::Combine(::testing::Values(3), ::testing::Values(8), ::testing::Values(64u),
                       ::testing::Values(int64_t{0}, int64_t{50000}, int64_t{500000}),
                       ::testing::Values(uint64_t{21}, uint64_t{22}), ::testing::Values(false)));

// ---------- Reliable max register properties under concurrency ----------

class QuorumMaxProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuorumMaxProperty, ReadsAreMutuallyMonotonic) {
  // Read-read monotonicity (Appendix A): sequential strong reads by one
  // client never observe a smaller timestamp, even under concurrent writes.
  TestEnv env(GetParam());
  const LayoutPin layout = env.MakeObject();
  bool violation = false;

  auto writer = [](TestEnv* env, Worker* w, const ObjectLayout* layout) -> Task<void> {
    QuorumMax reg(w, layout, w->SlotCacheFor(layout));
    for (uint32_t i = 1; i <= 12; ++i) {
      co_await env->sim.Delay(static_cast<sim::Time>(env->sim.rng().Below(5000)));
      swarm::DiscardStatus(co_await reg.WriteAndRead(Meta::Pack(i * 100 + w->tid(), w->tid(), false, 0),
                                      ValN(16, static_cast<uint8_t>(i))));
    }
  };
  auto reader = [](TestEnv* env, Worker* w, const ObjectLayout* layout, bool* bad) -> Task<void> {
    QuorumMax reg(w, layout, w->SlotCacheFor(layout));
    Meta last;
    for (int i = 0; i < 20; ++i) {
      co_await env->sim.Delay(static_cast<sim::Time>(env->sim.rng().Below(4000)));
      ReadOutcome r = co_await reg.ReadQuorum(true);
      if (!r.ok) {
        continue;
      }
      if (TsLess(r.m, last)) {
        *bad = true;
      }
      last = TsMax(last, r.m);
    }
  };
  Spawn(writer(&env, &env.MakeWorker(), layout.get()));
  Spawn(writer(&env, &env.MakeWorker(), layout.get()));
  Spawn(reader(&env, &env.MakeWorker(), layout.get(), &violation));
  Spawn(reader(&env, &env.MakeWorker(), layout.get(), &violation));
  env.sim.Run();
  EXPECT_FALSE(violation) << "read-read monotonicity violated (seed " << GetParam() << ")";
}

TEST_P(QuorumMaxProperty, WriteReadMonotonicity) {
  // Write-read monotonicity: a read that starts after a write completed
  // returns a timestamp >= the write's.
  TestEnv env(GetParam());
  const LayoutPin layout = env.MakeObject();
  bool done = false;
  auto driver = [](TestEnv* /*env*/, Worker* w, Worker* r, const ObjectLayout* layout,
                   bool* done2) -> Task<void> {
    QuorumMax wreg(w, layout, w->SlotCacheFor(layout));
    QuorumMax rreg(r, layout, r->SlotCacheFor(layout));
    for (uint32_t i = 1; i <= 10; ++i) {
      const Meta word = Meta::Pack(i * 50, w->tid(), false, 0);
      WriteReadOutcome wr = co_await wreg.WriteAndRead(word, ValN(16, 1));
      EXPECT_TRUE(wr.ok);
      ReadOutcome rd = co_await rreg.ReadQuorum(true);
      EXPECT_TRUE(rd.ok);
      EXPECT_GE(rd.m.ts_order_key(), word.ts_order_key()) << "iteration " << i;
    }
    *done2 = true;
  };
  Spawn(driver(&env, &env.MakeWorker(), &env.MakeWorker(), layout.get(), &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuorumMaxProperty, ::testing::Range<uint64_t>(1, 15));

// ---------- Torn-write handling end to end ----------

class TearSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TearSweep, ReadsNeverReturnTornValues) {
  // With slow links and large values, concurrent reads overlap write
  // transfer windows constantly; every returned value must still be one
  // that was actually written (In-n-Out's hash + header validation).
  const uint32_t vsize = GetParam();
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  fcfg.bandwidth_bytes_per_ns = 0.5;  // Wide tear windows.
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  pcfg.max_value = vsize;
  TestEnv env(99, fcfg, pcfg);
  const LayoutPin layout = env.MakeObject();

  bool corrupted = false;
  auto writer = [](TestEnv* env, Worker* w, const ObjectLayout* layout,
                   uint32_t vsize2) -> Task<void> {
    SafeGuessObject obj(w, layout, w->SlotCacheFor(layout));
    for (uint8_t i = 1; i <= 15; ++i) {
      co_await env->sim.Delay(static_cast<sim::Time>(env->sim.rng().Below(3000)));
      swarm::DiscardStatus(co_await obj.Write(ValN(vsize2, i)));  // Uniform fill: tears detectable.
    }
  };
  auto reader = [](TestEnv* env, Worker* w, const ObjectLayout* layout, bool* bad) -> Task<void> {
    SafeGuessObject obj(w, layout, w->SlotCacheFor(layout));
    for (int i = 0; i < 25; ++i) {
      co_await env->sim.Delay(static_cast<sim::Time>(env->sim.rng().Below(2000)));
      SgReadResult r = co_await obj.Read();
      if (r.status != SgStatus::kOk) {
        continue;
      }
      for (uint8_t b : r.value) {
        if (b != r.value[0]) {
          *bad = true;  // Mixed fills: a torn buffer leaked through.
        }
      }
    }
  };
  Spawn(writer(&env, &env.MakeWorker(), layout.get(), vsize));
  Spawn(writer(&env, &env.MakeWorker(), layout.get(), vsize));
  Spawn(reader(&env, &env.MakeWorker(), layout.get(), &corrupted));
  Spawn(reader(&env, &env.MakeWorker(), layout.get(), &corrupted));
  env.sim.Run();
  EXPECT_FALSE(corrupted) << "a torn value escaped validation (size " << vsize << ")";
}

INSTANTIATE_TEST_SUITE_P(Sizes, TearSweep, ::testing::Values(64u, 512u, 4096u));

}  // namespace
}  // namespace swarm
