// Tests for the DM-ABD baseline register: correctness (it is the comparison
// point for every benchmark), 2-roundtrip structure, and linearizability
// under concurrent stress.

#include "src/swarm/abd.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/sim/sync.h"
#include "src/verify/lincheck.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using verify::HistoryOp;
using verify::LinearizabilityChecker;
using testing::TestEnv;
using testing::ValN;

// DM-ABD layouts share one metadata word and carry no in-place region.
LayoutPin MakeAbdObject(TestEnv& env) {
  std::vector<int> nodes{0, 1, 2};
  return AllocateObject(env.fabric, nodes.data(), 3, /*meta_slots=*/1,
                        /*max_writers=*/1, env.proto.max_value, /*inplace_copies=*/0);
}

TEST(Abd, WriteThenReadRoundtrips) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = MakeAbdObject(env);

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    AbdObject obj(w, layout, std::make_shared<ObjectCache>());
    auto value = ValN(48, 0x3C);
    const sim::Time w_start = w->sim()->Now();
    SgWriteResult wr = co_await obj.Write(value);
    const sim::Time w_lat = w->sim()->Now() - w_start;
    EXPECT_EQ(wr.status, SgStatus::kOk);
    EXPECT_EQ(wr.rtts, 2);  // Table 2: DM-ABD updates take 2 roundtrips.
    EXPECT_GT(w_lat, 2800);
    EXPECT_LT(w_lat, 6000);

    const sim::Time r_start = w->sim()->Now();
    SgReadResult rd = co_await obj.Read();
    const sim::Time r_lat = w->sim()->Now() - r_start;
    EXPECT_EQ(rd.status, SgStatus::kOk);
    EXPECT_EQ(rd.value, value);
    EXPECT_EQ(rd.rtts, 2);  // Metadata read + pointer chase.
    EXPECT_GT(r_lat, 2800);
  };
  Spawn(driver(&w, layout.get()));
  env.sim.Run();
}

TEST(Abd, EmptyAndDeleted) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = MakeAbdObject(env);

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    AbdObject obj(w, layout, std::make_shared<ObjectCache>());
    SgReadResult rd0 = co_await obj.Read();
    EXPECT_EQ(rd0.status, SgStatus::kNotFound);
    (void)co_await obj.Write(ValN(8, 1));
    SgWriteResult del = co_await obj.Delete();
    EXPECT_EQ(del.status, SgStatus::kOk);
    SgReadResult rd1 = co_await obj.Read();
    EXPECT_EQ(rd1.status, SgStatus::kDeleted);
    SgWriteResult wr = co_await obj.Write(ValN(8, 2));
    EXPECT_EQ(wr.status, SgStatus::kDeleted);
  };
  Spawn(driver(&w, layout.get()));
  env.sim.Run();
}

TEST(Abd, SurvivesMinorityCrash) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = MakeAbdObject(env);

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    AbdObject obj(w, layout, std::make_shared<ObjectCache>());
    (void)co_await obj.Write(ValN(16, 4));
    w->fabric()->Crash(layout->replica(2).node);
    SgReadResult rd = co_await obj.Read();
    EXPECT_EQ(rd.status, SgStatus::kOk);
    EXPECT_EQ(rd.value, ValN(16, 4));
    SgWriteResult wr = co_await obj.Write(ValN(16, 5));
    EXPECT_EQ(wr.status, SgStatus::kOk);
  };
  Spawn(driver(&w, layout.get()));
  env.sim.Run();
}

struct StressState {
  std::vector<HistoryOp> history;
  uint64_t next_value = 1;
};

std::vector<uint8_t> EncodeValue(uint64_t v) {
  std::vector<uint8_t> bytes(8);
  std::memcpy(bytes.data(), &v, 8);
  return bytes;
}

Task<void> StressWriter(Worker* w, const ObjectLayout* layout, int ops, StressState* st) {
  AbdObject obj(w, layout, std::make_shared<ObjectCache>());
  for (int i = 0; i < ops; ++i) {
    co_await w->sim()->Delay(static_cast<sim::Time>(w->sim()->rng().Below(9000)));
    const uint64_t value = st->next_value++;
    HistoryOp op;
    op.is_write = true;
    op.value = value;
    op.invoked = w->sim()->Now();
    SgWriteResult r = co_await obj.Write(EncodeValue(value));
    op.responded = w->sim()->Now();
    EXPECT_EQ(r.status, SgStatus::kOk);
    st->history.push_back(op);
  }
}

Task<void> StressReader(Worker* w, const ObjectLayout* layout, int ops, StressState* st) {
  AbdObject obj(w, layout, std::make_shared<ObjectCache>());
  for (int i = 0; i < ops; ++i) {
    co_await w->sim()->Delay(static_cast<sim::Time>(w->sim()->rng().Below(9000)));
    HistoryOp op;
    op.invoked = w->sim()->Now();
    SgReadResult r = co_await obj.Read();
    op.responded = w->sim()->Now();
    EXPECT_NE(r.status, SgStatus::kUnavailable);
    op.value = 0;
    if (r.status == SgStatus::kOk && r.value.size() == 8) {
      std::memcpy(&op.value, r.value.data(), 8);
    }
    st->history.push_back(op);
  }
}

class AbdStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AbdStress, ConcurrentHistoryIsLinearizable) {
  TestEnv env(GetParam());
  const LayoutPin layout = MakeAbdObject(env);
  StressState st;
  const int writers = 3;
  const int readers = 3;
  const int ops = 4;
  for (int i = 0; i < writers; ++i) {
    Spawn(StressWriter(&env.MakeWorker(), layout.get(), ops, &st));
  }
  for (int i = 0; i < readers; ++i) {
    Spawn(StressReader(&env.MakeWorker(), layout.get(), ops, &st));
  }
  env.sim.Run();
  ASSERT_EQ(st.history.size(), static_cast<size_t>((writers + readers) * ops));
  EXPECT_TRUE(LinearizabilityChecker::Check(st.history))
      << "DM-ABD produced a non-linearizable history (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbdStress, ::testing::Range<uint64_t>(1, 40));

}  // namespace
}  // namespace swarm
