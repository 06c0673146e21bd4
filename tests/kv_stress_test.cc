// End-to-end randomized stress for SWARM-KV: several clients hammer a small
// keyspace with gets, updates, inserts and deletes; every per-key history is
// checked for linearizability (treating insert as a write, delete as a write
// of "absent", and not-found reads as reads of "absent").
//
// This is the strongest whole-system test: it exercises Safe-Guess fast and
// slow paths, In-n-Out fallbacks, tombstones, index races, cache
// invalidation, background promotion, write-backs, and buffer recycling all
// at once, across many seeds.

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/verify/lincheck.h"
#include "tests/support/test_env.h"

namespace swarm::kv {
namespace {

using sim::Spawn;
using sim::Task;
using verify::HistoryOp;
using verify::LinearizabilityChecker;
using testing::TestEnv;

constexpr uint64_t kKeys = 4;
constexpr uint64_t kAbsent = 0;  // Register value modeling "no mapping".

struct StressState {
  std::map<uint64_t, std::vector<HistoryOp>> histories;  // Per key.
  uint64_t next_value = 1;
  uint64_t unavailable = 0;
};

std::vector<uint8_t> Encode(uint64_t v) {
  std::vector<uint8_t> b(8);
  std::memcpy(b.data(), &v, 8);
  return b;
}

uint64_t Decode(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  if (b.size() == 8) {
    std::memcpy(&v, b.data(), 8);
  }
  return v;
}

Task<void> StressClient(TestEnv* env, SwarmKvSession* kv, uint64_t seed, int ops,
                        StressState* st) {
  sim::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    co_await env->sim.Delay(static_cast<sim::Time>(rng.Below(8000)));
    const uint64_t key = rng.Below(kKeys);
    const double dice = rng.Double();
    HistoryOp op;
    op.invoked = env->sim.Now();
    if (dice < 0.45) {
      // Get.
      KvResult r = co_await kv->Get(key);
      op.responded = env->sim.Now();
      if (r.status == KvStatus::kUnavailable) {
        ++st->unavailable;
        continue;
      }
      op.is_write = false;
      op.value = r.status == KvStatus::kOk ? Decode(r.value) : kAbsent;
    } else if (dice < 0.75) {
      // Update (may fail with not-found: that is a read of "absent").
      const uint64_t v = st->next_value++;
      KvResult r = co_await kv->Update(key, Encode(v));
      op.responded = env->sim.Now();
      if (r.status == KvStatus::kUnavailable) {
        ++st->unavailable;
        continue;
      }
      if (r.status == KvStatus::kOk) {
        op.is_write = true;
        op.value = v;
      } else {
        op.is_write = false;
        op.value = kAbsent;
      }
    } else if (dice < 0.9) {
      // Insert (turns into an update when the key exists).
      const uint64_t v = st->next_value++;
      KvResult r = co_await kv->Insert(key, Encode(v));
      op.responded = env->sim.Now();
      if (!r.ok()) {
        ++st->unavailable;
        continue;
      }
      op.is_write = true;
      op.value = v;
    } else {
      // Delete (not-found delete is a read of "absent").
      KvResult r = co_await kv->Remove(key);
      op.responded = env->sim.Now();
      if (r.status == KvStatus::kUnavailable) {
        ++st->unavailable;
        continue;
      }
      if (r.status == KvStatus::kOk) {
        op.is_write = true;
        op.value = kAbsent;
      } else {
        op.is_write = false;
        op.value = kAbsent;
      }
    }
    st->histories[key].push_back(op);
  }
}

class SwarmKvStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SwarmKvStress, PerKeyHistoriesAreLinearizable) {
  TestEnv env(GetParam());
  index::IndexService index(&env.sim);
  StressState st;
  const int clients = 4;
  const int ops = 12;
  std::vector<std::unique_ptr<index::ClientCache>> caches;
  std::vector<std::unique_ptr<SwarmKvSession>> sessions;
  for (int c = 0; c < clients; ++c) {
    Worker& w = env.MakeWorker(env.sim.rng().Range(-5000, 5000));
    caches.push_back(std::make_unique<index::ClientCache>());
    sessions.push_back(std::make_unique<SwarmKvSession>(&w, &index, caches.back().get()));
  }
  for (int c = 0; c < clients; ++c) {
    Spawn(StressClient(&env, sessions[static_cast<size_t>(c)].get(),
                       GetParam() * 131 + static_cast<uint64_t>(c), ops, &st));
  }
  env.sim.Run();
  EXPECT_EQ(st.unavailable, 0u);
  for (const auto& [key, history] : st.histories) {
    ASSERT_LE(history.size(), 63u);
    EXPECT_TRUE(LinearizabilityChecker::Check(history))
        << "key " << key << " non-linearizable (seed " << GetParam() << ", "
        << history.size() << " ops)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwarmKvStress, ::testing::Range<uint64_t>(1, 40));

}  // namespace
}  // namespace swarm::kv
