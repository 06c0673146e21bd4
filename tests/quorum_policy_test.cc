// The quorum engine's contact policy (src/swarm/quorum.h), pinned through
// both register protocols that run on it: Safe-Guess's max register and
// DM-ABD. Each case records every request message the fabric carries, per
// node and with its send time, through the drop hook (consulted once per
// message and always letting it pass), and checks who was contacted when:
//  * a repair-excluded node receives no verb at all;
//  * a known-failed node is contacted only once the first wave missed
//    escalation_timeout;
//  * a first wave that is entirely NACKed kMovedReplica gets no second wave.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/swarm/abd.h"
#include "src/swarm/quorum_max.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

enum class Register { kQuorumMax, kAbd };

struct OpOutcome {
  bool ok = false;     // A quorum answered.
  bool moved = false;  // The op reported a migration bounce.
};

// One write or read through the register under test.
Task<void> RunOp(Register reg, bool write, Worker* w, const ObjectLayout* layout,
                 OpOutcome* out) {
  if (reg == Register::kQuorumMax) {
    QuorumMax qm(w, layout, w->SlotCacheFor(layout));
    if (write) {
      WriteReadOutcome r =
          co_await qm.WriteAndRead(Meta::Pack(10, w->tid(), false, 0), ValN(16, 7));
      out->ok = r.ok;
      out->moved = r.moved;
    } else {
      ReadOutcome r = co_await qm.ReadQuorum(true);
      out->ok = r.ok;
      out->moved = r.moved;
    }
    co_return;
  }
  AbdObject abd(w, layout, std::make_shared<ObjectCache>());
  if (write) {
    SgWriteResult r = co_await abd.Write(ValN(16, 7));
    out->ok = r.status == SgStatus::kOk;
    out->moved = r.status == SgStatus::kMoved;
  } else {
    SgReadResult r = co_await abd.Read();
    out->ok = r.status == SgStatus::kOk || r.status == SgStatus::kNotFound;
    out->moved = r.status == SgStatus::kMoved;
  }
}

// One object over nodes 0..2 of a 4-node fabric, one worker, and the send
// log of every request message.
class PolicyCase {
 public:
  explicit PolicyCase(Register reg) : reg_(reg), worker_(env_.MakeWorker()) {
    if (reg == Register::kAbd) {
      // DM-ABD layouts share one metadata word and carry no in-place region.
      std::vector<int> nodes{0, 1, 2};
      layout_ = AllocateObject(env_.fabric, nodes.data(), 3, /*meta_slots=*/1,
                               /*max_writers=*/1, env_.proto.max_value, /*inplace_copies=*/0);
    } else {
      layout_ = env_.MakeObject();
    }
    env_.fabric.set_drop_fn([this](int node, bool response, int) {
      if (!response) {
        sends_[node].push_back(env_.sim.Now());
      }
      return false;
    });
  }

  int node(int r) const { return layout_->replica(r).node; }
  Worker& worker() { return worker_; }
  TestEnv& env() { return env_; }
  const ObjectLayout& layout() const { return *layout_; }

  OpOutcome Run(bool write) {
    OpOutcome out;
    Spawn(RunOp(reg_, write, &worker_, layout_.get(), &out));
    env_.sim.Run();
    return out;
  }

  // Request messages sent to `node`, with their send times.
  const std::vector<sim::Time>& sends(int node) { return sends_[node]; }

 private:
  Register reg_;
  TestEnv env_;
  Worker& worker_;
  LayoutPin layout_;
  std::map<int, std::vector<sim::Time>> sends_;
};

class QuorumPolicy : public ::testing::TestWithParam<Register> {};

TEST_P(QuorumPolicy, RepairExcludedNodeReceivesNoVerb) {
  for (const bool write : {true, false}) {
    PolicyCase c(GetParam());
    auto excluded = std::make_shared<std::vector<bool>>(4, false);
    (*excluded)[static_cast<size_t>(c.node(1))] = true;
    c.worker().set_repair_excluded(excluded);

    const OpOutcome out = c.Run(write);
    EXPECT_TRUE(out.ok) << "write=" << write;  // Replicas 0 and 2 are a majority.
    EXPECT_TRUE(c.sends(c.node(1)).empty()) << "write=" << write;
    EXPECT_FALSE(c.sends(c.node(0)).empty()) << "write=" << write;
    EXPECT_FALSE(c.sends(c.node(2)).empty()) << "write=" << write;
  }
}

TEST_P(QuorumPolicy, KnownFailedNodeIsContactedOnlyAfterEscalation) {
  for (const bool write : {true, false}) {
    // The live replicas answer: the known-failed one is never contacted.
    PolicyCase healthy(GetParam());
    healthy.worker().MarkNodeFailed(healthy.node(0));
    EXPECT_TRUE(healthy.Run(write).ok) << "write=" << write;
    EXPECT_TRUE(healthy.sends(healthy.node(0)).empty()) << "write=" << write;

    // A live replica is down: the first wave {1, 2} misses escalation_timeout
    // and only then does the engine broaden to the known-failed replica 0.
    PolicyCase escalated(GetParam());
    escalated.worker().MarkNodeFailed(escalated.node(0));
    escalated.env().fabric.Crash(escalated.node(1));
    const sim::Time escalation = escalated.env().proto.escalation_timeout;
    EXPECT_TRUE(escalated.Run(write).ok) << "write=" << write;
    ASSERT_FALSE(escalated.sends(escalated.node(0)).empty()) << "write=" << write;
    EXPECT_GE(escalated.sends(escalated.node(0)).front(), escalation) << "write=" << write;
    for (const int r : {1, 2}) {
      ASSERT_FALSE(escalated.sends(escalated.node(r)).empty()) << "write=" << write;
      EXPECT_LT(escalated.sends(escalated.node(r)).front(), escalation) << "write=" << write;
    }
  }
}

TEST_P(QuorumPolicy, AllMovedFirstWaveGetsNoSecondWave) {
  for (const bool write : {true, false}) {
    PolicyCase c(GetParam());
    // A migration fenced replicas 0 and 1, the whole first wave.
    for (const int r : {0, 1}) {
      const auto [addr, len] = c.layout().replica_slot(r);
      c.env().fabric.node(c.node(r)).RetireRegion(addr, len);
    }
    const OpOutcome out = c.Run(write);
    EXPECT_FALSE(out.ok) << "write=" << write;
    EXPECT_TRUE(out.moved) << "write=" << write;
    EXPECT_FALSE(c.sends(c.node(0)).empty()) << "write=" << write;
    EXPECT_TRUE(c.sends(c.node(2)).empty()) << "write=" << write;
  }
}

INSTANTIATE_TEST_SUITE_P(Registers, QuorumPolicy,
                         ::testing::Values(Register::kQuorumMax, Register::kAbd),
                         [](const ::testing::TestParamInfo<Register>& param) {
                           return param.param == Register::kQuorumMax ? std::string("QuorumMax")
                                                                      : std::string("AbdObject");
                         });

}  // namespace
}  // namespace swarm
