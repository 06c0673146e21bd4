// Completion-after-cancellation regression coverage for pooled verb state.
//
// Pooling OpState / Counter / quorum phase blocks (allocate_shared over the
// frame pool) makes recycled slots LIVE memory, so a latent use-after-free in
// the completion chain would no longer crash — it would silently corrupt a
// recycled slot. These tests force the exact interleavings the fabric.cc
// pooling audit reasons about, via the response-drop chaos hook: a caller
// resumes (first quorum, or timeout) while straggler completion callbacks
// are still queued, then the queue drains. The quorum cases run on the
// quorum engine (src/swarm/quorum.h), the path every protocol takes. Run
// under the ASan CI job the pool delegates to the real allocator
// (SWARM_POOL_BYPASS), so any write to freed verb state is a reported
// use-after-free rather than silent reuse.
//
// The invariant under test (see the OpState audit in fabric.cc): every
// queued completion callback holds its own reference to the shared state it
// writes, so the state's slot cannot recycle before the last straggler ran —
// no matter how early the awaiting coroutine resumed or how its frame died.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "src/fabric/fabric.h"
#include "src/sim/sync.h"
#include "src/swarm/quorum.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using fabric::OpResult;
using sim::Spawn;
using sim::Task;
using testing::TestEnv;

// Drops every response leg from one node: its verbs APPLY but complete only
// at failure_detect_delay — long after the healthy replicas answered.
void DropResponsesFrom(TestEnv* env, int node) {
  env->fabric.set_drop_fn(
      [node](int n, bool response, int) { return response && n == node; });
}

// A quorum phase block whose per-replica reads count every completion,
// answered or not: a straggler's late completion writes into it.
struct ReadPhase : WordPhase {
  using WordPhase::WordPhase;
  int completions = 0;
};

Task<void> ReadWordAt(Worker* w, LayoutPin layout, int r, std::shared_ptr<ReadPhase> ph) {
  const ReplicaLayout& rep = layout->replica(r);
  std::array<uint8_t, 8> buf{};
  OpResult res = co_await w->qp(rep.node).Read(rep.meta_addr, buf);
  ++ph->completions;
  if (res.ok()) {
    ph->Record(r, Meta());
    ph->ok.Add(1);
  }
}

// What the caller saw when the engine resumed it.
struct Resume {
  bool reached = false;
  int answered = 0;
  int completions = 0;
  sim::Time at = 0;
};

// Runs one broadcast read of `layout` and records the resume; the driver
// frame (and its reference to the phase) dies right after.
Task<void> BroadcastRead(Worker* w, LayoutPin layout, Resume* out,
                         std::weak_ptr<ReadPhase>* phase) {
  auto ph = sim::MakePooled<ReadPhase>(w->sim());
  *phase = ph;
  const QuorumEngine q(w, *layout);
  out->reached = co_await q.Broadcast(
      ph.get(), [&](int r) { return ReadWordAt(w, layout, r, ph); });
  out->answered = ph->Answered().size;
  out->completions = ph->completions;
  out->at = w->sim()->Now();
}

// First-quorum resume with a straggler in flight. The caller resumes at a
// 2-of-3 majority while the dropped replica's completion (a failure-detection
// timeout) is still queued; the straggler then writes into the phase block,
// which it co-owns, after the caller's frame is gone.
TEST(CompletionRace, StragglerCompletesAfterFirstQuorumResume) {
  TestEnv env(23);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  DropResponsesFrom(&env, layout->replica(2).node);

  Resume resume;
  std::weak_ptr<ReadPhase> phase;
  Spawn(BroadcastRead(&w, layout, &resume, &phase));
  env.sim.Run();

  EXPECT_TRUE(resume.reached);
  EXPECT_EQ(resume.answered, 2);
  // The straggler had not completed at resume time...
  EXPECT_EQ(resume.completions, 2);
  EXPECT_LT(resume.at, env.fabric.config().failure_detect_delay);
  // ...and released the block only once it finished.
  EXPECT_TRUE(phase.expired());
}

// Timeout expiry before quorum: TWO dropped replicas make a majority
// unreachable before quorum_timeout. The caller resumes with reached=false
// and dies; both stragglers then complete against the phase block.
TEST(CompletionRace, TimeoutResumeThenTwoLateCompletions) {
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  // Between the healthy replica's completion (~2 us) and the stragglers'
  // failure-detection completions (4 us).
  pcfg.quorum_timeout = 3'000;
  TestEnv env(29, TestEnv::DefaultFabric(), pcfg);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  const int slow_a = layout->replica(1).node;
  const int slow_b = layout->replica(2).node;
  env.fabric.set_drop_fn([slow_a, slow_b](int n, bool response, int) {
    return response && (n == slow_a || n == slow_b);
  });

  Resume resume;
  std::weak_ptr<ReadPhase> phase;
  Spawn(BroadcastRead(&w, layout, &resume, &phase));
  env.sim.Run();

  EXPECT_FALSE(resume.reached);
  EXPECT_EQ(resume.answered, 1);  // Only the healthy replica answered.
  EXPECT_EQ(resume.completions, 1);
  EXPECT_LT(resume.at, sim::Time{4'000});
  EXPECT_TRUE(phase.expired());  // Both late completions ran and released it.
}

// The same race at the Counter level, without the fabric: the timeout
// resumes the waiter and clears it from the counter, so late Adds must find
// no waiter instead of resuming it a second time.
TEST(CompletionRace, CounterLateAddAfterTimedOutWait) {
  sim::Simulator sim(31);
  sim::Counter done(&sim);

  bool reached = true;
  auto waiter = [](sim::Counter c, bool* out) -> Task<void> {
    *out = co_await c.WaitFor(2, /*timeout=*/1'000);
  };
  Spawn(waiter(done, &reached));
  // Both signals arrive after the deadline.
  sim.After(5'000, [done]() mutable { done.Add(1); });
  sim.After(6'000, [done]() mutable { done.Add(1); });
  sim.Run();

  EXPECT_FALSE(reached);     // The wait timed out...
  EXPECT_EQ(done.count(), 2);  // ...and the late signals still landed safely.
}

// Write-verb straggler: a response-dropped WriteThenCas APPLIES at the node
// but completes only at failure-detection time. The issuing coroutine is
// long gone (it resumed off the healthy majority); the straggler's OpState
// write and the subsequent read-back must both be safe.
TEST(CompletionRace, DroppedWriteAckAppliesAndCompletesLate) {
  TestEnv env(37);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  const ReplicaLayout& rep = layout->replica(0);
  DropResponsesFrom(&env, rep.node);

  OpResult wres;
  auto writer = [](Worker* w, const ReplicaLayout* rep, OpResult* out) -> Task<void> {
    sim::Bytes data(8, uint8_t{0xAB});
    *out = co_await w->qp(rep->node).Write(rep->meta_addr, data);
  };
  Spawn(writer(&w, &rep, &wres));
  env.sim.Run();
  // The ack never came back: the client sees a failure...
  EXPECT_EQ(wres.status, fabric::Status::kNodeFailed);
  // ...but the bytes landed (possibly-applied semantics).
  uint8_t cell = 0;
  env.fabric.node(rep.node).ReadInto(rep.meta_addr, std::span<uint8_t>(&cell, 1));
  EXPECT_EQ(cell, 0xAB);
}

}  // namespace
}  // namespace swarm
