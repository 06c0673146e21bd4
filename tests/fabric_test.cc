// Tests for the simulated RDMA fabric: verb semantics, latency model, FIFO
// pipelining, torn large writes, CAS atomicity, failure injection, and the
// client CPU submission model.

#include "src/fabric/fabric.h"
#include "src/util/discard.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace swarm::fabric {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;
using sim::Time;

FabricConfig TestConfig() {
  FabricConfig cfg;
  cfg.num_nodes = 4;
  cfg.node_capacity_bytes = 1 << 20;
  cfg.one_way_delay = 700;
  cfg.delay_jitter = 0;  // Deterministic timing for assertions.
  cfg.node_op_cost = 50;
  cfg.submit_cost = 200;
  return cfg;
}

TEST(MemoryNode, AllocateIsAlignedAndZeroed) {
  MemoryNode node(4096);
  uint64_t a = node.Allocate(24);
  uint64_t b = node.Allocate(3);
  uint64_t c = node.Allocate(8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b, a + 24);
  EXPECT_EQ(c % 8, 0u);
  EXPECT_GT(c, b);
  std::vector<uint8_t> buf(24, 0xFF);
  node.ReadInto(a, buf);
  for (uint8_t v : buf) {
    EXPECT_EQ(v, 0);
  }
}

TEST(MemoryNode, CasWordSemantics) {
  MemoryNode node(4096);
  uint64_t addr = node.Allocate(8);
  EXPECT_EQ(node.CasWord(addr, 0, 42), 0u);   // succeeds
  EXPECT_EQ(node.LoadWord(addr), 42u);
  EXPECT_EQ(node.CasWord(addr, 0, 99), 42u);  // fails, returns current
  EXPECT_EQ(node.LoadWord(addr), 42u);
  EXPECT_EQ(node.CasWord(addr, 42, 99), 42u);
  EXPECT_EQ(node.LoadWord(addr), 99u);
}

TEST(MemoryNode, RecoverLosesContents) {
  MemoryNode node(4096);
  uint64_t addr = node.Allocate(8);
  node.StoreWord(addr, 7);
  node.Crash();
  EXPECT_TRUE(node.failed());
  node.Recover();
  EXPECT_FALSE(node.failed());
  EXPECT_EQ(node.LoadWord(addr), 0u);
}

TEST(MemoryNodeDeathTest, AFullNodeAbortsInEveryBuild) {
  // The allocators' kNone sentinel must never reach the memset that zeroes a
  // fresh region: exhaustion aborts with the node and the size, NDEBUG or not.
  EXPECT_DEATH(
      {
        MemoryNode node(4096, /*id=*/3);
        for (int i = 0; i < 64; ++i) {
          node.AllocSlot(200);
        }
      },
      "memory node 3: out of capacity: AllocSlot\\(200 B\\)");
  EXPECT_DEATH(
      {
        MemoryNode node(4096, /*id=*/5);
        node.Allocate(8192);
      },
      "memory node 5: out of capacity: Allocate\\(8192 B\\)");
}

Task<void> WriteReadRoundtrip(Fabric* f, bool* ok, Time* write_done, Time* read_done) {
  Qp qp(f, 0, nullptr);
  uint64_t addr = f->node(0).Allocate(64);
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  OpResult w = co_await qp.Write(addr, data);
  *write_done = f->sim()->Now();
  EXPECT_TRUE(w.ok());

  std::vector<uint8_t> out(64, 0);
  OpResult r = co_await qp.Read(addr, out);
  *read_done = f->sim()->Now();
  EXPECT_TRUE(r.ok());
  *ok = (out == data);
}

TEST(Fabric, WriteThenReadReturnsData) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  bool ok = false;
  Time write_done = 0;
  Time read_done = 0;
  Spawn(WriteReadRoundtrip(&fabric, &ok, &write_done, &read_done));
  sim.Run();
  EXPECT_TRUE(ok);
  // Write: ~2 * one_way + node cost + transfer; the RTT must be ~1.5 us.
  EXPECT_GT(write_done, 1400);
  EXPECT_LT(write_done, 1700);
  EXPECT_GT(read_done - write_done, 1400);
  EXPECT_LT(read_done - write_done, 1800);
}

Task<void> CasRace(Fabric* f, uint64_t addr, uint64_t desired, int* successes) {
  Qp qp(f, 0, nullptr);
  OpResult r = co_await qp.Cas(addr, 0, desired);
  if (r.ok() && r.old_value == 0) {
    ++*successes;
  }
}

TEST(Fabric, ConcurrentCasOnlyOneWins) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  uint64_t addr = fabric.node(0).Allocate(8);
  int successes = 0;
  for (int i = 1; i <= 10; ++i) {
    Spawn(CasRace(&fabric, addr, static_cast<uint64_t>(i), &successes));
  }
  sim.Run();
  EXPECT_EQ(successes, 1);
}

// A read that lands in the middle of a large write's transfer window must
// observe a torn buffer (first half new, second half old) — the paper's §2.1
// non-atomicity property, which In-n-Out's hash check exists to detect.
Task<void> TornReadProbe(Fabric* f, uint64_t addr, size_t len, bool* saw_torn, bool* saw_old,
                         bool* saw_new) {
  Qp qp(f, 0, nullptr);
  std::vector<uint8_t> out(len);
  swarm::DiscardStatus(co_await qp.Read(addr, out));
  bool first_new = out[0] == 0xBB;
  bool last_new = out[len - 1] == 0xBB;
  if (first_new && !last_new) {
    *saw_torn = true;
  } else if (!first_new && !last_new) {
    *saw_old = true;
  } else if (first_new && last_new) {
    *saw_new = true;
  }
}

Task<void> BigWrite(Fabric* f, uint64_t addr, size_t len) {
  Qp qp(f, 0, nullptr);  // Distinct Qp object: no FIFO ordering vs the readers.
  std::vector<uint8_t> data(len, 0xBB);
  swarm::DiscardStatus(co_await qp.Write(addr, data));
}

TEST(Fabric, LargeWritesCanTear) {
  Simulator sim;
  FabricConfig cfg = TestConfig();
  cfg.bandwidth_bytes_per_ns = 0.5;  // Slow link: wide tear window.
  Fabric fabric(&sim, cfg);
  constexpr size_t kLen = 1024;
  uint64_t addr = fabric.node(0).Allocate(kLen);
  std::vector<uint8_t> init(kLen, 0xAA);
  fabric.node(0).WriteFrom(addr, init);

  bool saw_torn = false;
  bool saw_old = false;
  bool saw_new = false;
  sim.At(500, [&] { Spawn(BigWrite(&fabric, addr, kLen)); });
  // Probe at many offsets around the write's transfer window (~2 us wide).
  for (Time t = 0; t < 6000; t += 100) {
    sim.At(t, [&] { Spawn(TornReadProbe(&fabric, addr, kLen, &saw_torn, &saw_old, &saw_new)); });
  }
  sim.Run();
  EXPECT_TRUE(saw_torn);
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

// WRITE→CAS pipelining: if the CAS's effect is visible, the write must be
// fully visible too, and the pair completes in one roundtrip.
Task<void> PipelinedWriteCas(Fabric* f, uint64_t waddr, uint64_t caddr, Time* rtt, bool* cas_ok) {
  Qp qp(f, 0, nullptr);
  std::vector<uint8_t> data(512, 0xCD);
  Time start = f->sim()->Now();
  OpResult r = co_await qp.WriteThenCas(waddr, data, caddr, 0, 1);
  *rtt = f->sim()->Now() - start;
  *cas_ok = r.ok() && r.old_value == 0;
}

Task<void> OrderProbe(Fabric* f, uint64_t waddr, uint64_t /*caddr*/, size_t len, bool* violation) {
  Qp qp(f, 0, nullptr);
  std::vector<uint8_t> buf(len + 8);
  swarm::DiscardStatus(co_await qp.Read(waddr, buf));  // Covers [write buffer][cas word].
  uint64_t cas_word;
  std::memcpy(&cas_word, buf.data() + len, 8);
  if (cas_word == 1) {
    for (size_t i = 0; i < len; ++i) {
      if (buf[i] != 0xCD) {
        *violation = true;
        co_return;
      }
    }
  }
}

TEST(Fabric, PipelinedWriteCasIsOrderedAndSingleRoundtrip) {
  Simulator sim;
  FabricConfig cfg = TestConfig();
  cfg.bandwidth_bytes_per_ns = 1.0;
  Fabric fabric(&sim, cfg);
  // Layout: [512-byte buffer][8-byte cas word] contiguous so one read sees both.
  uint64_t waddr = fabric.node(0).Allocate(512 + 8);
  uint64_t caddr = waddr + 512;

  Time rtt = 0;
  bool cas_ok = false;
  bool violation = false;
  Spawn(PipelinedWriteCas(&fabric, waddr, caddr, &rtt, &cas_ok));
  for (Time t = 0; t < 5000; t += 50) {
    sim.At(t, [&] { Spawn(OrderProbe(&fabric, waddr, caddr, 512, &violation)); });
  }
  sim.Run();
  EXPECT_TRUE(cas_ok);
  EXPECT_FALSE(violation) << "CAS visible before its pipelined write";
  // One roundtrip: ~2 * 700 + transfer(512+overheads) + node costs < 2.7 us,
  // far below the ~2 RTT a non-pipelined write+cas would need.
  EXPECT_LT(rtt, 2700);
}

Task<void> SameQpFifo(Fabric* f, bool* ordered) {
  // Two back-to-back writes on one QP: issue both without waiting, the
  // second must not apply before the first.
  Qp qp(f, 0, nullptr);
  uint64_t a = f->node(0).Allocate(8);
  std::vector<uint8_t> one(8, 1);
  std::vector<uint8_t> two(8, 2);
  auto w1 = qp.Write(a, one);
  auto w2 = qp.Write(a, two);
  auto [r1, r2] = co_await PostBoth(nullptr, f->sim(), std::move(w1), std::move(w2));
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
  *ordered = (f->node(0).LoadWord(a) == 0x0202020202020202ull);
}

TEST(Fabric, SameQpWritesApplyInOrder) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  bool ordered = false;
  Spawn(SameQpFifo(&fabric, &ordered));
  sim.Run();
  EXPECT_TRUE(ordered);
}

Task<void> FailedNodeOp(Fabric* f, Time* latency, Status* status) {
  Qp qp(f, 0, nullptr);
  uint64_t addr = f->node(0).Allocate(8);
  std::vector<uint8_t> out(8);
  Time start = f->sim()->Now();
  OpResult r = co_await qp.Read(addr, out);
  *latency = f->sim()->Now() - start;
  *status = r.status;
}

TEST(Fabric, OpsOnCrashedNodeFailAfterDetectDelay) {
  Simulator sim;
  FabricConfig cfg = TestConfig();
  cfg.failure_detect_delay = 4000;
  Fabric fabric(&sim, cfg);
  fabric.Crash(0);
  Time latency = 0;
  Status status = Status::kOk;
  Spawn(FailedNodeOp(&fabric, &latency, &status));
  sim.Run();
  EXPECT_EQ(status, Status::kNodeFailed);
  EXPECT_GE(latency, 4000);
  EXPECT_LT(latency, 4200);
}

TEST(Fabric, CrashFailsInFlightUnexecutedOps) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  Status status = Status::kOk;
  Time latency = 0;
  Spawn(FailedNodeOp(&fabric, &latency, &status));
  sim.At(100, [&] { fabric.Crash(0); });  // Before the op reaches the node.
  sim.Run();
  EXPECT_EQ(status, Status::kNodeFailed);
}

Task<void> IssueNOps(Fabric* f, ClientCpu* cpu, int n, Time* total) {
  Qp qp(f, 0, cpu);
  uint64_t addr = f->node(0).Allocate(8);
  std::vector<uint8_t> out(8);
  Time start = f->sim()->Now();
  for (int i = 0; i < n; ++i) {
    swarm::DiscardStatus(co_await qp.Read(addr, out));
  }
  *total = f->sim()->Now() - start;
}

TEST(Fabric, ClientCpuSerializesSubmissions) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  ClientCpu cpu(&sim);
  Time t1 = 0;
  Time t2 = 0;
  // Two workers sharing one CPU: their submissions serialize, so the pair of
  // first ops departs 200 ns apart rather than simultaneously.
  Spawn(IssueNOps(&fabric, &cpu, 1, &t1));
  Spawn(IssueNOps(&fabric, &cpu, 1, &t2));
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 400);
  EXPECT_NE(t1, t2);  // One of them waited behind the other's submission.
}

TEST(Fabric, StatsAccounting) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  bool ok = false;
  Time a = 0;
  Time b = 0;
  Spawn(WriteReadRoundtrip(&fabric, &ok, &a, &b));
  sim.Run();
  const FabricStats& st = fabric.stats();
  EXPECT_EQ(st.reads, 1u);
  EXPECT_EQ(st.writes, 1u);
  // Write: header + 64 payload; read: header each way + 64 payload back.
  EXPECT_EQ(st.bytes_to_nodes, kVerbHeaderBytes + 64 + kVerbHeaderBytes);
  EXPECT_EQ(st.bytes_from_nodes, kAckBytes + kVerbHeaderBytes + 64);
}

TEST(Fabric, JitterStaysBounded) {
  Simulator sim(123);
  FabricConfig cfg = TestConfig();
  cfg.delay_jitter = 90;
  Fabric fabric(&sim, cfg);
  for (int i = 0; i < 1000; ++i) {
    Time d = fabric.SampleDelay();
    EXPECT_GE(d, cfg.one_way_delay - cfg.delay_jitter);
    EXPECT_LE(d, cfg.one_way_delay + cfg.delay_jitter);
  }
}

// --- Every verb's outcome under every fate. ---------------------------------
//
// One cell per verb and fate, on a fresh fabric with zero jitter, an idle
// client CPU and no other traffic. A cell pins what the client sees (status,
// completion instant), what the node keeps (whether the 72-byte region the
// verbs touch changed) and what the fabric counts (FabricStats). A verb that
// completes kStaleEpoch revokes its QP, and the next verb on that QP fails
// fast without touching the fabric.

enum class VerbKind { kRead, kWrite, kCas, kWriteThenCas };
enum class Fate {
  kDelivered,
  kRequestDropped,
  kResponseDropped,
  kNodeCrashed,
  kStaleEpoch,
  kMovedReplica,
  kNackResponseDropped,  // A stale-epoch NACK whose response leg drops.
};

// Region layout: [64-byte buffer][8-byte CAS word]. READ and WRITE target the
// buffer, CAS the word, WRITE→CAS both.
constexpr size_t kBufLen = 64;
constexpr uint64_t kOldWord = 7;
constexpr uint64_t kNewWord = 9;

struct VerbOutcome {
  OpResult result;
  Time done = -1;
  bool revoked = false;
  FabricStats stats;            // At completion.
  std::vector<uint8_t> region;  // At completion.
  // The follow-up verb on the same QP, posted right after completion.
  OpResult next;
  Time next_done = -1;
  FabricStats next_stats;
};

Task<OpResult> IssueVerb(Qp* qp, VerbKind kind, uint64_t buf, std::span<uint8_t> out,
                         std::span<const uint8_t> data) {
  const uint64_t word = buf + kBufLen;
  switch (kind) {
    case VerbKind::kRead:
      return qp->Read(buf, out);
    case VerbKind::kWrite:
      return qp->Write(buf, data);
    case VerbKind::kCas:
      return qp->Cas(word, kOldWord, kNewWord);
    case VerbKind::kWriteThenCas:
      break;
  }
  return qp->WriteThenCas(buf, data, word, kOldWord, kNewWord);
}

Task<void> RunVerbCell(Fabric* f, Qp* qp, VerbKind kind, uint64_t buf, VerbOutcome* out) {
  std::vector<uint8_t> read_buf(kBufLen, 0);
  const std::vector<uint8_t> data(kBufLen, 0xEE);
  out->result = co_await IssueVerb(qp, kind, buf, read_buf, data);
  out->done = f->sim()->Now();
  out->revoked = qp->revoked();
  out->stats = f->stats();
  out->region.resize(kBufLen + 8);
  f->node(0).ReadInto(buf, out->region);
  out->next = co_await IssueVerb(qp, kind, buf, read_buf, data);
  out->next_done = f->sim()->Now();
  out->next_stats = f->stats();
}

struct VerbCell {
  VerbKind kind;
  Fate fate;
  Status status;
  Time done;           // Absolute completion instant.
  bool memory_changed;
  uint64_t bytes_from_nodes;
};

TEST(Fabric, EveryVerbOutcomeIsPinned) {
  // Timing with TestConfig(): the verb departs after one submit_cost (200),
  // arrives 700 later, and a lost answer surfaces failure_detect_delay
  // (4000) after departure. 64 B take 5 ns at 12.5 B/ns.
  constexpr Time kArrive = 200 + 700;
  constexpr Time kTimeout = 200 + 4000;
  constexpr Time kReadAck = kArrive + 50 + 250 + 700 + 5;  // + read_extra + payload back.
  constexpr Time kReadNack = kArrive + 50 + 700;
  constexpr Time kWriteAck = kArrive + 5 + 50 + 700;       // Lands when the last byte does.
  constexpr Time kCasAck = kArrive + 50 + 700;
  constexpr Time kSeriesAck = kArrive + 5 + 50 + 50 + 700;  // The CAS runs after the write.
  constexpr uint64_t kNack = kAckBytes;

  using enum VerbKind;
  using enum Fate;
  const VerbCell cells[] = {
      {kRead, kDelivered, Status::kOk, kReadAck, false, kVerbHeaderBytes + kBufLen},
      {kRead, kRequestDropped, Status::kNodeFailed, kTimeout, false, 0},
      {kRead, kResponseDropped, Status::kNodeFailed, kTimeout, false, 0},
      {kRead, kNodeCrashed, Status::kNodeFailed, kTimeout, false, 0},
      {kRead, kStaleEpoch, Status::kStaleEpoch, kReadNack, false, kNack},
      {kRead, kMovedReplica, Status::kMovedReplica, kReadNack, false, kNack},
      {kRead, kNackResponseDropped, Status::kNodeFailed, kTimeout, false, 0},

      {kWrite, kDelivered, Status::kOk, kWriteAck, true, kAckBytes},
      {kWrite, kRequestDropped, Status::kNodeFailed, kTimeout, false, 0},
      {kWrite, kResponseDropped, Status::kNodeFailed, kTimeout, true, 0},
      {kWrite, kNodeCrashed, Status::kNodeFailed, kTimeout, false, 0},
      {kWrite, kStaleEpoch, Status::kStaleEpoch, kWriteAck, false, kNack},
      {kWrite, kMovedReplica, Status::kMovedReplica, kWriteAck, false, kNack},
      {kWrite, kNackResponseDropped, Status::kNodeFailed, kTimeout, false, 0},

      {kCas, kDelivered, Status::kOk, kCasAck, true, kAckBytes + 8},
      {kCas, kRequestDropped, Status::kNodeFailed, kTimeout, false, 0},
      {kCas, kResponseDropped, Status::kNodeFailed, kTimeout, true, 0},
      {kCas, kNodeCrashed, Status::kNodeFailed, kTimeout, false, 0},
      {kCas, kStaleEpoch, Status::kStaleEpoch, kCasAck, false, kNack},
      {kCas, kMovedReplica, Status::kMovedReplica, kCasAck, false, kNack},
      {kCas, kNackResponseDropped, Status::kNodeFailed, kTimeout, false, 0},

      {kWriteThenCas, kDelivered, Status::kOk, kSeriesAck, true, kAckBytes + 8},
      {kWriteThenCas, kRequestDropped, Status::kNodeFailed, kTimeout, false, 0},
      {kWriteThenCas, kResponseDropped, Status::kNodeFailed, kTimeout, true, 0},
      {kWriteThenCas, kNodeCrashed, Status::kNodeFailed, kTimeout, false, 0},
      {kWriteThenCas, kStaleEpoch, Status::kStaleEpoch, kSeriesAck, false, kNack},
      {kWriteThenCas, kMovedReplica, Status::kMovedReplica, kSeriesAck, false, kNack},
      {kWriteThenCas, kNackResponseDropped, Status::kNodeFailed, kTimeout, false, 0},
  };

  for (const VerbCell& cell : cells) {
    SCOPED_TRACE(::testing::Message() << "verb " << static_cast<int>(cell.kind) << " fate "
                                      << static_cast<int>(cell.fate));
    Simulator sim;
    Fabric fabric(&sim, TestConfig());
    ClientCpu cpu(&sim);
    cpu.Configure(&fabric.stats(), /*batching_enabled=*/true);
    Qp qp(&fabric, 0, &cpu);
    const uint64_t epoch = 1;
    qp.set_epoch(&epoch);

    MemoryNode& node = fabric.node(0);
    const uint64_t buf = node.Allocate(kBufLen + 8);
    node.WriteFrom(buf, std::vector<uint8_t>(kBufLen, 0x11));
    node.StoreWord(buf + kBufLen, kOldWord);
    std::vector<uint8_t> before(kBufLen + 8);
    node.ReadInto(buf, before);

    switch (cell.fate) {
      case kDelivered:
        break;
      case kRequestDropped:
        fabric.set_drop_fn([](int, bool response, int) { return !response; });
        break;
      case kResponseDropped:
        fabric.set_drop_fn([](int, bool response, int) { return response; });
        break;
      case kNodeCrashed:
        fabric.Crash(0);
        break;
      case kStaleEpoch:
        fabric.SetFenceEpoch(epoch + 1);
        break;
      case kMovedReplica:
        node.RetireRegion(buf, kBufLen + 8);
        break;
      case kNackResponseDropped:
        fabric.SetFenceEpoch(epoch + 1);
        fabric.set_drop_fn([](int, bool response, int) { return response; });
        break;
    }

    VerbOutcome out;
    Spawn(RunVerbCell(&fabric, &qp, cell.kind, buf, &out));
    sim.Run();
    const FabricStats& st = out.stats;

    EXPECT_EQ(out.result.status, cell.status);
    EXPECT_EQ(out.done, cell.done);
    EXPECT_EQ(out.region != before, cell.memory_changed);
    if (cell.memory_changed && cell.kind != kWrite) {
      uint64_t word = 0;
      std::memcpy(&word, out.region.data() + kBufLen, 8);
      EXPECT_EQ(word, kNewWord);
    }
    // Only an answered CAS reports the word it found.
    const bool cas_answered = cell.status == Status::kOk && (cell.kind == kCas ||
                                                             cell.kind == kWriteThenCas);
    EXPECT_EQ(out.result.old_value, cas_answered ? kOldWord : 0);

    const bool series = cell.kind == kWriteThenCas;
    const bool has_write = cell.kind == kWrite || series;
    const bool has_cas = cell.kind == kCas || series;
    EXPECT_EQ(st.ops_issued, series ? 2u : 1u);
    EXPECT_EQ(st.reads, cell.kind == kRead ? 1u : 0u);
    EXPECT_EQ(st.writes, has_write ? 1u : 0u);
    EXPECT_EQ(st.casses, has_cas ? 1u : 0u);
    EXPECT_EQ(st.bytes_to_nodes, (series ? 2 : 1) * kVerbHeaderBytes + (has_write ? kBufLen : 0) +
                                     (has_cas ? 16 : 0));
    EXPECT_EQ(st.bytes_from_nodes, cell.bytes_from_nodes);
    EXPECT_EQ(st.doorbells, 1u);
    EXPECT_EQ(st.batches, 0u);
    EXPECT_EQ(st.doorbell_splits, 0u);

    // kStaleEpoch, and only kStaleEpoch, revokes the QP: the next verb fails
    // fast, at its posting instant, and neither submits nor counts.
    const bool revoke = cell.status == Status::kStaleEpoch;
    EXPECT_EQ(out.revoked, revoke);
    if (revoke) {
      EXPECT_EQ(out.next.status, Status::kStaleEpoch);
      EXPECT_EQ(out.next_done, out.done);
      EXPECT_EQ(out.next_stats.ops_issued, st.ops_issued);
      EXPECT_EQ(out.next_stats.doorbells, st.doorbells);
    } else {
      EXPECT_GT(out.next_done, out.done);
      EXPECT_EQ(out.next_stats.doorbells, st.doorbells + 1);
    }
  }
}

// A READ has no effect at the node, so one whose response leg drops is lost
// at departure: it never occupies the node's NIC, and a READ from another QP
// arriving at the same instant is served at once.
TEST(Fabric, LostReadNeverReservesTheNic) {
  for (bool drop : {false, true}) {
    SCOPED_TRACE(drop ? "response dropped" : "delivered");
    Simulator sim;
    Fabric fabric(&sim, TestConfig());
    fabric.set_drop_fn(
        [drop](int, bool response, int tag) { return drop && response && tag == 1; });
    const uint64_t addr = fabric.node(0).Allocate(8);
    Qp first(&fabric, 0, nullptr);
    first.set_chaos_tag(1);
    Qp probe(&fabric, 0, nullptr);
    Time probe_done = -1;
    auto read = [](Fabric* f, Qp* qp, uint64_t a, Time* done) -> Task<void> {
      std::vector<uint8_t> out(8);
      swarm::DiscardStatus(co_await qp->Read(a, out));
      if (done != nullptr) {
        *done = f->sim()->Now();
      }
    };
    Spawn(read(&fabric, &first, addr, nullptr));
    Spawn(read(&fabric, &probe, addr, &probe_done));
    sim.Run();
    // Both arrive at 700; a served first READ holds the NIC for node_op_cost.
    EXPECT_EQ(probe_done, (drop ? 700 : 750) + 50 + 250 + 700);
  }
}

TEST(Fabric, ExtraDelaySlowsNode) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.node(0).set_extra_delay(5000);
  Time latency = 0;
  Status status = Status::kNodeFailed;
  auto op = [](Fabric* f, Time* lat, Status* st) -> Task<void> {
    Qp qp(f, 0, nullptr);
    uint64_t addr = f->node(0).Allocate(8);
    std::vector<uint8_t> out(8);
    Time start = f->sim()->Now();
    OpResult r = co_await qp.Read(addr, out);
    *lat = f->sim()->Now() - start;
    *st = r.status;
  };
  Spawn(op(&fabric, &latency, &status));
  sim.Run();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_GT(latency, 6000);
}

}  // namespace
}  // namespace swarm::fabric
