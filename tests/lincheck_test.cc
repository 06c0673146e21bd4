// Self-tests for the linearizability checker: it must accept known-good
// histories and reject classic violations, otherwise the protocol stress
// tests prove nothing.
//
// Every regression shape runs through BOTH engines — the unbounded WGL
// checker (src/verify/lincheck.cc) and the legacy 63-op bitmask DFS kept as
// a differential oracle — plus CheckReport, whose verdict must agree with
// Check. A randomized differential sweep (10k small histories) pins the two
// engines to identical verdicts across duplicate values, zeros, pending ops
// and concurrency shapes the handwritten cases miss.

#include "src/verify/lincheck.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/sim/random.h"

namespace swarm::verify {
namespace {

HistoryOp W(uint64_t v, sim::Time inv, sim::Time resp) { return {true, v, inv, resp, false}; }
HistoryOp R(uint64_t v, sim::Time inv, sim::Time resp) { return {false, v, inv, resp, false}; }
// An op whose response was never recorded (timeout / crash mid-call): it may
// have applied at any point after `inv`, or never.
HistoryOp PW(uint64_t v, sim::Time inv) { return {true, v, inv, 0, true}; }
HistoryOp PR(sim::Time inv) { return {false, 0, inv, 0, true}; }

// All engines plus the report must agree on every handwritten shape: the
// frontier engine (Check), the retained scan engine (CheckBaseline), the
// legacy bitmask DFS where it applies, and CheckReport's verdict.
void ExpectVerdict(const std::vector<HistoryOp>& ops, bool linearizable) {
  EXPECT_EQ(LinearizabilityChecker::Check(ops), linearizable);
  EXPECT_EQ(LinearizabilityChecker::CheckBaseline(ops), linearizable)
      << "scan baseline disagrees";
  if (ops.size() <= 63) {
    EXPECT_EQ(LinearizabilityChecker::CheckLegacy(ops), linearizable)
        << "legacy oracle disagrees";
  }
  CheckResult report = LinearizabilityChecker::CheckReport(ops);
  EXPECT_EQ(report.linearizable, linearizable) << report.Describe(ops);
}

TEST(Lincheck, EmptyHistoryIsLinearizable) { ExpectVerdict({}, true); }

TEST(Lincheck, SequentialWriteRead) { ExpectVerdict({W(1, 0, 10), R(1, 20, 30)}, true); }

TEST(Lincheck, ReadOfInitialValue) { ExpectVerdict({R(0, 0, 10), W(1, 20, 30)}, true); }

TEST(Lincheck, StaleReadAfterWriteCompletesIsRejected) {
  // W(1) finished at 10; a read invoked at 20 must not return 0.
  ExpectVerdict({W(1, 0, 10), R(0, 20, 30)}, false);
}

TEST(Lincheck, ConcurrentReadMayReturnEitherValue) {
  ExpectVerdict({W(1, 0, 100), R(0, 10, 20)}, true);
  ExpectVerdict({W(1, 0, 100), R(1, 10, 20)}, true);
}

TEST(Lincheck, ReadValueNeverWrittenIsRejected) {
  ExpectVerdict({W(1, 0, 10), R(7, 20, 30)}, false);
}

TEST(Lincheck, NewOldInversionIsRejected) {
  // Two sequential reads must not observe values in an order contradicting
  // write order: R(2) then R(1) where W(1) precedes W(2).
  ExpectVerdict(
      {
          W(1, 0, 10),
          W(2, 20, 30),
          R(2, 40, 50),
          R(1, 60, 70),
      },
      false);
}

TEST(Lincheck, ConcurrentWritesAllowEitherOrder) {
  ExpectVerdict(
      {
          W(1, 0, 100),
          W(2, 0, 100),
          R(1, 200, 210),
      },
      true);
  ExpectVerdict(
      {
          W(1, 0, 100),
          W(2, 0, 100),
          R(2, 200, 210),
      },
      true);
}

TEST(Lincheck, OrderPinnedByIntermediateRead) {
  // A read of 2 between the writes' responses and a later read of 1 is a
  // violation: once 2 was observed, 1 cannot come back.
  ExpectVerdict(
      {
          W(1, 0, 100),
          W(2, 0, 100),
          R(2, 150, 160),
          R(1, 170, 180),
      },
      false);
}

TEST(Lincheck, ReadsSplittingConcurrentWritesAreAllowed) {
  // Both writes are concurrent with both reads, so W2, R(2), W1, R(1) is a
  // valid linearization: the reads may observe the writes in either order.
  ExpectVerdict(
      {
          W(1, 0, 300),
          W(2, 0, 300),
          R(2, 50, 60),
          R(1, 70, 80),
      },
      true);
}

TEST(Lincheck, LongValidHistory) {
  std::vector<HistoryOp> h;
  sim::Time t = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    h.push_back(W(i, t, t + 10));
    h.push_back(R(i, t + 20, t + 30));
    t += 40;
  }
  ExpectVerdict(h, true);
}

// ---------- Pending operations (crash-truncated histories) ----------

TEST(Lincheck, PendingWriteMayApply) {
  // The write's ack was lost, but a later read observed it: the checker must
  // linearize the pending write before the read.
  ExpectVerdict({PW(2, 0), R(2, 100, 110)}, true);
}

TEST(Lincheck, PendingWriteMayNeverApply) {
  // The pending write is never observed: reads keep seeing the old value
  // forever, which is fine — the dropped request case.
  ExpectVerdict(
      {
          W(1, 0, 10),
          PW(2, 20),
          R(1, 100, 110),
          R(1, 200, 210),
      },
      true);
}

TEST(Lincheck, PendingWriteOnceObservedStaysApplied) {
  // Once a completed read returned the pending write's value, the write is
  // in the linearization; a later read reverting to the old value is a
  // violation.
  ExpectVerdict(
      {
          W(1, 0, 10),
          PW(2, 20),
          R(2, 100, 110),
          R(1, 200, 210),
      },
      false);
}

TEST(Lincheck, PendingWriteCannotApplyBeforeItsInvocation) {
  // The read COMPLETED before the pending write was even invoked, so the
  // write cannot explain it.
  ExpectVerdict({R(2, 0, 10), PW(2, 20)}, false);
}

TEST(Lincheck, PendingWriteDoesNotBlockLaterOps) {
  // A pending op has no response, so it must never gate the enabling rule:
  // ops invoked long after it still linearize freely around it.
  ExpectVerdict(
      {
          PW(9, 0),
          W(1, 100, 110),
          R(1, 200, 210),
          W(2, 300, 310),
          R(2, 400, 410),
      },
      true);
}

TEST(Lincheck, PendingReadIsUnconstrained) {
  ExpectVerdict({W(1, 0, 10), PR(5), R(1, 20, 30)}, true);
}

TEST(Lincheck, CrashTruncatedHistoryMix) {
  // Two clients crash mid-call (one write observed, one not) while a third
  // keeps operating: the completed suffix must still linearize.
  ExpectVerdict(
      {
          W(1, 0, 10),
          PW(2, 20),  // Observed below: applied.
          PW(3, 20),  // Never observed: dropped.
          R(2, 100, 110),
          W(4, 200, 210),
          R(4, 300, 310),
      },
      true);
  // But the completed suffix alone still rejects violations.
  ExpectVerdict(
      {
          W(1, 0, 10),
          PW(2, 20),
          R(2, 100, 110),
          W(4, 200, 210),
          R(1, 300, 310),  // 1 cannot resurface after 2 and 4.
      },
      false);
}

TEST(Lincheck, ConcurrentAmbiguityWithPendingWrites) {
  // Two pending writes concurrent with two completed reads: any subset of
  // the pending writes may have applied, in either order.
  ExpectVerdict({PW(1, 0), PW(2, 0), R(2, 50, 60), R(1, 70, 80)}, true);
  ExpectVerdict({PW(1, 0), PW(2, 0), R(1, 50, 60), R(2, 70, 80)}, true);
  ExpectVerdict({PW(1, 0), PW(2, 0), R(0, 50, 60), R(2, 70, 80)}, true);
  // A value nobody ever wrote is still impossible.
  ExpectVerdict({PW(1, 0), PW(2, 0), R(3, 50, 60)}, false);
}

TEST(Lincheck, InterleavedConcurrentBatchIsCheckedExhaustively) {
  // 6 concurrent writes and 3 reads that observe a consistent order.
  std::vector<HistoryOp> h;
  for (uint64_t i = 1; i <= 6; ++i) {
    h.push_back(W(i, 0, 1000));
  }
  h.push_back(R(3, 1100, 1200));
  h.push_back(R(3, 1300, 1400));
  ExpectVerdict(h, true);
  h.push_back(R(5, 1500, 1600));  // 3 then 5: fine (5 linearized later? no —
  // once 3 observed after all writes responded, the final value is 3).
  ExpectVerdict(h, false);
}

TEST(Lincheck, DuplicateWriteValuesAreHandled) {
  // Two writes of the same value: either can explain either read.
  ExpectVerdict({W(5, 0, 10), W(5, 20, 30), R(5, 40, 50)}, true);
  // A pending duplicate may be the only possible explanation: W(5) completed
  // long ago, W(7) overwrote it, and a read of 5 after W(7) needs the
  // pending second W(5).
  ExpectVerdict(
      {
          W(5, 0, 10),
          W(7, 20, 30),
          PW(5, 40),
          R(5, 100, 110),
      },
      true);
  // Without the pending duplicate, the same read is a violation.
  ExpectVerdict(
      {
          W(5, 0, 10),
          W(7, 20, 30),
          R(5, 100, 110),
      },
      false);
}

TEST(Lincheck, ZeroValueWritesModelRemoves) {
  // A completed write of 0 (a remove) makes a later read of 0 valid and a
  // later read of the removed value a violation.
  ExpectVerdict({W(3, 0, 10), W(0, 20, 30), R(0, 40, 50)}, true);
  ExpectVerdict({W(3, 0, 10), W(0, 20, 30), R(3, 40, 50)}, false);
  // A pending remove may or may not have applied.
  ExpectVerdict({W(3, 0, 10), PW(0, 20), R(0, 40, 50)}, true);
  ExpectVerdict({W(3, 0, 10), PW(0, 20), R(3, 40, 50)}, true);
  // But once its effect was observed, it stays applied.
  ExpectVerdict({W(3, 0, 10), PW(0, 20), R(0, 40, 50), R(3, 60, 70)}, false);
}

// ---------- Beyond the legacy cap ----------

TEST(Lincheck, HistoriesBeyondSixtyThreeOpsAreChecked) {
  // The legacy DFS rejects >63 ops outright; the WGL engine must both
  // accept a valid 200-op history and reject it once corrupted.
  std::vector<HistoryOp> h;
  sim::Time t = 0;
  for (uint64_t i = 1; i <= 100; ++i) {
    h.push_back(W(i, t, t + 10));
    h.push_back(R(i, t + 20, t + 30));
    t += 40;
  }
  EXPECT_FALSE(LinearizabilityChecker::CheckLegacy(h));  // The historical cap.
  EXPECT_TRUE(LinearizabilityChecker::Check(h));
  h[150].value = 4;  // A read deep in the history observes an old value.
  EXPECT_FALSE(LinearizabilityChecker::Check(h));
}

TEST(Lincheck, PerKeyPartitioningChecksCellsIndependently) {
  // Interleaved ops on two keys: each cell is fine on its own and the
  // history must pass; corrupting ONE cell must fail with that key named.
  std::vector<HistoryOp> h;
  for (uint64_t i = 1; i <= 40; ++i) {
    HistoryOp w = W(i, i * 100, i * 100 + 10);
    w.key = i % 2;
    HistoryOp r = R(i, i * 100 + 20, i * 100 + 30);
    r.key = i % 2;
    h.push_back(w);
    h.push_back(r);
  }
  ASSERT_TRUE(LinearizabilityChecker::Check(h));
  // Key 1's last read goes stale (reads key 1's previous value, 37).
  ASSERT_FALSE(h[77].is_write);
  ASSERT_EQ(h[77].key, 1u);
  h[77].value = 37;
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  EXPECT_FALSE(report.linearizable);
  EXPECT_EQ(report.key, 1u);
}

TEST(Lincheck, FailureReportShrinksToMinimalWindow) {
  // 30 clean sequential rounds, then a stale read: the report must pin the
  // culprit and confine the window to a small tail, not echo the whole
  // history.
  std::vector<HistoryOp> h;
  sim::Time t = 0;
  for (uint64_t i = 1; i <= 30; ++i) {
    h.push_back(W(i, t, t + 10));
    h.push_back(R(i, t + 20, t + 30));
    t += 40;
  }
  h.push_back(R(7, t, t + 10));  // Stale: 7 was overwritten 23 rounds ago.
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  ASSERT_FALSE(report.linearizable);
  EXPECT_EQ(report.culprit, h.size() - 1);
  // The minimal window is the stale read plus at most its quiescent
  // neighborhood — far smaller than the 61-op history.
  EXPECT_LE(report.window_ops.size(), 4u);
  const std::string text = report.Describe(h);
  EXPECT_NE(text.find("NON-LINEARIZABLE"), std::string::npos) << text;
  EXPECT_NE(text.find("R(7)"), std::string::npos) << text;
}

TEST(Lincheck, MinimizerHandlesDuplicateValuesAcrossWindows) {
  // The failing window's entry value (5, carried from the first window) can
  // explain reads of 5 without the pending duplicate write — the minimizer
  // must not cap PW(5) as if it were the unique writer, or it rejects a
  // linearizable truncation and blames the wrong op. The only real
  // violation here is the final R(9): value never written.
  std::vector<HistoryOp> h = {
      W(5, 0, 10),
      R(5, 20, 30),
      PW(5, 100),       // Duplicate of window 1's value, pending.
      R(5, 110, 120),   // Explained by the ENTRY value 5 alone.
      W(7, 130, 140),
      R(5, 200, 210),   // Needs PW(5) applied after W(7) — fine.
      R(9, 300, 310),   // The actual violation.
  };
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  ASSERT_FALSE(report.linearizable);
  EXPECT_EQ(report.culprit, 6u) << report.Describe(h);
}

TEST(Lincheck, ReportOnPendingAmbiguityNamesTheCulprit) {
  std::vector<HistoryOp> h = {
      W(1, 0, 10),
      PW(2, 20),
      R(2, 100, 110),
      R(1, 200, 210),  // 1 cannot resurface once 2 was observed.
  };
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  ASSERT_FALSE(report.linearizable);
  EXPECT_EQ(report.culprit, 3u);
}

// ---------- Differential sweep: WGL vs. the legacy bitmask DFS ----------

// Random small histories over few values and a short time range maximize
// concurrency, duplicates and pending-op interactions. Both engines must
// produce identical verdicts on every one of them.
TEST(LincheckDifferential, TenThousandRandomHistoriesAgreeWithLegacyDfs) {
  sim::Rng rng(20240803);
  int rejected = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const int n = 1 + static_cast<int>(rng.Below(12));
    const uint64_t values = 1 + rng.Below(4);  // Duplicates likely.
    const sim::Time span = 10 + static_cast<sim::Time>(rng.Below(90));
    std::vector<HistoryOp> h;
    h.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      HistoryOp op;
      op.is_write = rng.Chance(0.5);
      // Reads of 0 (the initial value) and writes of 0 (removes) included.
      op.value = rng.Below(values + 1);
      op.invoked = static_cast<sim::Time>(rng.Below(static_cast<uint64_t>(span)));
      op.responded = op.invoked + 1 + static_cast<sim::Time>(rng.Below(static_cast<uint64_t>(span)));
      op.pending = rng.Chance(0.2);
      h.push_back(op);
    }
    const bool legacy = LinearizabilityChecker::CheckLegacy(h);
    const bool wgl = LinearizabilityChecker::Check(h);
    const bool scan = LinearizabilityChecker::CheckBaseline(h);
    rejected += wgl ? 0 : 1;
    if (legacy != wgl || scan != wgl) {
      std::string dump;
      for (const HistoryOp& op : h) {
        dump += std::string(op.is_write ? " W(" : " R(") + std::to_string(op.value) + ")@" +
                std::to_string(op.invoked) +
                (op.pending ? "p" : ".." + std::to_string(op.responded));
      }
      FAIL() << "verdicts disagree on iteration " << iter << " (legacy=" << legacy
             << " wgl=" << wgl << " scan=" << scan << "):" << dump;
    }
  }
  // The sweep must actually discriminate: a generator that only produces
  // trivially-accepted histories would prove nothing.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9000);
}

// The frontier engine vs. the retained scan engine BEYOND the legacy cap:
// medium multi-key histories with enough overlap that windows hold dozens
// of concurrent ops, exercising the COW chunk memo and the frontier list
// through nontrivial backtracking. Verdicts must match exactly.
TEST(LincheckDifferential, FrontierAgreesWithScanBaselineOnMediumHistories) {
  sim::Rng rng(20260808);
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const int n = 20 + static_cast<int>(rng.Below(80));
    const uint64_t values = 1 + rng.Below(6);
    const uint64_t keys = 1 + rng.Below(3);
    std::vector<HistoryOp> h;
    h.reserve(static_cast<size_t>(n));
    // A rolling clock with short overlaps keeps windows at a handful of
    // concurrent ops — the regime both engines must traverse identically.
    // (Fully random invocations at n≈100 would put the whole history in one
    // window and make BOTH engines exponential; window size, not history
    // length, bounds WGL cost.)
    sim::Time t = 0;
    std::vector<uint64_t> current(keys, 0);  // Tracked committed value per key.
    for (int i = 0; i < n; ++i) {
      HistoryOp op;
      op.is_write = rng.Chance(0.5);
      op.key = rng.Below(keys);
      t += 1 + static_cast<sim::Time>(rng.Below(20));
      op.invoked = t;
      op.responded = t + 1 + static_cast<sim::Time>(rng.Below(40));
      op.pending = rng.Chance(0.15);
      if (op.is_write) {
        op.value = rng.Below(values + 1);
        if (!op.pending) {
          current[op.key] = op.value;
        }
      } else {
        // Mostly-plausible reads (overlap still produces honest rejections),
        // rarely a corrupt one — so both verdicts stay well represented.
        op.value = rng.Chance(0.03) ? rng.Below(values + 1) : current[op.key];
      }
      h.push_back(op);
    }
    const bool frontier = LinearizabilityChecker::Check(h);
    const bool scan = LinearizabilityChecker::CheckBaseline(h);
    rejected += frontier ? 0 : 1;
    ASSERT_EQ(frontier, scan) << "engines disagree on iteration " << iter;
  }
  EXPECT_GT(rejected, 200);
  EXPECT_LT(rejected, 1900);
}

// ---------- The soak acceptance bar ----------

// A 2,000+-op multi-key chaos-shaped history — the scale the legacy DFS
// hard-rejected — must be checked in well under 5 seconds.
TEST(Lincheck, PendingRemoveLateEffectSurvivesTheOptimisticCap) {
  // The optimistic pending-remove cap's false-rejection shape: the pending
  // remove's only valid placement is AFTER the completed overwrite it was
  // capped before — W(5), R(5), remove applies, R(0). The capped pass
  // rejects; the exact fallback must accept, so the verdict stays exact.
  const std::vector<HistoryOp> ops = {
      PW(0, 10),       // Pending remove, observed by the final read.
      W(5, 12, 20),    // The "next completed overwrite" that caps it.
      R(5, 30, 40),    // Pins W(5) before the remove's effect.
      R(0, 50, 60),    // Only the pending remove can explain this.
  };
  ExpectVerdict(ops, true);
  CheckResult report = LinearizabilityChecker::CheckReport(ops);
  EXPECT_TRUE(report.linearizable);
  EXPECT_EQ(report.stats.fallback_cells, 1u) << "the exact fallback must have run";
}

TEST(Lincheck, ObservedPendingRemoveNoLongerMergesAllWindows) {
  // Pre-fix, one observed pending zero-value write kept its window open to
  // the end of the cell: every later op merged into a single window. With
  // the next-completed-overwrite cap the splitter keeps cutting. The history
  // stays linearizable (the remove can apply right where it was invoked), so
  // no fallback runs and the windows stay small.
  std::vector<HistoryOp> ops;
  ops.push_back(W(1, 0, 10));
  ops.push_back(PW(0, 12));        // Observed pending remove...
  ops.push_back(R(0, 15, 25));     // ...by this read.
  sim::Time t = 30;
  for (uint64_t v = 2; v < 40; ++v) {
    ops.push_back(W(v, t, t + 5));          // Sequential tail: quiescent cuts
    ops.push_back(R(v, t + 10, t + 15));    // between every pair.
    t += 20;
  }
  CheckResult report = LinearizabilityChecker::CheckReport(ops);
  EXPECT_TRUE(report.linearizable) << report.Describe(ops);
  EXPECT_EQ(report.stats.fallback_cells, 0u);
  EXPECT_GE(report.stats.windows, 30u) << "the splitter stopped cutting";
  EXPECT_LE(report.stats.max_window_ops, 8u) << "a pending remove swallowed the tail";
}

TEST(LincheckSoak, TwoThousandOpMultiKeyHistoryChecksUnderFiveSeconds) {
  sim::Rng rng(7);
  std::vector<HistoryOp> h;
  std::vector<uint64_t> current(64, 0);  // Per-key latest committed value.
  uint64_t next_value = 1;
  sim::Time t = 0;
  while (h.size() < 2200) {
    const uint64_t key = rng.Below(64);
    t += 1 + static_cast<sim::Time>(rng.Below(40));
    HistoryOp op;
    op.key = key;
    op.invoked = t;
    op.responded = t + 1 + static_cast<sim::Time>(rng.Below(200));  // Overlapping ops.
    if (rng.Chance(0.45)) {
      op.is_write = true;
      op.value = next_value++;
      if (rng.Chance(0.08)) {
        op.pending = true;  // Ack lost; may or may not have applied.
      } else {
        current[key] = op.value;
      }
    } else {
      op.is_write = false;
      op.value = current[key];
    }
    h.push_back(op);
  }
  const auto start = std::chrono::steady_clock::now();
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // The generator is not a faithful linearizable scheduler (concurrent
  // overlaps can contradict the commit order it tracks), so only the BOUND
  // is asserted, not the verdict — plus that the partitioning actually
  // decomposed the history.
  EXPECT_LT(secs, 5.0) << report.Describe(h);
  EXPECT_EQ(report.stats.cells, 64u);
  EXPECT_GE(report.stats.windows, report.stats.cells);
}

// The tentpole bar: a 10^5-op / 64-key chaos-shaped history — 50x the
// previous soak scale — checks in well under the 60 s CI budget (it runs in
// about a second; the bound leaves room for slow shared runners and ASan).
TEST(LincheckSoak, HundredThousandOpMultiKeyHistoryChecksUnderSixtySeconds) {
  sim::Rng rng(11);
  std::vector<HistoryOp> h;
  std::vector<uint64_t> current(64, 0);
  uint64_t next_value = 1;
  sim::Time t = 0;
  while (h.size() < 100000) {
    const uint64_t key = rng.Below(64);
    t += 1 + static_cast<sim::Time>(rng.Below(40));
    HistoryOp op;
    op.key = key;
    op.invoked = t;
    op.responded = t + 1 + static_cast<sim::Time>(rng.Below(200));
    if (rng.Chance(0.45)) {
      op.is_write = true;
      op.value = next_value++;
      if (rng.Chance(0.08)) {
        op.pending = true;
      } else {
        current[key] = op.value;
      }
    } else {
      op.is_write = false;
      op.value = current[key];
    }
    h.push_back(op);
  }
  const auto start = std::chrono::steady_clock::now();
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(secs, 60.0) << report.Describe(h);
  EXPECT_EQ(report.stats.cells, 64u);
  EXPECT_GE(report.stats.windows, report.stats.cells);
}

// ---------- Minimizer cost and report shape at scale ----------

// The failure minimizer binary-searches the completion cuts, so even a
// many-thousand-op failing window costs O(log n) truncation re-checks —
// and the culprit/window naming must survive the frontier rewrite.
TEST(LincheckSoak, MinimizerProbesStaySubLinearAtScale) {
  // A 10,000-write chain where every write overlaps the next — no quiescent
  // point ever occurs, so the whole cell is ONE window — capped by a stale
  // read overlapping the chain's tail. The minimizer faces 10,001
  // completions; a linear truncation sweep would re-check the giant window
  // per completion (the pre-rewrite behavior, quadratic and minutes-slow),
  // while the binary search must land the same earliest failing cut in
  // O(log n) probes.
  std::vector<HistoryOp> h;
  const uint64_t kWrites = 10000;
  for (uint64_t i = 1; i <= kWrites; ++i) {
    const sim::Time t = static_cast<sim::Time>(10 * i);
    h.push_back(W(i, t, t + 15));  // Overlaps W(i+1) invoked at t + 10.
  }
  // Stale read of the first value, still overlapping W(kWrites): every
  // write must linearize before it, so value 1 is impossible.
  const sim::Time tail = static_cast<sim::Time>(10 * kWrites);
  h.push_back(R(1, tail + 5, tail + 20));
  const auto start = std::chrono::steady_clock::now();
  CheckResult report = LinearizabilityChecker::CheckReport(h);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(report.linearizable);
  EXPECT_EQ(report.culprit, h.size() - 1) << report.Describe(h).substr(0, 400);
  EXPECT_EQ(report.stats.max_window_ops, kWrites + 1) << "expected one giant window";
  // ceil(log2(10001)) = 14 plus the suffix guard probe, with slack — far
  // below the 10,001 probes of a linear sweep.
  EXPECT_GT(report.stats.minimize_probes, 1u);
  EXPECT_LE(report.stats.minimize_probes, 24u);
  EXPECT_LT(secs, 10.0) << "minimization dominated the check";
}

}  // namespace
}  // namespace swarm::verify
