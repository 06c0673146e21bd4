// Self-tests for the linearizability checker: it must accept known-good
// histories and reject classic violations, otherwise the protocol stress
// tests prove nothing.
//
// The checker has one engine (src/verify/lincheck.cc). Its references here
// share nothing with it but HistoryOp:
//
//  * A definition-level oracle: Herlihy & Wing's definition ("Linearizability:
//    A Correctness Condition for Concurrent Objects", TOPLAS 1990) searched
//    directly, with no memo, pending-op closure, optimistic cap or window
//    split. Every handwritten shape of at most 12 ops runs through it next to
//    Check and CheckReport. A sweep of 10k random 1-12-op histories pins all
//    three to identical verdicts across duplicate values, zeros, pending ops
//    and concurrency shapes the handwritten cases miss, and a sweep of 20k
//    1-8-op histories checks that CheckReport's window is minimal.
//  * Medium histories (20-100 ops, windows of dozens of ops) whose verdict is
//    known by construction: every op takes effect inside its interval, so the
//    checker must accept; one read made provably stale, and it must reject.

#include "src/verify/lincheck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>
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

constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

// The definition, searched without a memo: place ops one at a time and
// accept once every completed op is placed.
//  * A pending read's result is unknown: it is dropped.
//  * A pending write may be placed anywhere after its invocation, or never.
//  * An op may be placed next iff no unplaced completed op responded before
//    it was invoked (an op invoked at another's response is concurrent).
//  * A read returns its key's latest placed write, or 0.
// Exponential in the op count: meant for histories of at most 12 ops.
class DefinitionOracle {
 public:
  static bool Linearizable(const std::vector<HistoryOp>& h) { return DefinitionOracle(h).Place(); }

 private:
  explicit DefinitionOracle(const std::vector<HistoryOp>& h) : h_(h), placed_(h.size()) {
    for (size_t i = 0; i < h.size(); ++i) {
      placed_[i] = h[i].pending && !h[i].is_write;
    }
  }

  uint64_t Current(uint64_t key) const {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (h_[*it].is_write && h_[*it].key == key) {
        return h_[*it].value;
      }
    }
    return 0;
  }

  bool Place() {
    sim::Time horizon = kNever;  // Earliest response of an unplaced completed op.
    for (size_t i = 0; i < h_.size(); ++i) {
      if (!placed_[i] && !h_[i].pending) {
        horizon = std::min(horizon, h_[i].responded);
      }
    }
    if (horizon == kNever) {
      return true;
    }
    for (size_t i = 0; i < h_.size(); ++i) {
      const HistoryOp& op = h_[i];
      if (placed_[i] || op.invoked > horizon || (!op.is_write && op.value != Current(op.key))) {
        continue;
      }
      placed_[i] = true;
      order_.push_back(i);
      const bool found = Place();
      placed_[i] = false;
      order_.pop_back();
      if (found) {
        return true;
      }
    }
    return false;
  }

  const std::vector<HistoryOp>& h_;
  std::vector<bool> placed_;
  std::vector<size_t> order_;
};

// The history an observer records at `cut`: ops invoked later are dropped,
// ops still in flight become pending.
std::vector<HistoryOp> TruncateAt(const std::vector<HistoryOp>& h, sim::Time cut) {
  std::vector<HistoryOp> out;
  for (HistoryOp op : h) {
    if (op.invoked > cut) {
      continue;
    }
    op.pending = op.pending || op.responded > cut;
    out.push_back(op);
  }
  return out;
}

std::string Dump(const std::vector<HistoryOp>& h) {
  std::string dump;
  for (const HistoryOp& op : h) {
    dump += std::string(op.is_write ? " W(" : " R(") + std::to_string(op.value) + ")@" +
            std::to_string(op.invoked) + (op.pending ? "p" : ".." + std::to_string(op.responded));
    if (op.key != 0) {
      dump += 'k';  // Appended apart: GCC 12's -Wrestrict misfires on "k" + string at -O3.
      dump += std::to_string(op.key);
    }
  }
  return dump;
}

// Check and CheckReport must agree with the expected verdict on every
// handwritten shape, and so must the oracle where it is cheap.
void ExpectVerdict(const std::vector<HistoryOp>& ops, bool linearizable) {
  EXPECT_EQ(LinearizabilityChecker::Check(ops), linearizable);
  CheckResult report = LinearizabilityChecker::CheckReport(ops);
  EXPECT_EQ(report.linearizable, linearizable) << report.Describe(ops);
  if (ops.size() <= 12) {
    EXPECT_EQ(DefinitionOracle::Linearizable(ops), linearizable) << "oracle disagrees";
  }
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

// ---------- No cap on history length ----------

TEST(Lincheck, TwoHundredOpHistoryIsCheckedWithoutALengthCap) {
  // A valid 200-op history is accepted, and rejected once corrupted.
  std::vector<HistoryOp> h;
  sim::Time t = 0;
  for (uint64_t i = 1; i <= 100; ++i) {
    h.push_back(W(i, t, t + 10));
    h.push_back(R(i, t + 20, t + 30));
    t += 40;
  }
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

// ---------- The oracle sweeps ----------

// Random small histories over few values and a short time range maximize
// concurrency, duplicates and pending-op interactions.
std::vector<HistoryOp> RandomSmallHistory(sim::Rng& rng, int max_ops) {
  const int n = 1 + static_cast<int>(rng.Below(static_cast<uint64_t>(max_ops)));
  const uint64_t values = 1 + rng.Below(4);  // Duplicates likely.
  const uint64_t span = 10 + rng.Below(90);
  std::vector<HistoryOp> h(static_cast<size_t>(n));
  for (HistoryOp& op : h) {
    op.is_write = rng.Chance(0.5);
    // Reads of 0 (the initial value) and writes of 0 (removes) included.
    op.value = rng.Below(values + 1);
    op.invoked = static_cast<sim::Time>(rng.Below(span));
    op.responded = op.invoked + 1 + static_cast<sim::Time>(rng.Below(span));
    op.pending = rng.Chance(0.2);
  }
  return h;
}

TEST(LincheckOracle, TenThousandRandomHistoriesAgreeWithTheDefinition) {
  sim::Rng rng(20240803);
  int rejected = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const std::vector<HistoryOp> h = RandomSmallHistory(rng, 12);
    const bool oracle = DefinitionOracle::Linearizable(h);
    const bool check = LinearizabilityChecker::Check(h);
    const bool report = LinearizabilityChecker::CheckReport(h).linearizable;
    rejected += oracle ? 0 : 1;
    ASSERT_TRUE(check == oracle && report == oracle)
        << "verdicts disagree on iteration " << iter << " (oracle=" << oracle
        << " check=" << check << " report=" << report << "):" << Dump(h);
  }
  // The sweep must actually discriminate: a generator that only produces
  // trivially-accepted histories would prove nothing.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9000);
}

// lincheck.h promises the shortest rejected truncation. By the definition:
// the truncation at the window's end is rejected, and the truncation at the
// completion just before it is accepted.
TEST(LincheckOracle, ReportedWindowIsMinimal) {
  sim::Rng rng(20261018);
  int rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::vector<HistoryOp> h = RandomSmallHistory(rng, 8);
    const CheckResult report = LinearizabilityChecker::CheckReport(h);
    if (report.linearizable) {
      continue;
    }
    ++rejected;
    ASSERT_FALSE(DefinitionOracle::Linearizable(TruncateAt(h, report.window_end)))
        << "iteration " << iter << ", cut " << report.window_end << ":" << Dump(h);
    std::optional<sim::Time> previous;
    for (const HistoryOp& op : h) {
      if (!op.pending && op.responded < report.window_end) {
        previous = std::max(previous.value_or(0), op.responded);
      }
    }
    if (previous.has_value()) {
      ASSERT_TRUE(DefinitionOracle::Linearizable(TruncateAt(h, *previous)))
          << "iteration " << iter << ", cut " << *previous << ":" << Dump(h);
    }
  }
  EXPECT_GT(rejected, 5000);
}

// ---------- Medium histories, verdict known by construction ----------

// A 20-100-op history over 1-3 keys that is linearizable by construction:
// every op takes effect at a point inside [invoked, responded] (a pending
// write there or never), the ops apply in point order, and each read returns
// its key's current value. Points inside the intervals respect real time, so
// the point order is a linearization. `unique` gives every write a fresh
// nonzero value; otherwise values 0-3 repeat, removes (0) included. A
// rolling clock with short overlaps keeps windows at up to a few dozen ops:
// window size, not history length, bounds the engine's cost.
std::vector<HistoryOp> LinearizableByConstruction(sim::Rng& rng, bool unique) {
  const size_t n = 20 + rng.Below(81);
  const uint64_t keys = 1 + rng.Below(3);
  std::vector<HistoryOp> h(n);
  std::vector<sim::Time> point(n);
  uint64_t next_value = 1;
  sim::Time t = 0;
  for (size_t i = 0; i < n; ++i) {
    HistoryOp& op = h[i];
    op.is_write = rng.Chance(0.5);
    op.key = rng.Below(keys);
    t += 1 + static_cast<sim::Time>(rng.Below(20));
    op.invoked = t;
    op.responded = t + 1 + static_cast<sim::Time>(rng.Below(40));
    op.pending = rng.Chance(0.15);
    if (op.is_write) {
      op.value = unique ? next_value++ : rng.Below(4);
    }
    point[i] = op.invoked + static_cast<sim::Time>(
                                rng.Below(static_cast<uint64_t>(op.responded - op.invoked) + 1));
    if (op.pending && op.is_write && rng.Chance(0.5)) {
      point[i] = kNever;  // Never applied.
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return point[a] < point[b]; });
  std::vector<uint64_t> current(keys, 0);
  for (size_t i : order) {
    if (point[i] == kNever) {
      continue;
    }
    if (h[i].is_write) {
      current[h[i].key] = h[i].value;
    } else {
      h[i].value = current[h[i].key];
    }
  }
  return h;
}

// Makes one completed read provably stale: it now returns the value of a
// completed write W(a) that precedes another completed write of its key,
// which precedes the read, in real time (W(a) -> W(b) -> R(a)). Exact only
// when no other write stores a. Returns the read's index, or nullopt when
// the history has no such triple.
std::optional<size_t> MakeOneReadStale(std::vector<HistoryOp>& h, sim::Rng& rng) {
  auto completed_write_of = [](const HistoryOp& w, uint64_t key) {
    return w.is_write && !w.pending && w.key == key;
  };
  std::vector<std::pair<size_t, uint64_t>> candidates;  // (read, stale value)
  for (size_t r = 0; r < h.size(); ++r) {
    if (h[r].is_write || h[r].pending) {
      continue;
    }
    // The latest invocation of a W(b) that responded before the read.
    std::optional<sim::Time> overwrite;
    for (const HistoryOp& b : h) {
      if (completed_write_of(b, h[r].key) && b.responded < h[r].invoked) {
        overwrite = std::max(overwrite.value_or(0), b.invoked);
      }
    }
    for (const HistoryOp& a : h) {
      if (overwrite.has_value() && completed_write_of(a, h[r].key) && a.responded < *overwrite) {
        candidates.push_back({r, a.value});
        break;
      }
    }
  }
  if (candidates.empty()) {
    return std::nullopt;
  }
  const auto [r, stale] = candidates[rng.Below(candidates.size())];
  h[r].value = stale;
  return r;
}

TEST(LincheckByConstruction, UniqueValueHistoriesAcceptAndStaleReadMutantsReject) {
  sim::Rng rng(20260808);
  int mutants = 0;
  uint64_t max_window = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<HistoryOp> h = LinearizableByConstruction(rng, /*unique=*/true);
    const CheckResult accepted = LinearizabilityChecker::CheckReport(h);
    ASSERT_TRUE(LinearizabilityChecker::Check(h) && accepted.linearizable)
        << "iteration " << iter << ":" << Dump(h);
    max_window = std::max(max_window, accepted.stats.max_window_ops);
    const std::optional<size_t> r = MakeOneReadStale(h, rng);
    if (!r.has_value()) {
      continue;
    }
    ++mutants;
    ASSERT_FALSE(LinearizabilityChecker::Check(h)) << "mutant " << iter << ":" << Dump(h);
    // Every truncation before the stale read's response is a truncation of
    // the linearizable original, so the minimal window ends exactly there.
    const CheckResult rejected = LinearizabilityChecker::CheckReport(h);
    ASSERT_FALSE(rejected.linearizable) << "mutant " << iter << ":" << Dump(h);
    EXPECT_EQ(rejected.key, h[*r].key) << rejected.Describe(h);
    EXPECT_EQ(rejected.window_end, h[*r].responded) << rejected.Describe(h);
  }
  EXPECT_GT(mutants, 1900);
  EXPECT_GE(max_window, 20u) << "windows too small to exercise backtracking";
}

// Duplicate values and removes take the pending-op closure's duplicate and
// zero paths (no unique-writer cap; the optimistic cap and its exact
// fallback), which unique values never reach.
TEST(LincheckByConstruction, DuplicateValueHistoriesAreAccepted) {
  sim::Rng rng(20261019);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<HistoryOp> h = LinearizableByConstruction(rng, /*unique=*/false);
    ASSERT_TRUE(LinearizabilityChecker::Check(h)) << "iteration " << iter << ":" << Dump(h);
    ASSERT_TRUE(LinearizabilityChecker::CheckReport(h).linearizable)
        << "iteration " << iter << ":" << Dump(h);
  }
}

// ---------- The optimistic pending-remove cap ----------

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

// ---------- The soak acceptance bar ----------

// A 2,000+-op multi-key chaos-shaped history must be checked in well under 5
// seconds.
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

// A 10^5-op / 64-key chaos-shaped history checks in well under the 60 s CI
// budget (it runs in about a second; the bound leaves room for slow shared
// runners and ASan).
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
// many-thousand-op failing window costs O(log n) truncation re-checks, and
// the report still names the culprit and its window.
TEST(LincheckSoak, MinimizerProbesStaySubLinearAtScale) {
  // A 10,000-write chain where every write overlaps the next — no quiescent
  // point ever occurs, so the whole cell is ONE window — capped by a stale
  // read overlapping the chain's tail. The minimizer faces 10,001
  // completions; a linear truncation sweep would re-check the giant window
  // per completion (quadratic and minutes-slow), while the binary search
  // must land the same earliest failing cut in O(log n) probes.
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
