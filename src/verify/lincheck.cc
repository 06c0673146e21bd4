#include "src/verify/lincheck.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/sim/pool.h"

namespace swarm::verify {
namespace {

constexpr sim::Time kNoDeadline = std::numeric_limits<sim::Time>::max();

// One retained op of a cell after the pending-op closure. `deadline` is the
// effective response the WGL enabling rule uses: the recorded response for
// completed ops, the capped window for pending writes whose unique value was
// read, kNoDeadline otherwise.
struct CellOp {
  size_t id = 0;  // Index into the caller's history vector.
  bool is_write = false;
  uint64_t value = 0;
  sim::Time invoked = 0;
  sim::Time deadline = 0;
  bool pending = false;  // Optional to linearize.
};

// A cell's input: (caller index, op), possibly rewritten by the failure
// minimizer (truncation re-marks in-flight ops as pending).
using CellInput = std::vector<std::pair<size_t, HistoryOp>>;

// Pending-op closure (sound AND complete — each rule preserves the verdict):
//  * pending reads constrain nothing (they are never required and never
//    change state) — dropped;
//  * a pending write whose value no completed read returned (at or after its
//    invocation) can only overwrite the register, never explain an op —
//    dropped;
//  * a pending write of a nonzero value written by no other op, whose value
//    WAS returned by completed reads, must linearize before the first such
//    read's response (it is the only write that can explain it) — its
//    deadline is capped there, re-enabling time-window cuts behind it. With
//    duplicate or zero values the unbounded window is kept: a capped window
//    is only provably equivalent for a unique writer.
// `ambient` lists values the register may hold BEFORE this history runs
// (entry values of a truncated window re-check): a read of such a value
// needs no write at all, so the unique-writer capping proof does not apply
// to it. Whole-cell checks start from 0 only, which `value != 0` covers.
//
// `optimistic` additionally caps observed pending writes of duplicate/zero
// values (removes) at the next completed overwrite's response. SAFETY: a
// pending op's real window is unbounded, so SHRINKING its deadline only
// restricts which linearizations the DFS may build — every acceptance under
// the cap concatenates into a valid uncapped linearization (completed ops
// keep their true deadlines; the capped pending op is merely placed earlier
// than it had to be, which is always allowed). The cap can therefore cause
// false REJECTIONS only — e.g. a remove that genuinely took effect after a
// later window's overwrite — and CheckImpl re-runs a rejected cell exactly
// (cap off) before reporting a violation. Without the cap, a single pending
// remove keeps its window open to the end of the cell and remove-heavy
// single-key histories collapse into one exponential window.
//
// Returns the retained ops sorted by invocation (ties by caller index).
std::vector<CellOp> Preprocess(const CellInput& in, const std::set<uint64_t>& ambient = {},
                               bool optimistic = false) {
  std::map<uint64_t, int> writes_of;           // value -> write count
  std::map<uint64_t, std::vector<sim::Time>> reads_of;  // value -> completed-read responses
  // Completed writes by invocation, with suffix-min of responses: the
  // optimistic cap for a pending write invoked at t is the earliest response
  // among completed writes invoked at/after t ("the next completed
  // overwrite").
  std::vector<std::pair<sim::Time, sim::Time>> completed_writes;  // (invoked, responded)
  for (const auto& [id, op] : in) {
    if (op.is_write) {
      ++writes_of[op.value];
      if (!op.pending) {
        completed_writes.push_back({op.invoked, op.responded});
      }
    } else if (!op.pending) {
      reads_of[op.value].push_back(op.responded);
    }
  }
  for (auto& [value, times] : reads_of) {
    std::sort(times.begin(), times.end());
  }
  std::sort(completed_writes.begin(), completed_writes.end());
  std::vector<sim::Time> suffix_min_resp(completed_writes.size() + 1, kNoDeadline);
  for (size_t i = completed_writes.size(); i-- > 0;) {
    suffix_min_resp[i] = std::min(suffix_min_resp[i + 1], completed_writes[i].second);
  }
  auto next_overwrite_resp = [&](sim::Time invoked) {
    const auto it = std::lower_bound(completed_writes.begin(), completed_writes.end(),
                                     std::pair<sim::Time, sim::Time>{invoked, 0});
    return suffix_min_resp[static_cast<size_t>(it - completed_writes.begin())];
  };

  std::vector<CellOp> out;
  out.reserve(in.size());
  for (const auto& [id, op] : in) {
    CellOp c;
    c.id = id;
    c.is_write = op.is_write;
    c.value = op.value;
    c.invoked = op.invoked;
    c.pending = op.pending;
    if (!op.pending) {
      c.deadline = op.responded;
      out.push_back(c);
      continue;
    }
    if (!op.is_write) {
      continue;  // Pending read: unconstrained.
    }
    const auto it = reads_of.find(op.value);
    sim::Time first_read = kNoDeadline;
    bool observed = false;
    if (it != reads_of.end()) {
      for (sim::Time t : it->second) {
        if (t >= op.invoked) {
          observed = true;
          first_read = t;  // Sorted: first hit is the earliest.
          break;
        }
      }
    }
    if (!observed) {
      continue;  // Never observed: including it could only burn state.
    }
    if (op.value != 0 && writes_of[op.value] == 1 && ambient.count(op.value) == 0) {
      c.deadline = first_read;  // Unique writer: provably exact cap.
    } else if (optimistic) {
      c.deadline = next_overwrite_resp(op.invoked);  // Acceptance-sound cap.
    } else {
      c.deadline = kNoDeadline;
    }
    out.push_back(c);
  }
  std::stable_sort(out.begin(), out.end(), [](const CellOp& a, const CellOp& b) {
    return a.invoked != b.invoked ? a.invoked < b.invoked : a.id < b.id;
  });
  return out;
}

// [first, first+count) range of a cell's retained ops forming one time
// window: no retained op's [invoked, deadline] spans a window boundary.
struct Window {
  size_t first = 0;
  size_t count = 0;
};

std::vector<Window> SplitWindows(const std::vector<CellOp>& ops) {
  std::vector<Window> out;
  if (ops.empty()) {
    return out;
  }
  size_t start = 0;
  sim::Time horizon = ops[0].deadline;
  for (size_t i = 1; i < ops.size(); ++i) {
    // `>` not `>=`: an op invoked exactly at another's response is still
    // concurrent under the enabling rule, so both must share a window.
    if (ops[i].invoked > horizon) {
      out.push_back({start, i - start});
      start = i;
      horizon = ops[i].deadline;
    } else {
      horizon = std::max(horizon, ops[i].deadline);
    }
  }
  out.push_back({start, ops.size() - start});
  return out;
}

// One 64-byte node of the persistent linearized-set bitset, sized to the
// FramePool's smallest class: a refcount plus 7 mask words (448 ops per
// chunk). Chunks are shared copy-on-write between the DFS cursor and every
// memoized state: sibling states differ in one bit, so they share every
// chunk except the one holding it — a memoized state costs O(1) new chunks,
// not an O(n/64)-word copy of the mask.
struct MaskChunk {
  uint32_t refs = 0;
  uint32_t pad = 0;
  uint64_t words[7] = {};
};
static_assert(sizeof(MaskChunk) == 64, "MaskChunk must fill one pool node");

constexpr size_t kChunkWords = 7;
constexpr size_t kChunkBits = kChunkWords * 64;

MaskChunk* NewChunk() {
  auto* c = static_cast<MaskChunk*>(sim::FramePool::Alloc(sizeof(MaskChunk)));
  c->refs = 1;
  std::memset(c->words, 0, sizeof(c->words));
  return c;
}

MaskChunk* CopyChunk(const MaskChunk* src) {
  auto* c = static_cast<MaskChunk*>(sim::FramePool::Alloc(sizeof(MaskChunk)));
  c->refs = 1;
  std::memcpy(c->words, src->words, sizeof(c->words));
  return c;
}

void UnrefChunk(MaskChunk* c) {
  if (--c->refs == 0) {
    sim::FramePool::Free(c, sizeof(MaskChunk));
  }
}

// Deterministic per-bit Zobrist keys: flipping bit i XORs SplitMix64(i)
// into the state hash, so the memo hash is maintained in O(1) per
// linearize/backtrack instead of rehashing the mask.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// A memoized (linearized set, register value) state. The chunk pointers are
// stored inline for windows up to 2 chunks (896 ops — the common case after
// quiescent-point splitting) and in a pool-allocated array beyond that; the
// representation is implied by the window's chunk count, so no tag is kept.
struct MemoEntry {
  uint64_t hash = 0;
  uint64_t value = 0;
  union {
    MaskChunk* inline_chunks[2];
    MaskChunk** chunks;
  };

  MemoEntry() : inline_chunks{nullptr, nullptr} {}

  MaskChunk* const* ptrs(size_t nchunks) const {
    return nchunks <= 2 ? inline_chunks : chunks;
  }
  MaskChunk** ptrs(size_t nchunks) {
    return nchunks <= 2 ? inline_chunks : chunks;
  }
};

struct MemoHash {
  size_t operator()(const MemoEntry& e) const { return static_cast<size_t>(e.hash); }
};

// Exact equality: chunk pointer identity first (the persistent sharing makes
// this the overwhelmingly common hit), content comparison as the fallback —
// COW round trips can produce distinct chunks with equal bits, and a missed
// dedup only costs time while a spurious one would be unsound.
struct MemoEq {
  size_t nchunks;
  bool operator()(const MemoEntry& a, const MemoEntry& b) const {
    if (a.hash != b.hash || a.value != b.value) {
      return false;
    }
    MaskChunk* const* pa = a.ptrs(nchunks);
    MaskChunk* const* pb = b.ptrs(nchunks);
    for (size_t c = 0; c < nchunks; ++c) {
      if (pa[c] != pb[c] &&
          std::memcmp(pa[c]->words, pb[c]->words, sizeof(pa[c]->words)) != 0) {
        return false;
      }
    }
    return true;
  }
};

// Wing&Gong just-in-time DFS over one window: linearize any op that no
// unlinearized op's response precedes, apply register semantics, memoize
// visited (linearized set, register value) states, backtrack on dead ends.
//
// `AddInit` explores every reachable state from one initial register value;
// `finals()` accumulates the values the register can hold once all
// completed ops are linearized — including states where leftover pending
// writes did or did not apply, so chaining windows through the value set
// stays exact. With `decide_only` it stops at the first complete state (the
// last window needs no finals). The memo persists across a window's inits:
// a state fully determines its remaining exploration no matter which init
// reached it, so states shared between inits are explored once. (Root
// states never collide with memoized interior states — an empty set occurs
// only at a root, and the inits are distinct.)
//
// Two structures keep 10^5-op histories tractable:
//
//  * Frontier in invocation order. Preprocess hands the window's ops sorted
//    by invocation; the unlinearized ones are kept in a doubly-linked list
//    in that order, and a min segment tree over their deadlines gives the
//    enabling horizon at the root. A candidate scan walks the list and
//    STOPS at the first op invoked past the horizon — everything later is
//    disabled too — so a DFS node costs O(candidates + log n), not O(n).
//    Linearize unlinks + lifts the op's tree leaf to +inf; backtrack relinks
//    (LIFO order makes the splice exact) and restores the leaf.
//  * Persistent memo. The cursor state is an array of refcounted MaskChunks
//    mutated copy-on-write; memo inserts share the cursor's chunks instead
//    of copying the mask, and the state hash rides Zobrist keys so hashing
//    is O(1) per step. See MaskChunk/MemoEntry above.
//
// The DFS itself is an explicit-stack loop — a 10^5-op window would
// overflow the call stack at recursion depth n.
class FrontierWindowDfs {
 public:
  FrontierWindowDfs(const CellOp* ops, size_t n, CheckStats* stats)
      : ops_(ops),
        n_(n),
        nchunks_((n + kChunkBits - 1) / kChunkBits),
        stats_(stats),
        visited_(16, MemoHash{}, MemoEq{nchunks_}) {
    completed_total_ = 0;
    zob_.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
      completed_total_ += ops_[i].pending ? 0 : 1;
      zob_[i] = SplitMix64(i + 0x5eed5eedull);
    }
    // Doubly-linked frontier over [0, n) in invocation order, sentinel n.
    next_.resize(n_ + 1);
    prev_.resize(n_ + 1);
    for (size_t i = 0; i <= n_; ++i) {
      next_[i] = i + 1 <= n_ ? i + 1 : 0;
      prev_[i] = i > 0 ? i - 1 : n_;
    }
    next_[n_] = n_ > 0 ? 0 : n_;
    // Min segment tree over deadlines; linearized leaves lift to +inf.
    segn_ = std::bit_ceil(std::max<size_t>(n_, 1));
    seg_.assign(2 * segn_, kNoDeadline);
    for (size_t i = 0; i < n_; ++i) {
      seg_[segn_ + i] = ops_[i].deadline;
    }
    for (size_t p = segn_ - 1; p >= 1; --p) {
      seg_[p] = std::min(seg_[2 * p], seg_[2 * p + 1]);
    }
    cur_.resize(nchunks_);
    for (auto& c : cur_) {
      c = NewChunk();
    }
  }

  FrontierWindowDfs(const FrontierWindowDfs&) = delete;
  FrontierWindowDfs& operator=(const FrontierWindowDfs&) = delete;

  ~FrontierWindowDfs() {
    for (const MemoEntry& e : visited_) {
      MaskChunk* const* p = e.ptrs(nchunks_);
      for (size_t c = 0; c < nchunks_; ++c) {
        UnrefChunk(p[c]);
      }
      if (nchunks_ > 2) {
        sim::FramePool::Free(e.chunks, nchunks_ * sizeof(MaskChunk*));
      }
    }
    for (MaskChunk* c : cur_) {
      UnrefChunk(c);
    }
  }

  // Returns true iff decide_only and a complete state was reached. The
  // frontier list, segment tree and cursor bitset are fully restored on
  // exit (every descent is undone), so inits reuse them directly.
  bool AddInit(uint64_t init, bool decide_only) {
    decide_only_ = decide_only;
    found_ = false;
    cur_value_ = init;
    if (EnterState(completed_total_)) {
      stack_.clear();
      stack_.push_back(Frame{next_[n_], kNone, init, completed_total_});
    }
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      size_t i = f.cursor;
      if (found_) {
        i = n_;  // Decided: unwind, restoring the shared structures.
      }
      const sim::Time horizon = seg_[1];
      while (i != n_) {
        const CellOp& op = ops_[i];
        if (op.invoked > horizon) {
          i = n_;  // Invocation-sorted: every later op is disabled too.
          break;
        }
        if (!op.is_write && op.value != cur_value_) {
          i = next_[i];  // A read must return the current value.
          continue;
        }
        break;
      }
      if (i == n_) {
        if (f.op_in != kNone) {
          Undo(f.op_in, f.value_before);
        }
        stack_.pop_back();
        continue;
      }
      f.cursor = next_[i];
      const uint64_t value_before = cur_value_;
      Apply(i);
      const size_t left = f.completed_left - (ops_[i].pending ? 0 : 1);
      if (EnterState(left)) {
        stack_.push_back(Frame{next_[n_], i, value_before, left});
      } else {
        Undo(i, value_before);  // Memoized (or decided at entry).
      }
    }
    return found_;
  }

  const std::set<uint64_t>& finals() const { return finals_; }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Frame {
    size_t cursor;          // Next frontier position to try (n_ = done).
    size_t op_in;           // Op linearized to enter this state (kNone: root).
    uint64_t value_before;  // Register value to restore on exit.
    size_t completed_left;
  };

  void SegSet(size_t i, sim::Time v) {
    size_t p = segn_ + i;
    seg_[p] = v;
    for (p >>= 1; p >= 1; p >>= 1) {
      seg_[p] = std::min(seg_[2 * p], seg_[2 * p + 1]);
    }
  }

  // Copy-on-write bit flips over the cursor chunks: exclusive ownership is
  // re-established (64-byte copy) only when a memoized state still shares
  // the chunk.
  void FlipBit(size_t i) {
    const size_t c = i / kChunkBits;
    MaskChunk*& chunk = cur_[c];
    if (chunk->refs > 1) {
      MaskChunk* copy = CopyChunk(chunk);
      --chunk->refs;
      chunk = copy;
    }
    chunk->words[(i % kChunkBits) >> 6] ^= 1ull << (i & 63);
    bit_hash_ ^= zob_[i];
  }

  void Apply(size_t i) {
    FlipBit(i);
    next_[prev_[i]] = next_[i];  // Unlink; i keeps its links for the relink.
    prev_[next_[i]] = prev_[i];
    SegSet(i, kNoDeadline);
    if (ops_[i].is_write) {
      cur_value_ = ops_[i].value;
    }
  }

  void Undo(size_t i, uint64_t value_before) {
    FlipBit(i);
    next_[prev_[i]] = i;  // LIFO discipline makes the splice exact.
    prev_[next_[i]] = i;
    SegSet(i, ops_[i].deadline);
    cur_value_ = value_before;
  }

  // Memo lookup/insert for the cursor state. Returns true iff the state is
  // new and its candidates should be explored. A new state with every
  // completed op linearized adds its value to the finals, and under
  // decide_only ends the search.
  bool EnterState(size_t completed_left) {
    MemoEntry probe;
    probe.hash = SplitMix64(bit_hash_ ^ (cur_value_ * 0x9E3779B97F4A7C15ull));
    probe.value = cur_value_;
    if (nchunks_ <= 2) {
      for (size_t c = 0; c < nchunks_; ++c) {
        probe.inline_chunks[c] = cur_[c];
      }
    } else {
      probe.chunks = cur_.data();
    }
    if (visited_.find(probe) != visited_.end()) {
      return false;
    }
    MemoEntry own = probe;
    if (nchunks_ > 2) {
      own.chunks =
          static_cast<MaskChunk**>(sim::FramePool::Alloc(nchunks_ * sizeof(MaskChunk*)));
      std::copy(cur_.begin(), cur_.end(), own.chunks);
    }
    for (MaskChunk* c : cur_) {
      ++c->refs;
    }
    visited_.insert(own);
    ++stats_->states;
    if (completed_left == 0) {
      finals_.insert(cur_value_);
      if (decide_only_) {
        found_ = true;
        return false;
      }
    }
    return true;
  }

  const CellOp* ops_;
  size_t n_;
  size_t nchunks_;
  size_t completed_total_ = 0;
  CheckStats* stats_;
  std::vector<uint64_t> zob_;
  std::vector<size_t> next_;
  std::vector<size_t> prev_;
  size_t segn_ = 1;
  std::vector<sim::Time> seg_;
  std::vector<MaskChunk*> cur_;  // Cursor bitset (COW handles).
  uint64_t cur_value_ = 0;
  uint64_t bit_hash_ = 0;  // XOR of zob_[i] over set bits.
  std::vector<Frame> stack_;
  std::unordered_set<MemoEntry, MemoHash, MemoEq, sim::PoolAlloc<MemoEntry>> visited_;
  std::set<uint64_t> finals_;
  bool decide_only_ = false;
  bool found_ = false;
};

struct CellFailure {
  Window window;
  std::vector<uint64_t> inits;  // Register values possible at window entry.
};

// Checks one cell's retained ops starting from any of `inits`, chaining the
// windows through the reachable-value sets.
std::optional<CellFailure> RunCell(const std::vector<CellOp>& ops,
                                   const std::vector<uint64_t>& init_values, CheckStats* stats) {
  const std::vector<Window> windows = SplitWindows(ops);
  std::vector<uint64_t> inits = init_values;
  for (size_t wi = 0; wi < windows.size(); ++wi) {
    const Window& w = windows[wi];
    ++stats->windows;
    stats->max_window_ops = std::max(stats->max_window_ops, static_cast<uint64_t>(w.count));
    const bool last = wi + 1 == windows.size();
    FrontierWindowDfs dfs(ops.data() + w.first, w.count, stats);
    for (uint64_t init : inits) {
      if (dfs.AddInit(init, last)) {
        return std::nullopt;  // Accepted; no later window needs the finals.
      }
    }
    if (dfs.finals().empty()) {
      return CellFailure{w, std::move(inits)};
    }
    inits.assign(dfs.finals().begin(), dfs.finals().end());
  }
  return std::nullopt;
}

// Truncates a failing window at virtual time `cut`: ops invoked later are
// dropped, completed ops still in flight are re-marked pending. The result
// is exactly the history an observer would have recorded at `cut`, so a
// rejected truncation is itself a valid (smaller) counterexample.
CellInput TruncateAt(const CellInput& in, sim::Time cut) {
  CellInput out;
  for (const auto& [id, op] : in) {
    if (op.invoked > cut) {
      continue;
    }
    HistoryOp t = op;
    if (!t.pending && t.responded > cut) {
      t.pending = true;
    }
    out.push_back({id, t});
  }
  return out;
}

// Shrinks a failing window to the earliest truncation that is already
// rejected and fills the report from it.
//
// Rejection is MONOTONE in the cut time, which makes this a binary search
// (O(log n) truncation re-checks — at 10^5-op windows a linear sweep would
// dwarf the check itself): suppose T(t') is linearizable for a cut t' > t,
// with witness L'. Every op of T(t) that completed by t has all its
// linearization points at or before t, while every op T(t') has beyond
// T(t) was invoked after t — so in L' those extra ops sit strictly after
// all of T(t)'s completed ops, and T(t)'s in-flight ops (pending in both
// views, hence optional and explanation-free) are the only ops interleaved
// with them. Deleting the extra ops from L' therefore leaves a valid
// witness for T(t): rejected cuts form a suffix of the sorted completions.
void MinimizeFailure(const CellInput& window_ops, const std::vector<uint64_t>& inits,
                     uint64_t key, CheckResult* res) {
  res->linearizable = false;
  res->key = key;

  std::vector<std::pair<sim::Time, size_t>> completions;  // (responded, id)
  for (const auto& [id, op] : window_ops) {
    if (!op.pending) {
      completions.push_back({op.responded, id});
    }
  }
  std::sort(completions.begin(), completions.end());

  CheckStats scratch;
  // The truncated window is a standalone history entered with `inits`
  // possibly already in the register — those values can explain reads
  // without any write, so they are ambient for the capping rule.
  const std::set<uint64_t> ambient(inits.begin(), inits.end());
  auto rejected = [&](size_t k) {
    ++res->stats.minimize_probes;
    const CellInput truncated = TruncateAt(window_ops, completions[k].first);
    const std::vector<CellOp> retained = Preprocess(truncated, ambient);
    return RunCell(retained, inits, &scratch).has_value();
  };

  // The cut at the last completion keeps every completed op and only drops
  // later-invoked pending ops, which no completed op can observe — so it
  // fails whenever the window fails. Guard anyway and degrade to reporting
  // the whole window if the invariant is ever violated.
  if (!completions.empty() && rejected(completions.size() - 1)) {
    size_t lo = 0;
    size_t hi = completions.size() - 1;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (rejected(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const auto& [cut, culprit_id] = completions[hi];
    res->culprit = culprit_id;
    res->window_end = cut;
    res->window_begin = cut;
    for (const auto& [id, op] : TruncateAt(window_ops, cut)) {
      res->window_begin = std::min(res->window_begin, op.invoked);
      res->window_ops.push_back(id);
    }
    return;
  }
  res->window_end = 0;
  res->window_begin = kNoDeadline;
  for (const auto& [id, op] : window_ops) {
    res->window_begin = std::min(res->window_begin, op.invoked);
    if (!op.pending) {
      res->window_end = std::max(res->window_end, op.responded);
    }
    res->window_ops.push_back(id);
  }
}

// Shared pipeline behind Check / CheckReport. Returns early without a
// report when `res` is null.
bool CheckImpl(const std::vector<HistoryOp>& ops, CheckResult* res) {
  std::map<uint64_t, CellInput> cells;  // Ordered: deterministic reports.
  for (size_t i = 0; i < ops.size(); ++i) {
    cells[ops[i].key].push_back({i, ops[i]});
  }
  CheckStats local_stats;
  CheckStats* stats = res != nullptr ? &res->stats : &local_stats;
  for (const auto& [key, input] : cells) {
    ++stats->cells;
    // Optimistic pass first: pending removes capped at the next completed
    // overwrite, so remove-heavy cells still split into windows. The cap is
    // acceptance-sound (see Preprocess) — only a REJECTION needs the exact,
    // uncapped re-run before it may be believed.
    const std::vector<CellOp> capped = Preprocess(input, {}, /*optimistic=*/true);
    if (!RunCell(capped, {0}, stats).has_value()) {
      continue;
    }
    ++stats->fallback_cells;
    const std::vector<CellOp> retained = Preprocess(input);
    std::optional<CellFailure> fail = RunCell(retained, {0}, stats);
    if (!fail.has_value()) {
      continue;
    }
    if (res != nullptr) {
      // Hand the minimizer the failing window's retained ops, as recorded.
      CellInput window_ops;
      for (size_t i = 0; i < fail->window.count; ++i) {
        const size_t id = retained[fail->window.first + i].id;
        window_ops.push_back({id, ops[id]});
      }
      MinimizeFailure(window_ops, fail->inits, key, res);
    }
    return false;
  }
  return true;
}

}  // namespace

std::string CheckResult::Describe(const std::vector<HistoryOp>& ops) const {
  if (linearizable) {
    return "linearizable (" + std::to_string(stats.cells) + " cells, " +
           std::to_string(stats.windows) + " windows, " + std::to_string(stats.states) +
           " states)";
  }
  int pending = 0;
  for (size_t id : window_ops) {
    pending += ops[id].pending ? 1 : 0;
  }
  std::string msg = "key " + std::to_string(key) + " NON-LINEARIZABLE: minimal window [" +
                    std::to_string(window_begin) + ".." + std::to_string(window_end) + "], " +
                    std::to_string(window_ops.size()) + " ops (" + std::to_string(pending) +
                    " pending)";
  for (size_t id : window_ops) {
    const HistoryOp& op = ops[id];
    msg += "\n    #" + std::to_string(id) + " " + (op.is_write ? "W(" : "R(") +
           std::to_string(op.value) + ") @" + std::to_string(op.invoked) +
           (op.pending ? " pending" : ".." + std::to_string(op.responded));
    if (id == culprit) {
      msg += "  <- completion breaks the window";
    }
  }
  return msg;
}

bool LinearizabilityChecker::Check(const std::vector<HistoryOp>& ops) {
  return CheckImpl(ops, nullptr);
}

CheckResult LinearizabilityChecker::CheckReport(const std::vector<HistoryOp>& ops) {
  CheckResult res;
  res.linearizable = CheckImpl(ops, &res);
  return res;
}

}  // namespace swarm::verify
