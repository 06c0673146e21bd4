#include "src/swarm/abd.h"

#include <algorithm>
#include <cstring>

#include "src/hash/xxhash.h"
#include "src/swarm/quorum.h"

namespace swarm {
namespace {

// DM-ABD's frame head: a hash of the value, seeded with the object's
// per-replica metadata address so that a recycled buffer serving a DIFFERENT
// object never validates (DM-ABD writes buffers before their timestamp
// exists, so the timestamp cannot be in the hash).
uint64_t AbdHash(uint64_t meta_addr, std::span<const uint8_t> value) {
  return hash::HashMetaAndValue(hash::Mix64(meta_addr, value.size()), value);
}

struct Phase1State : WordPhase {
  using WordPhase::WordPhase;

  std::array<uint32_t, kMaxReplicas> oop_idx{};
  sim::Bytes value;  // Images are built per replica (per-node hash).
};

// Phase 1 of an update at one replica: write the value out-of-place while
// reading the metadata word, in one roundtrip.
sim::Task<void> Phase1One(Worker* worker, LayoutPin layout, int r,
                          std::shared_ptr<Phase1State> ph) {
  const ReplicaLayout& rep = layout->replica(r);
  fabric::Qp& qp = worker->qp(rep.node);
  const auto idx = static_cast<size_t>(r);

  const uint32_t oop = worker->pool(rep.node).AllocIdx();
  ph->oop_idx[idx] = oop;

  std::array<uint8_t, 8> word_buf{};
  const sim::Bytes image = EncodeFrame(AbdHash(rep.meta_addr, ph->value), ph->value);
  auto wr = qp.Write(static_cast<uint64_t>(oop) * kOopGranuleBytes, image);
  auto rd = qp.Read(rep.meta_addr, word_buf);
  auto [w_res, r_res] =
      co_await fabric::PostBoth(worker->cpu(), worker->sim(), std::move(wr), std::move(rd));
  if (!w_res.ok() || !r_res.ok()) {
    if (w_res.status == fabric::Status::kNodeFailed || r_res.status == fabric::Status::kNodeFailed) {
      worker->MarkNodeFailed(rep.node);
    }
    if (w_res.status == fabric::Status::kMovedReplica ||
        r_res.status == fabric::Status::kMovedReplica) {
      ++ph->moved;
    }
    co_return;
  }
  uint64_t word;
  std::memcpy(&word, word_buf.data(), 8);
  ph->Record(r, Meta(word));
  ph->ok.Add(1);
}

// Reads replica r's metadata word. The repair coordinator passes
// `note_failures` = false: its known-failed set must not steer its own
// contact order.
sim::Task<void> ReadWordOne(Worker* worker, LayoutPin layout, int r,
                            std::shared_ptr<Phase1State> ph, bool note_failures) {
  const ReplicaLayout& rep = layout->replica(r);
  std::array<uint8_t, 8> buf{};
  fabric::OpResult res = co_await worker->qp(rep.node).Read(rep.meta_addr, buf);
  if (!res.ok()) {
    if (note_failures && res.status == fabric::Status::kNodeFailed) {
      worker->MarkNodeFailed(rep.node);
    }
    if (res.status == fabric::Status::kMovedReplica) {
      ++ph->moved;
    }
    co_return;
  }
  uint64_t word;
  std::memcpy(&word, buf.data(), 8);
  ph->Record(r, Meta(word));
  ph->ok.Add(1);
}

struct CasState : QuorumPhase {
  using QuorumPhase::QuorumPhase;

  int max_retries = 0;
  // ts-max over the register words the CAS loops found already installed
  // (never our own `desired`): lets Delete detect a preceding tombstone.
  Meta seen_max;
  // Retry-safety bookkeeping for NON-idempotent installs (an ABD update's
  // fresh-timestamp word): `completions` counts finished CasMaxOne tasks and
  // `maybe_applied` is set when any of them installed its word (definite) or
  // completed kNodeFailed (a dropped ack may hide an install). An attempt
  // may only be re-executed when every task completed and none could have
  // applied — otherwise a re-install could resurrect an already-observed,
  // since-overwritten value under a fresh timestamp.
  int completions = 0;
  bool maybe_applied = false;
};

// Installs `desired` at one replica with Algorithm 7's CAS-max loop.
sim::Task<void> CasMaxOne(Worker* worker, LayoutPin layout, int r, Meta expected, Meta desired,
                          std::shared_ptr<CasState> ph) {
  const ReplicaLayout& rep = layout->replica(r);
  // Only words the node itself returns reach seen_max: the caller's cached
  // `expected` may be stale and must never feed detection logic.
  const CasMaxResult res = co_await CasMax(worker->qp(rep.node), worker->pool(rep.node),
                                           rep.meta_addr, expected, desired, &ph->seen_max);
  ++ph->completions;
  if (res.installed || res.status == fabric::Status::kNodeFailed) {
    ph->maybe_applied = true;  // A dropped ack may hide an applied CAS.
  }
  if (!res.ok()) {
    if (res.status == fabric::Status::kMovedReplica) {
      ++ph->moved;  // Migration fence: the CAS provably did not apply.
    }
    co_return;
  }
  ph->max_retries = std::max(ph->max_retries, std::max(res.cas_count - 1, 0));
  ph->ok.Add(1);
}

// Write-back at one replica: out-of-place image + CAS expecting an empty
// word, pipelined; a word already there continues Algorithm 7 from it.
sim::Task<void> RepairOne(Worker* worker, LayoutPin layout, int r, Meta base,
                          std::shared_ptr<const sim::Bytes> value, std::shared_ptr<CasState> ph) {
  const ReplicaLayout& rep = layout->replica(r);
  fabric::Qp& qp = worker->qp(rep.node);
  OopPool& pool = worker->pool(rep.node);
  const uint32_t oop = pool.AllocIdx();
  const Meta desired = base.WithOop(oop);
  const sim::Bytes image = EncodeFrame(AbdHash(rep.meta_addr, *value), *value);
  fabric::OpResult res = co_await qp.WriteThenCas(static_cast<uint64_t>(oop) * kOopGranuleBytes,
                                                  image, rep.meta_addr, 0, desired.raw());
  if (res.ok() && res.old_value != 0) {
    const CasMaxResult m =
        co_await CasMax(qp, pool, rep.meta_addr, Meta(res.old_value), desired, &ph->seen_max);
    res.status = m.status;
  }
  if (!res.ok()) {
    if (res.status == fabric::Status::kMovedReplica) {
      ++ph->moved;
    }
    co_return;
  }
  ph->ok.Add(1);
}

// Ensures the tombstone `m` — observed in `ph` at possibly only a minority
// (a deleter that died mid-delete) — reaches a majority before the caller
// acts on the deletion. Without this, quorums that miss the tombstone keep
// resurrecting the overwritten (or a concurrently written) value. Returns
// false when no majority acked; `rtts` is bumped iff a repair wave ran.
sim::Task<bool> FenceTombstone(Worker* worker, const LayoutPin& layout, const QuorumEngine& q,
                               std::shared_ptr<Phase1State> ph, Meta m, int* rtts,
                               bool* moved = nullptr) {
  if (ph->Holders(m) >= q.majority()) {
    co_return true;
  }
  const Meta repair = Meta::Pack(m.counter(), m.tid(), m.verified(), 0);
  auto cs = sim::MakePooled<CasState>(worker->sim());
  ++*rtts;
  const bool fenced = co_await q.Broadcast(cs.get(), [&](int r) {
    return CasMaxOne(worker, layout, r, ph->words[static_cast<size_t>(r)], repair, cs);
  });
  if (moved != nullptr) {
    *moved = cs->moved > 0;
  }
  co_return fenced;
}

// Outcome of resolving a value word's bytes.
struct Chase {
  bool ok = false;
  bool moved = false;  // Some READ bounced off a migration fence.
  int reads = 0;       // READs issued, one roundtrip each.
  sim::Bytes value;
};

// Resolves the bytes of value word `m`: READs the out-of-place buffer of
// each replica whose answer carries m, in index order, until one validates
// against its AbdHash (a torn or recycled buffer does not).
sim::Task<Chase> ChaseValue(Worker* worker, const ObjectLayout* layout, const Phase1State* ph,
                            Meta m) {
  Chase out;
  for (int r = 0; r < layout->num_replicas && !out.ok; ++r) {
    if (!ph->Carries(r, m)) {
      continue;
    }
    const ReplicaLayout& rep = layout->replica(r);
    sim::Bytes buf(kFrameHeaderBytes + layout->max_value);
    fabric::OpResult res =
        co_await worker->qp(rep.node).Read(ph->words[static_cast<size_t>(r)].oop_addr(), buf);
    ++out.reads;
    if (!res.ok()) {
      out.moved = out.moved || res.status == fabric::Status::kMovedReplica;
      continue;
    }
    const std::optional<Frame> frame = DecodeFrame(buf, layout->max_value);
    if (frame && frame->head == AbdHash(rep.meta_addr, frame->value)) {
      out.ok = true;
      out.value.assign(frame->value.begin(), frame->value.end());
    }
  }
  co_return out;
}

}  // namespace

sim::Task<SgWriteResult> AbdObject::Write(std::span<const uint8_t> value) {
  // Only an attempt that failed on fenced verbs re-runs (RetryFenced), and
  // only when `retry_safe`: an ABD update installs a FRESH timestamp per
  // attempt, so re-running it is only sound when the failed attempt provably
  // installed nothing anywhere (all its CASes completed unapplied — fenced or
  // observed-superseded). Otherwise a re-install could resurrect a value a
  // reader already observed and a later write already overwrote; such
  // attempts stay kUnavailable, i.e. a possibly-applied pending write, which
  // is exactly what they are.
  bool retry_safe = false;
  co_return co_await worker_->RetryFenced(
      [&] { return WriteAttempt(value, &retry_safe); },
      [&](const SgWriteResult& r) { return r.status == SgStatus::kUnavailable && retry_safe; });
}

sim::Task<SgWriteResult> AbdObject::WriteAttempt(std::span<const uint8_t> value,
                                                 bool* retry_safe) {
  *retry_safe = false;
  SgWriteResult result;
  auto ph = sim::MakePooled<Phase1State>(worker_->sim());
  ph->value.assign(value.begin(), value.end());

  // Phase 1: out-of-place writes in parallel with the timestamp discovery
  // read (DM-ABD "hides latency by writing out-of-place data in parallel to
  // finding a fresh timestamp") — one doorbell per wave.
  const LayoutPin& layout = cache_.pin();
  const QuorumEngine q(worker_, *layout);
  const QuorumVerdict v =
      co_await q.Escalate(ph.get(), [&](int r) { return Phase1One(worker_, layout, r, ph); });
  result.rtts = v.waves;
  if (!v.reached) {
    // Phase 1 has no reachable effect (no metadata word points at the
    // out-of-place buffers yet): re-running the attempt is always safe —
    // including against a replacement layout after a migration fence.
    *retry_safe = true;
    if (ph->moved > 0) {
      result.status = SgStatus::kMoved;
    }
    co_return result;
  }

  const Meta m = ph->Max();
  if (m.deleted()) {
    // Same repair as the read path: the tombstone must reach a majority
    // before the caller unmaps/fails, or disjoint quorums resurrect values.
    bool fence_moved = false;
    const bool fenced =
        co_await FenceTombstone(worker_, layout, q, ph, m, &result.rtts, &fence_moved);
    // Re-installing the identical tombstone word is idempotent.
    *retry_safe = !fenced;
    if (fenced) {
      result.status = SgStatus::kDeleted;
    } else {
      // Our phase-1 buffers are unreachable and the fence CASes carry a
      // FOREIGN tombstone, so nothing of this op can have taken effect:
      // a migration-fence bounce is safe to re-execute after re-locating
      // (the replacement layout carries the harvested tombstone).
      result.status = fence_moved ? SgStatus::kMoved : SgStatus::kUnavailable;
    }
    co_return result;
  }

  // Phase 2: install (m.counter + 1, tid) at a majority — one doorbell, at
  // the replicas whose out-of-place buffer phase 1 populated.
  const Meta fresh = Meta::Pack(m.counter() + 1, worker_->tid(), /*verified=*/true, 0);
  auto cs = sim::MakePooled<CasState>(worker_->sim());
  const Contacts installs = ph->Answered();
  ++result.rtts;
  const bool got = co_await q.Wave(
      cs.get(), std::min(q.majority(), installs.size), installs, [&](int r) {
        const auto idx = static_cast<size_t>(r);
        return CasMaxOne(worker_, layout, r, ph->words[idx], fresh.WithOop(ph->oop_idx[idx]), cs);
      });
  result.rtts += cs->max_retries;
  // Phase-2 failure is re-executable only when every CAS task finished and
  // none could have installed the fresh-timestamp word (see CasState).
  *retry_safe = !got && cs->completions == installs.size && !cs->maybe_applied;
  if (got) {
    result.status = SgStatus::kOk;
  } else if (*retry_safe && cs->moved > 0) {
    // Every install bounced off a migration fence with zero effect: the
    // caller may re-locate and re-execute on the replacement layout.
    result.status = SgStatus::kMoved;
  } else {
    result.status = SgStatus::kUnavailable;
  }
  co_return result;
}

sim::Task<SgWriteResult> AbdObject::Delete() {
  // Fenced CASes never applied and observed nothing: re-run after the pull.
  return worker_->RetryFenced([this] { return DeleteAttempt(); }, [](const SgWriteResult& r) {
    return r.status == SgStatus::kMoved || r.status == SgStatus::kUnavailable;
  });
}

sim::Task<SgWriteResult> AbdObject::DeleteAttempt() {
  SgWriteResult result;
  const Meta tombstone = Meta::Tombstone(worker_->tid());
  auto cs = sim::MakePooled<CasState>(worker_->sim());
  const QuorumEngine q(worker_, *cache_.pin());
  // Delete needs every replica's actual pre-delete word (fed to seen_max
  // from CAS results only) to tell "we deleted the live object" from "this
  // object was already dead". A non-tombstone cache seed is safe: the
  // tombstone compares above it, so the loop always issues at least one CAS
  // and observes the node's word. A CACHED TOMBSTONE would short-circuit the
  // loop with no observation, so fall back to the empty seed there.
  const bool got = co_await q.Broadcast(cs.get(), [&](int r) {
    const Meta seed = cache_[r].deleted() ? Meta() : cache_[r];
    return CasMaxOne(worker_, cache_.pin(), r, seed, tombstone, cs);
  });
  result.rtts = 1 + cs->max_retries;
  if (got && cs->seen_max.deleted() &&
      cs->seen_max.same_write_key() != tombstone.same_write_key()) {
    // Another deleter's tombstone was already installed: this object was
    // dead before our op, so the caller's mapping may be stale (deleted and
    // re-inserted) and must be re-validated against the index. Quorum
    // intersection guarantees a fully deleted object shows the foreign
    // tombstone to at least one of our acked CASes.
    result.status = SgStatus::kDeleted;
  } else if (got) {
    result.status = SgStatus::kOk;
  } else if (cs->moved > 0 && cs->completions == q.contacts().size && !cs->maybe_applied) {
    // All tombstone CASes bounced off a migration fence unapplied: safe to
    // re-execute the delete against the replacement layout.
    result.status = SgStatus::kMoved;
  } else {
    result.status = SgStatus::kUnavailable;
  }
  co_return result;
}

sim::Task<bool> AbdObject::CopyReplicaTo(LayoutPin dst, int target) {
  // Phase 1: the surviving SOURCE quorum's metadata words. For crash repair
  // the caller's worker has the target's node repair-excluded, so the engine
  // never contacts it; for migration the vacated source slot is
  // region-fenced and the worker rides the fence-exempt repair channel.
  auto ph = sim::MakePooled<Phase1State>(worker_->sim());
  const QuorumEngine q(worker_, *cache_.pin());
  const bool got = co_await q.Broadcast(ph.get(), [&](int r) {
    return ReadWordOne(worker_, cache_.pin(), r, ph, /*note_failures=*/false);
  });
  if (!got) {
    co_return false;  // No surviving quorum right now.
  }
  const Meta m = ph->Max();
  if (m.empty()) {
    co_return true;  // Nothing ever committed: the wiped replica is correct.
  }
  auto cs = sim::MakePooled<CasState>(worker_->sim());
  if (m.deleted()) {
    // Tombstone stabilization: restore the EXACT tombstone word so deleted
    // objects cannot resurrect through a quorum that pairs the rejoined
    // replica with a stale survivor.
    co_await CasMaxOne(worker_, dst, target, Meta(), m, cs);
    co_return cs->ok.count() > 0;
  }

  // Phase 2: resolve m's bytes from a surviving holder.
  Chase chase = co_await ChaseValue(worker_, cache_.pin().get(), ph.get(), m);
  if (!chase.ok) {
    co_return false;  // Buffer torn or recycled under us: caller retries.
  }

  // Phase 3: install (word, fresh image) at the destination replica.
  const Meta base = Meta::Pack(m.counter(), m.tid(), m.verified(), 0);
  auto value = sim::MakePooled<sim::Bytes>(std::move(chase.value));
  co_await RepairOne(worker_, dst, target, base, value, cs);
  co_return cs->ok.count() > 0;
}

sim::Task<SgReadResult> AbdObject::Read() {
  SgReadResult result;
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++result.iterations;
    if (worker_->EpochRefreshNeeded()) {
      // A previous phase's verbs bounced off an epoch fence: re-validate and
      // re-arm before this attempt — the bounced completions are membership
      // staleness, not evidence about the register.
      result.rtts += co_await worker_->RefreshEpoch();
    }
    // Phase 1: read the metadata word at a majority.
    auto ph = sim::MakePooled<Phase1State>(worker_->sim());
    const LayoutPin& layout = cache_.pin();
    const QuorumEngine q(worker_, *layout);
    const QuorumVerdict v = co_await q.Escalate(ph.get(), [&](int r) {
      return ReadWordOne(worker_, layout, r, ph, /*note_failures=*/true);
    });
    result.rtts += v.waves;
    if (!v.reached) {
      if (ph->moved > 0) {
        // Migration fence: re-locate via the index (reads are always safe
        // to re-execute).
        result.status = SgStatus::kMoved;
        co_return result;
      }
      if (worker_->EpochRefreshNeeded() && attempt + 1 < kMaxAttempts) {
        continue;  // Fence-induced: the next attempt refreshes and retries.
      }
      co_return result;  // No live majority.
    }

    const Meta m = ph->Max();
    const int holders = ph->Holders(m);
    if (m.empty()) {
      result.status = SgStatus::kNotFound;
      co_return result;
    }
    if (m.deleted()) {
      // ABD read-repair applies to tombstones too (see FenceTombstone):
      // report "deleted" only once a majority carries it.
      bool fence_moved = false;
      if (!co_await FenceTombstone(worker_, layout, q, ph, m, &result.rtts, &fence_moved)) {
        if (fence_moved) {
          result.status = SgStatus::kMoved;  // Re-locate and re-read.
        }
        co_return result;  // Else: cannot stabilize the deletion, unavailable.
      }
      result.status = SgStatus::kDeleted;
      co_return result;
    }

    // Phase 2: chase the out-of-place pointer at a replica holding m.
    Chase chase = co_await ChaseValue(worker_, layout.get(), ph.get(), m);
    result.rtts += chase.reads;
    if (!chase.ok) {
      if (chase.moved) {
        result.status = SgStatus::kMoved;  // Fenced mid-read: re-locate.
        co_return result;
      }
      continue;  // Buffer torn or recycled: retry the whole read.
    }

    // Phase 3 (rare): write-back so a majority holds m before returning.
    if (holders < q.majority()) {
      auto value = sim::MakePooled<sim::Bytes>(chase.value);
      auto cs = sim::MakePooled<CasState>(worker_->sim());
      const Meta base = Meta::Pack(m.counter(), m.tid(), true, 0);
      ++result.rtts;
      const bool fixed = co_await q.Wave(
          cs.get(), q.majority() - holders,
          q.contacts().Where([&](int r) { return !ph->Holds(r, m); }),
          [&](int r) { return RepairOne(worker_, layout, r, base, value, cs); });
      if (!fixed) {
        if (cs->moved > 0) {
          result.status = SgStatus::kMoved;  // Fenced mid-write-back: re-locate.
        }
        co_return result;
      }
    }

    result.status = SgStatus::kOk;
    result.value = std::move(chase.value);
    result.fast_path = false;  // ABD gets always pay the pointer chase.
    co_return result;
  }
  co_return result;
}

}  // namespace swarm
