#include "src/swarm/quorum_max.h"

#include <algorithm>
#include <memory>

#include "src/swarm/quorum.h"

namespace swarm {
namespace {

bool IsNodeFailure(fabric::Status s) { return s == fabric::Status::kNodeFailed; }
bool IsMoved(fabric::Status s) { return s == fabric::Status::kMovedReplica; }

// --- WriteAndRead phase ---

struct WrPhase : QuorumPhase {
  using QuorumPhase::QuorumPhase;

  Meta w;
  sim::Bytes value;  // Stragglers keep using this after the caller returns.
  Meta m;                      // ts-max excluding `w` itself.
  std::array<Meta, kMaxReplicas> installed{};
  int max_retries = 0;
  // Effect accounting for the retry-on-replacement-layout gate: the write
  // provably had no effect only when every launched attempt completed with a
  // no-effect NACK (kStaleEpoch/kMovedReplica) — an install, a kNodeFailed
  // completion, or a still-in-flight straggler all mean "maybe applied".
  bool maybe_applied = false;
  int completions = 0;
};

sim::Task<void> WriteAndReadOne(Worker* worker, const ObjectLayout* layout,
                                std::shared_ptr<ObjectCache> cache, int r,
                                std::shared_ptr<WrPhase> ph) {
  InOutReplica rep(worker, layout, r);
  // Pipeline the In-n-Out max-write and the metadata read on the same QP:
  // both are in flight simultaneously, one roundtrip total (Algorithm 2
  // line 6: "in parallel {m = M.READ(), M.WRITE(w)}") — and posted under one
  // doorbell (which joins the surrounding quorum batch when there is one).
  auto wt = rep.WriteMax(ph->w, ph->value, &cache->slot[static_cast<size_t>(r)]);
  auto rd = rep.ReadNode(/*want_inplace=*/false);
  auto [mr, view] =
      co_await fabric::PostBoth(worker->cpu(), worker->sim(), std::move(wt), std::move(rd));
  ++ph->completions;
  if (mr.ok() || IsNodeFailure(mr.status)) {
    ph->maybe_applied = true;  // Installed, or applied-but-unacked.
  }
  if (IsMoved(mr.status) || IsMoved(view.status)) {
    ph->moved = true;
  }
  if (!mr.ok() || !view.ok()) {
    if (IsNodeFailure(mr.status) || IsNodeFailure(view.status)) {
      worker->MarkNodeFailed(rep.node());
    }
    co_return;
  }
  // The read ran after our install, so a foreign word the install replaced
  // in a shared slot counts too: a deleter that overwrote an earlier
  // deleter's tombstone must still see the object was already dead.
  Meta excl = view.MaxExcluding(ph->w);
  for (Meta seen : {mr.observed, mr.replaced}) {
    if (seen.same_write_key() != ph->w.same_write_key()) {
      excl = TsMax(excl, seen);
    }
  }
  ph->m = TsMax(ph->m, excl);
  ph->installed[static_cast<size_t>(r)] = mr.installed;
  ph->max_retries = std::max(ph->max_retries, mr.cas_retries);
  ph->ok.Add(1);
}

// --- ReadQuorum phase ---

struct RdPhase : WordPhase {
  using WordPhase::WordPhase;

  std::array<sim::PoolVec<Meta>, kMaxReplicas> slots;
  bool have_inplace = false;
  Meta inplace_word;
  sim::Bytes inplace_value;
};

sim::Task<void> ReadOne(Worker* worker, const ObjectLayout* layout,
                        std::shared_ptr<ObjectCache> cache, int r, std::shared_ptr<RdPhase> ph) {
  InOutReplica rep(worker, layout, r);
  NodeView view = co_await rep.ReadNode(/*want_inplace=*/true);
  if (!view.ok()) {
    if (IsNodeFailure(view.status)) {
      worker->MarkNodeFailed(rep.node());
    }
    if (IsMoved(view.status)) {
      ph->moved = true;
    }
    co_return;
  }
  const auto idx = static_cast<size_t>(r);
  ph->Record(r, view.max);
  ph->slots[idx] = std::move(view.slots);
  cache->slot[idx] = ph->slots[idx][static_cast<size_t>(SlotOf(worker->tid(), layout->meta_slots))];
  if (view.inplace_valid && !ph->have_inplace) {
    ph->have_inplace = true;
    ph->inplace_word = view.max;
    ph->inplace_value = std::move(view.value);
  }
  ph->ok.Add(1);
}

// --- Repair (write-back) phase ---

struct RepairPhase : QuorumPhase {
  using QuorumPhase::QuorumPhase;

  Meta base;  // (counter, tid, flag) of the max, oop stripped.
  sim::Bytes value;
};

sim::Task<void> RepairOne(Worker* worker, const ObjectLayout* layout, int r, Meta seed,
                          std::shared_ptr<RepairPhase> ph) {
  InOutReplica rep(worker, layout, r);
  NodeMaxResult res = co_await rep.WriteMaxFor(ph->base, ph->value, seed);
  if (res.ok()) {
    ph->ok.Add(1);
  } else if (IsMoved(res.status)) {
    ph->moved = true;
  }
}

// --- Verified write phase ---

struct VwPhase : QuorumPhase {
  using QuorumPhase::QuorumPhase;

  Meta w;
  sim::Bytes value;
  int max_retries = 0;
};

sim::Task<void> WriteVerifiedOne(Worker* worker, const ObjectLayout* layout,
                                 std::shared_ptr<ObjectCache> cache, int r,
                                 std::shared_ptr<VwPhase> ph) {
  InOutReplica rep(worker, layout, r);
  const auto idx = static_cast<size_t>(r);
  NodeMaxResult res = co_await rep.WriteVerifiedNode(ph->w, ph->value, cache->slot[idx]);
  if (!res.ok()) {
    if (IsNodeFailure(res.status)) {
      worker->MarkNodeFailed(rep.node());
    }
    if (IsMoved(res.status)) {
      ph->moved = true;
    }
    co_return;
  }
  cache->slot[idx] = TsMax(res.observed, res.installed);
  ph->max_retries = std::max(ph->max_retries, res.cas_retries);
  ph->ok.Add(1);
}

sim::Task<void> PromoteOne(Worker* worker, const ObjectLayout* layout, int r, Meta word,
                           std::shared_ptr<sim::Bytes> value,
                           std::shared_ptr<ObjectCache> cache) {
  InOutReplica rep(worker, layout, r);
  fabric::Status st = co_await rep.PromoteVerified(word, *value);
  if (st == fabric::Status::kOk && cache != nullptr) {
    Meta& slot = cache->slot[static_cast<size_t>(r)];
    slot = TsMax(slot, word.WithVerified());
  }
}

}  // namespace

sim::Task<WriteReadOutcome> QuorumMax::WriteAndRead(Meta w, std::span<const uint8_t> value) {
  WriteReadOutcome out = co_await WriteAndReadOnce(w, value);
  // Membership-refresh-then-retry: a quorum that failed because verbs
  // bounced off an epoch fence proves nothing about the register — re-run
  // the attempt under the re-validated epoch (the max-write is idempotent).
  for (int retry = 0; retry < 2 && !out.ok && worker_->EpochRefreshNeeded(); ++retry) {
    co_await worker_->RefreshEpoch();
    const int prior_rtts = out.rtts;
    const bool prior_effect = out.effect_possible;
    out = co_await WriteAndReadOnce(w, value);
    out.rtts += prior_rtts;
    out.effect_possible |= prior_effect;  // Effects accumulate across attempts.
  }
  co_return out;
}

sim::Task<WriteReadOutcome> QuorumMax::WriteAndReadOnce(Meta w, std::span<const uint8_t> value) {
  auto ph = sim::MakePooled<WrPhase>(worker_->sim());
  ph->w = w;
  ph->value.assign(value.begin(), value.end());

  // Each wave is one doorbell: all replicas' pipelined [WRITE→CAS] + READ
  // pairs ride a single amortized submit_cost (§7.2).
  const QuorumEngine q(worker_, layout_);
  const QuorumVerdict v = co_await q.Escalate(
      ph.get(), [&](int r) { return WriteAndReadOne(worker_, layout_, cache_, r, ph); });

  WriteReadOutcome out;
  out.ok = v.reached;
  out.m = ph->m;
  out.installed = ph->installed;
  out.moved = ph->moved;
  out.effect_possible = ph->maybe_applied || ph->completions < v.launched;
  out.rtts = v.waves + ph->max_retries;
  co_return out;
}

sim::Task<ReadOutcome> QuorumMax::ReadQuorum(bool strong) {
  ReadOutcome out = co_await ReadQuorumOnce(strong);
  for (int retry = 0; retry < 2 && !out.ok && worker_->EpochRefreshNeeded(); ++retry) {
    co_await worker_->RefreshEpoch();
    const int prior_rtts = out.rtts;
    out = co_await ReadQuorumOnce(strong);
    out.rtts += prior_rtts;
  }
  co_return out;
}

sim::Task<ReadOutcome> QuorumMax::ReadQuorumOnce(bool strong) {
  auto ph = sim::MakePooled<RdPhase>(worker_->sim());
  const QuorumEngine q(worker_, layout_);
  const QuorumVerdict v = co_await q.Escalate(
      ph.get(), [&](int r) { return ReadOne(worker_, layout_, cache_, r, ph); });
  ReadOutcome out;
  out.rtts = v.waves;
  out.moved = ph->moved;
  if (!v.reached) {
    co_return out;  // No live majority.
  }
  out.ok = true;
  out.node_ok = ph->oks;
  out.node_words = ph->words;
  out.m = ph->Max();

  // Resolve the bytes of `m` (Algorithm 6): in-place if the designated
  // replica's hash validated against the global max, else chase a pointer.
  if (out.m.empty() || out.m.deleted()) {
    out.value_ok = true;
  } else if (ph->have_inplace && ph->inplace_word.ts_order_key() == out.m.ts_order_key()) {
    out.value_ok = true;
    out.used_inplace = true;
    out.value = std::move(ph->inplace_value);
  } else if (strong) {
    for (int r = 0; r < layout_->num_replicas && !out.value_ok; ++r) {
      if (!ph->Carries(r, out.m)) {
        continue;
      }
      InOutReplica rep(worker_, layout_, r);
      auto bytes = co_await rep.ReadOop(ph->words[static_cast<size_t>(r)]);
      ++out.rtts;
      if (bytes.has_value()) {
        out.value_ok = true;
        out.value = std::move(*bytes);
      }
    }
  }

  if (strong && !out.m.empty()) {
    // inner_write (Algorithm 8): make sure a majority carries the max before
    // returning it. Skipped when the quorum already agrees (Appendix A.2's
    // 0-RTT case, the common path).
    const int holders = ph->Holders(out.m);
    if (holders < q.majority()) {
      if (!out.value_ok) {
        out.ok = false;  // Cannot repair without bytes; caller retries.
        co_return out;
      }
      auto rp = sim::MakePooled<RepairPhase>(worker_->sim());
      rp->base = Meta::Pack(out.m.counter(), out.m.tid(), out.m.verified(), 0);
      rp->value = out.value;
      const Meta m = out.m;
      ++out.rtts;
      const bool fixed = co_await q.Wave(
          rp.get(), q.majority() - holders,
          q.contacts().Where([&](int r) { return !ph->Holds(r, m); }), [&](int r) {
            const auto idx = static_cast<size_t>(r);
            Meta seed;
            if (ph->oks[idx] && !ph->slots[idx].empty()) {
              seed = ph->slots[idx][static_cast<size_t>(SlotOf(m.tid(), layout_->meta_slots))];
            }
            return RepairOne(worker_, layout_, r, seed, rp);
          });
      if (!fixed) {
        out.ok = false;
        out.moved = out.moved || rp->moved;
        co_return out;
      }
    }
  }
  co_return out;
}

sim::Task<bool> QuorumMax::WriteVerified(Meta w, std::span<const uint8_t> value, int* rtts) {
  int total_rtts = 0;
  bool got = co_await WriteVerifiedOnce(w, value, &total_rtts);
  for (int retry = 0; retry < 2 && !got && worker_->EpochRefreshNeeded(); ++retry) {
    co_await worker_->RefreshEpoch();
    int attempt_rtts = 0;
    got = co_await WriteVerifiedOnce(w, value, &attempt_rtts);
    total_rtts += attempt_rtts;
  }
  if (rtts != nullptr) {
    *rtts = total_rtts;
  }
  co_return got;
}

sim::Task<bool> QuorumMax::WriteVerifiedOnce(Meta w, std::span<const uint8_t> value, int* rtts) {
  auto ph = sim::MakePooled<VwPhase>(worker_->sim());
  ph->w = w.WithVerified();
  ph->value.assign(value.begin(), value.end());

  const QuorumEngine q(worker_, layout_);
  const QuorumVerdict v = co_await q.Escalate(
      ph.get(), [&](int r) { return WriteVerifiedOne(worker_, layout_, cache_, r, ph); });
  if (rtts != nullptr) {
    *rtts = v.waves + ph->max_retries;
  }
  co_return v.reached;
}

sim::Task<void> QuorumMax::Promote(Worker* worker, const ObjectLayout* layout,
                                   std::array<Meta, kMaxReplicas> installed,
                                   sim::Bytes value,
                                   std::shared_ptr<ObjectCache> cache) {
  auto shared_value = sim::MakePooled<sim::Bytes>(std::move(value));
  fabric::CpuBatch batch(worker->cpu());  // All promotions, one doorbell.
  for (int r = 0; r < layout->num_replicas; ++r) {
    const Meta word = installed[static_cast<size_t>(r)];
    if (!word.empty()) {
      sim::Spawn(PromoteOne(worker, layout, r, word, shared_value, cache));
    }
  }
  co_return;
}

}  // namespace swarm
