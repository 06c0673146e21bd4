// Per-worker client context.
//
// A Worker models one outstanding application operation stream: it owns a
// queue pair and an out-of-place buffer pool per memory node, a timestamp
// clock, and shares a ClientCpu (submission serialization, §7.2) and a
// known-failed node set with the other workers of the same client process.
//
// The per-node views it reads (known-failed, repair-excluded) span the
// fabric's node-id space, Fabric::max_nodes(), so a node hot-added after the
// worker was built is indexed like any other. A known-failed view built at
// the current node count is widened once, when the worker takes it.

#ifndef SWARM_SRC_SWARM_WORKER_H_
#define SWARM_SRC_SWARM_WORKER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/swarm/clock.h"
#include "src/swarm/layout.h"

namespace swarm {

struct ProtocolConfig {
  int replicas = 3;
  int meta_slots = 1;          // K metadata buffers per object (§4.4).
  int max_writers = 8;         // W timestamp locks per object.
  uint32_t max_value = 64;     // value-buffer capacity, bytes.
  int oop_pool_slots = 512;    // pre-allocated out-of-place buffers per worker per node.
  int inplace_copies = 1;      // replicas holding in-place data (§6 uses 1).

  // How long an optimistic-majority phase waits for its preferred replicas
  // before broadening to all replicas (§6; src/swarm/quorum.h).
  sim::Time escalation_timeout = 3000;
  // Upper bound on waiting for a lock/write quorum; fires only when a
  // majority of replicas is unreachable (safety is preserved either way).
  sim::Time quorum_timeout = 200 * sim::kMicrosecond;
};

class Worker {
 public:
  Worker(fabric::Fabric* fabric, uint32_t tid, fabric::ClientCpu* cpu, GuessClock* clock,
         const ProtocolConfig& config, std::shared_ptr<std::vector<bool>> known_failed)
      : fabric_(fabric), tid_(tid), cpu_(cpu), clock_(clock), config_(config),
        known_failed_(std::move(known_failed)) {
    known_failed_->resize(static_cast<size_t>(fabric->max_nodes()), false);
    if (cpu != nullptr) {
      cpu->Configure(&fabric->stats(), fabric->config().doorbell_batching,
                     fabric->config().max_wqe_per_doorbell);
    }
    for (int n = 0; n < fabric->num_nodes(); ++n) {
      EnsureNode(n);
    }
  }

  fabric::Fabric* fabric() { return fabric_; }
  sim::Simulator* sim() { return fabric_->sim(); }
  uint32_t tid() const { return tid_; }
  GuessClock& clock() { return *clock_; }
  const ProtocolConfig& config() const { return config_; }

  fabric::ClientCpu* cpu() { return cpu_; }
  // Queue pairs and buffer pools, unlike the per-node views, grow lazily: a
  // pool allocates on its node, which does not exist before its admission. A
  // worker created before a membership admission connects to the hot-added
  // node on first use (the QP setup that in a real cluster the admission
  // handshake performs). Deques, not vectors — protocol coroutines hold
  // Qp&/OopPool& across suspension points, so growth must never move
  // existing elements.
  fabric::Qp& qp(int node) {
    EnsureNode(node);
    return qps_[static_cast<size_t>(node)];
  }
  OopPool& pool(int node) {
    EnsureNode(node);
    return pools_[static_cast<size_t>(node)];
  }

  // This worker's In-n-Out slot-cache words for one object (Algorithm 7's
  // cached previous value, 8 B per replica). Slot caches are per-WRITER
  // state: each writer CASes its own metadata buffer (§4.4), so only its own
  // history predicts the slot's content.
  //
  // The words live in the layout's block (ObjectLayout::SlotWords), keyed
  // by this worker's tid: num_replicas words, zeroed on the writer's first
  // call and freed with the layout. The first writer to touch a layout uses
  // the block's inline words (24 B for 3 replicas, no allocation); each
  // later writer gets a chained block (a 48 B chunk for 3 replicas). This
  // is the only way to build a handle, and every handle holds a share in the
  // layout: a protocol object reads its layout from the handle, and each of
  // its coroutines that can outlive the op takes a copy, so the words and
  // the layout's records stay alive for as long as any of them can touch
  // them.
  SlotCache SlotCacheFor(const LayoutPin& layout) {
    return SlotCache(layout, layout->SlotWords(tid_));
  }

  bool NodeKnownFailed(int node) const { return (*known_failed_)[static_cast<size_t>(node)]; }
  void MarkNodeFailed(int node) { (*known_failed_)[static_cast<size_t>(node)] = true; }

  // Replaces the known-failed view. A view no membership subscription feeds
  // models a client process that never hears about node failures.
  void set_known_failed(std::shared_ptr<std::vector<bool>> known_failed) {
    known_failed_ = std::move(known_failed);
    known_failed_->resize(static_cast<size_t>(fabric_->max_nodes()), false);
  }

  // Repair exclusion (MembershipService::repairing()): a node flagged here is
  // dropped from quorum selection entirely — unlike known-failed nodes, which
  // merely sort last in the quorum engine's order (src/swarm/quorum.h), a
  // repairing node must not be contacted and must not count toward any
  // majority, because its replica slots are mid-rebuild and reads from it
  // would miss committed writes. The view spans the node-id space.
  void set_repair_excluded(std::shared_ptr<const std::vector<bool>> excluded) {
    repair_excluded_ = std::move(excluded);
  }
  bool NodeQuorumExcluded(int node) const {
    return repair_excluded_ != nullptr && (*repair_excluded_)[static_cast<size_t>(node)];
  }

  // Marks this worker as the repair coordinator: its verbs pass the repair
  // fence of a node mid-rejoin (everyone else keeps seeing kNodeFailed).
  void MarkRepairChannel() {
    repair_channel_ = true;
    for (auto& qp : qps_) {
      qp.set_repair_channel(true);
    }
  }

  // Tags every QP of this worker for per-QP fault targeting (chaos's
  // kQpDropBurst class). Scenarios tag client i's workers with tag i.
  void set_chaos_tag(int tag) {
    chaos_tag_ = tag;
    for (auto& qp : qps_) {
      qp.set_chaos_tag(tag);
    }
  }

  // --- Membership-epoch fencing (§5.4 per-client QP revocation) ---
  //
  // Wires the client process's cached membership epoch: every verb this
  // worker posts is stamped with it, and memory nodes reject stamps older
  // than the cluster's last repair-relevant transition (kStaleEpoch). The
  // epoch is shared among a client's workers like known_failed; the
  // membership service pushes advances into it (SubscribeEpoch) — or does
  // not, for the chaos suites' client that never learns about a rejoin.
  void set_epoch(std::shared_ptr<fabric::ClientEpoch> epoch) {
    epoch_ = std::move(epoch);
    for (auto& qp : qps_) {
      qp.set_epoch(&epoch_->value);
    }
  }
  const std::shared_ptr<fabric::ClientEpoch>& epoch() const { return epoch_; }

  // Wires the re-validation pull (MembershipService::ValidateEpoch) used by
  // RefreshEpoch.
  void set_epoch_source(std::function<uint64_t()> validate) {
    epoch_validate_ = std::move(validate);
  }

  // True when some verb of this worker bounced off an epoch fence: its QP is
  // revoked and every further verb on it fails fast. Protocol retry loops
  // check this after a failed quorum phase — a kStaleEpoch completion is a
  // membership-staleness signal, NEVER evidence about object state — and
  // call RefreshEpoch() before retrying (RetryFenced does both).
  bool EpochRefreshNeeded() const {
    for (const auto& qp : qps_) {
      if (qp.revoked()) {
        return true;
      }
    }
    return false;
  }

  // The re-validation pulls this worker has made.
  uint64_t epoch_pulls() const { return epoch_pulls_; }

  // Re-validates the cached epoch with the membership service (the pull
  // path, which works even for a client whose push notifications never
  // arrive) and re-arms every revoked QP. Verbs posted afterwards carry the
  // fresh stamp and pass the fences again. Returns the roundtrips it cost,
  // which the caller bills to its op: 1 for the pull, 0 for a worker with no
  // membership source.
  sim::Task<int> RefreshEpoch() {
    int rtts = 0;
    if (epoch_ != nullptr && epoch_validate_) {
      co_await sim()->Delay(kEpochPullDelay);
      epoch_->value = std::max(epoch_->value, epoch_validate_());
      ++epoch_pulls_;
      rtts = 1;
    }
    for (auto& qp : qps_) {
      qp.Rearm();
    }
    co_return rtts;
  }

  // §5.4 for one protocol attempt: a verb that bounced off an epoch fence
  // proves nothing, so while `failed(result)` holds and a QP is revoked,
  // RetryFenced refreshes the epoch and runs `attempt` again, at most twice.
  // The rerun's result carries the earlier attempts' roundtrips and the
  // pulls', and a result that reports whether its write may have taken
  // effect keeps an earlier attempt's "maybe" (effects accumulate).
  template <typename Attempt, typename Failed>
  auto RetryFenced(Attempt attempt, Failed failed) -> decltype(attempt()) {
    auto result = co_await attempt();
    for (int rerun = 0; rerun < 2 && failed(result) && EpochRefreshNeeded(); ++rerun) {
      const int pull_rtts = co_await RefreshEpoch();
      auto next = co_await attempt();
      next.rtts += result.rtts + pull_rtts;
      if constexpr (requires { next.effect_possible; }) {
        next.effect_possible |= result.effect_possible;
      }
      result = std::move(next);
    }
    co_return result;
  }

 private:
  // The epoch pull's network roundtrip.
  static constexpr sim::Time kEpochPullDelay = 2 * 680;

  // Creates the QP + buffer pool for `node` if missing, applying every
  // sticky per-worker setting so a lazily-connected node is indistinguishable
  // from one wired at construction.
  void EnsureNode(int node) {
    while (static_cast<int>(qps_.size()) <= node) {
      const int n = static_cast<int>(qps_.size());
      auto& qp = qps_.emplace_back(fabric_, n, cpu_);
      pools_.emplace_back(&fabric_->node(n), fabric_->sim(), config_.max_value,
                          config_.oop_pool_slots);
      if (repair_channel_) {
        qp.set_repair_channel(true);
      }
      if (chaos_tag_ >= 0) {
        qp.set_chaos_tag(chaos_tag_);
      }
      if (epoch_ != nullptr) {
        qp.set_epoch(&epoch_->value);
      }
    }
  }

  fabric::Fabric* fabric_;
  uint32_t tid_;
  fabric::ClientCpu* cpu_;
  GuessClock* clock_;
  ProtocolConfig config_;
  std::shared_ptr<std::vector<bool>> known_failed_;
  std::shared_ptr<const std::vector<bool>> repair_excluded_;
  std::shared_ptr<fabric::ClientEpoch> epoch_;
  std::function<uint64_t()> epoch_validate_;
  uint64_t epoch_pulls_ = 0;
  bool repair_channel_ = false;
  int chaos_tag_ = -1;
  // Deques: growth must not invalidate references held across co_awaits.
  std::deque<fabric::Qp> qps_;
  std::deque<OopPool> pools_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_WORKER_H_
