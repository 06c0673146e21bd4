// In-flight op tracking for KV sessions.
//
// TrackedKvSession decorates any KvSession with a sequence-numbered in-flight
// window, so a RecyclerParticipant's epoch ack can genuinely DRAIN the
// client's outstanding operations (§4.5: "before recycling, a client asks all
// readers to stop accessing the to-be-recycled buffers; readers acknowledge")
// instead of modeling the drain as a fixed delay. Works for SWARM-KV and all
// baselines without touching their implementations. A KvSession runs one
// operation at a time (src/kv/kv_types.h), so the window is one sequence:
// tracking an op allocates nothing.

#ifndef SWARM_SRC_KV_TRACKED_SESSION_H_
#define SWARM_SRC_KV_TRACKED_SESSION_H_

#include <cstdint>
#include <span>

#include "src/kv/kv_types.h"

namespace swarm::kv {

class TrackedKvSession : public KvSession {
 public:
  explicit TrackedKvSession(KvSession* inner) : inner_(inner) {}

  // The drain pair for RecyclerParticipant::CoupleDrain. `next_seq` is the
  // barrier: every op started before a drain captured it has a smaller
  // sequence. `oldest_inflight` equals the barrier once all of those have
  // responded (ops started after never hold the drain).
  uint64_t next_seq() const { return next_seq_; }
  uint64_t oldest_inflight() const { return inflight_; }

  sim::Task<KvResult> Get(uint64_t key) override {
    Begin();
    KvResult r = co_await inner_->Get(key);
    End();
    co_return r;
  }
  sim::Task<KvResult> Update(uint64_t key, std::span<const uint8_t> value) override {
    Begin();
    KvResult r = co_await inner_->Update(key, value);
    End();
    co_return r;
  }
  sim::Task<KvResult> Insert(uint64_t key, std::span<const uint8_t> value) override {
    Begin();
    KvResult r = co_await inner_->Insert(key, value);
    End();
    co_return r;
  }
  sim::Task<KvResult> Remove(uint64_t key) override {
    Begin();
    KvResult r = co_await inner_->Remove(key);
    End();
    co_return r;
  }

 private:
  void Begin() { inflight_ = next_seq_++; }
  void End() { inflight_ = next_seq_; }

  KvSession* inner_;
  uint64_t next_seq_ = 0;
  // The op in flight's sequence; next_seq_ while the session is idle.
  uint64_t inflight_ = 0;
};

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_TRACKED_SESSION_H_
