// Timestamp and metadata-word encodings shared by Safe-Guess and In-n-Out.
//
// In-n-Out packs a Safe-Guess timestamp together with an out-of-place buffer
// pointer into a single 8-byte word (Fig. 3 of the paper) so that the max
// register's conditional update is one 64-bit CAS. The Safe-Guess
// GUESSED/VERIFIED flag is encoded next to the timestamp such that, for the
// same (counter, tid), the VERIFIED word compares greater than the GUESSED
// one — the ordering the max register needs (§3.2).
//
// Bit layout of a metadata word, most significant first:
//
//   [ counter : 31 ][ tid : 8 ][ verified : 1 ][ oop : 24 ]
//
//  * counter — clock-derived logical timestamp (256 ns units of the writer's
//    loosely synchronized clock; 31 bits span ~9 minutes of virtual time).
//    Counter 0 means "empty / never written"; counter 2^31-1 is the delete
//    tombstone (§5.3.2: a delete writes the max timestamp so it can never be
//    overwritten).
//  * tid     — writer thread id, breaking ties between concurrent writers.
//    256 tids cover Fig. 8's largest deployment (64 clients x 4 workers).
//  * verified— Safe-Guess flag: 1 = VERIFIED, 0 = GUESSED.
//  * oop     — out-of-place buffer pointer in units of kOopGranuleBytes,
//    node-local (the same logical write installs different oop values on
//    different replicas).
//
// Ordering of *writes* uses the word with the oop bits masked out
// (ts_order_key); two words denote the same write iff they agree on
// (counter, tid) (same_write_key).

#ifndef SWARM_SRC_SWARM_TIMESTAMP_H_
#define SWARM_SRC_SWARM_TIMESTAMP_H_

#include <cassert>
#include <cstdint>

namespace swarm {

inline constexpr int kOopBits = 24;
inline constexpr int kVerifiedBits = 1;
inline constexpr int kTidBits = 8;
inline constexpr int kCounterBits = 31;

static_assert(kCounterBits + kTidBits + kVerifiedBits + kOopBits == 64);

inline constexpr uint64_t kOopMask = (1ull << kOopBits) - 1;
inline constexpr uint64_t kVerifiedBit = 1ull << kOopBits;
inline constexpr int kTidShift = kOopBits + kVerifiedBits;
inline constexpr int kCounterShift = kTidShift + kTidBits;

inline constexpr uint32_t kMaxTid = (1u << kTidBits) - 1;
inline constexpr uint32_t kDeleteCounter = (1u << kCounterBits) - 1;

// Out-of-place pointers address node memory in 64-byte granules, so 24 bits
// reach 1 GiB per node.
inline constexpr uint64_t kOopGranuleBytes = 64;

class Meta {
 public:
  constexpr Meta() : raw_(0) {}
  constexpr explicit Meta(uint64_t raw) : raw_(raw) {}

  // A tid past kMaxTid would alias a lower writer's tid, so it is a
  // deployment error (deploy::SizeProtocol rejects such deployments).
  static constexpr Meta Pack(uint32_t counter, uint32_t tid, bool verified, uint32_t oop) {
    assert(tid <= kMaxTid);
    return Meta((static_cast<uint64_t>(counter) << kCounterShift) |
                (static_cast<uint64_t>(tid) << kTidShift) |
                (verified ? kVerifiedBit : 0) | (oop & kOopMask));
  }

  // The tombstone written by deletes: maximal, verified, no payload.
  static constexpr Meta Tombstone(uint32_t tid) { return Pack(kDeleteCounter, tid, true, 0); }

  constexpr uint64_t raw() const { return raw_; }
  constexpr uint32_t counter() const { return static_cast<uint32_t>(raw_ >> kCounterShift); }
  constexpr uint32_t tid() const {
    return static_cast<uint32_t>(raw_ >> kTidShift) & kMaxTid;
  }
  constexpr bool verified() const { return (raw_ & kVerifiedBit) != 0; }
  constexpr uint32_t oop() const { return static_cast<uint32_t>(raw_ & kOopMask); }
  constexpr uint64_t oop_addr() const { return static_cast<uint64_t>(oop()) * kOopGranuleBytes; }

  constexpr bool empty() const { return counter() == 0; }
  constexpr bool deleted() const { return counter() == kDeleteCounter; }

  // Total order on writes: (counter, tid, verified), oop ignored.
  constexpr uint64_t ts_order_key() const { return raw_ & ~kOopMask; }
  // Identity of a write: (counter, tid) — flag and oop ignored.
  constexpr uint64_t same_write_key() const { return raw_ & ~(kOopMask | kVerifiedBit); }

  constexpr Meta WithVerified() const { return Meta(raw_ | kVerifiedBit); }
  constexpr Meta WithOop(uint32_t oop) const { return Meta((raw_ & ~kOopMask) | (oop & kOopMask)); }

  friend constexpr bool operator==(Meta a, Meta b) { return a.raw_ == b.raw_; }

 private:
  uint64_t raw_;
};

// Order comparators on the write order (oop masked out).
constexpr bool TsLess(Meta a, Meta b) { return a.ts_order_key() < b.ts_order_key(); }
constexpr bool TsLessEq(Meta a, Meta b) { return a.ts_order_key() <= b.ts_order_key(); }
constexpr Meta TsMax(Meta a, Meta b) { return TsLess(a, b) ? b : a; }

// --- Timestamp-lock word (Algorithm 4/9). ---
//
// One lock per (object, writer); the word stores the highest timestamp
// counter locked so far plus the lock mode in the least significant bit.
// Zero is the unlocked bottom value.

enum class LockMode : uint8_t { kRead = 0, kWrite = 1 };

class TslWord {
 public:
  constexpr TslWord() : raw_(0) {}
  constexpr explicit TslWord(uint64_t raw) : raw_(raw) {}

  static constexpr TslWord Pack(uint32_t counter, LockMode mode) {
    return TslWord((static_cast<uint64_t>(counter) << 1) |
                   (mode == LockMode::kWrite ? 1u : 0u));
  }

  constexpr uint64_t raw() const { return raw_; }
  constexpr uint32_t counter() const { return static_cast<uint32_t>(raw_ >> 1); }
  constexpr LockMode mode() const {
    return (raw_ & 1) != 0 ? LockMode::kWrite : LockMode::kRead;
  }
  constexpr bool bottom() const { return raw_ == 0; }

  friend constexpr bool operator==(TslWord a, TslWord b) { return a.raw_ == b.raw_; }

 private:
  uint64_t raw_;
};

constexpr LockMode Opposite(LockMode m) {
  return m == LockMode::kRead ? LockMode::kWrite : LockMode::kRead;
}

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_TIMESTAMP_H_
