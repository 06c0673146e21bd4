// Output check for every KV op the benchmark issues, O(1) per op.
//
// Every write stores a value naming its key and a serial number unique to
// that write (EncodeValue); the other 48 bytes are a hash stream of the two,
// so a torn or misdirected read fails DecodeValue. A get must return a write
// to its key that (a) was issued before the get responded and (b) was not
// superseded before the get was issued. Write w' supersedes v when w' was
// issued after v completed and w' completed itself.
//
// (b) in O(1): completions are numbered per key. A write records how many
// writes to its key had completed when it was issued (`done_at_issue`); when
// it completes, the key's `floor` becomes the max of those counts over
// completed writes. A completed write v is superseded exactly when its
// completion number is below the floor, so a get snapshots the floor when it
// is issued and compares v's completion number against it when it returns.
// (a) holds for any serial the checker handed out; pending writes are always
// admissible.
//
// Memory: 8 bytes per key plus 4 bytes per write issued.

#ifndef SWARMBENCH_OUTPUT_CHECK_H_
#define SWARMBENCH_OUTPUT_CHECK_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/hash/xxhash.h"
#include "swarmbench/cluster.h"

namespace swarm::kvbench {

inline void EncodeValue(uint64_t key, uint64_t serial, uint8_t* out) {
  std::memcpy(out, &key, 8);
  std::memcpy(out + 8, &serial, 8);
  uint64_t h = hash::Mix64(key, serial);
  for (uint32_t i = 16; i < kValueBytes; i += 8) {
    h = hash::Mix64(h, i);
    std::memcpy(out + i, &h, 8);
  }
}

// False when `value` is not a whole value written by EncodeValue.
inline bool DecodeValue(std::span<const uint8_t> value, uint64_t* key, uint64_t* serial) {
  if (value.size() != kValueBytes) {
    return false;
  }
  std::memcpy(key, value.data(), 8);
  std::memcpy(serial, value.data() + 8, 8);
  uint8_t expect[kValueBytes];
  EncodeValue(*key, *serial, expect);
  return std::memcmp(expect, value.data(), kValueBytes) == 0;
}

class OutputChecker {
 public:
  // Keys [0, keys) are checked; serials start at 1 (0 is the empty value).
  explicit OutputChecker(uint64_t keys) : keys_(keys), done_index_(1, kPending) {}

  // Returns the new write's serial and the key's completion count now.
  uint64_t BeginWrite(uint64_t key, uint32_t* done_at_issue) {
    *done_at_issue = keys_[key].done;
    done_index_.push_back(kPending);
    return done_index_.size() - 1;
  }

  // Call only for writes that took effect (status ok).
  void EndWrite(uint64_t key, uint64_t serial, uint32_t done_at_issue) {
    KeyState& k = keys_[key];
    done_index_[serial] = k.done++;
    if (done_at_issue > k.floor) {
      k.floor = done_at_issue;
    }
  }

  uint32_t BeginRead(uint64_t key) const { return keys_[key].floor; }

  // True when `value` is an admissible result for a get of `key` issued
  // when the key's floor was `floor_at_issue`. `serial_out` receives the
  // decoded serial (0 if undecodable).
  bool EndRead(uint64_t key, uint32_t floor_at_issue, std::span<const uint8_t> value,
               uint64_t* serial_out) const {
    uint64_t stored_key = 0;
    uint64_t serial = 0;
    *serial_out = 0;
    if (!DecodeValue(value, &stored_key, &serial) || stored_key != key || serial == 0 ||
        serial >= done_index_.size()) {
      return false;
    }
    *serial_out = serial;
    const uint32_t done = done_index_[serial];
    return done == kPending || done >= floor_at_issue;
  }

 private:
  static constexpr uint32_t kPending = UINT32_MAX;

  struct KeyState {
    uint32_t done = 0;   // Completed writes to the key.
    uint32_t floor = 0;  // Completions numbered below this are superseded.
  };

  std::vector<KeyState> keys_;
  std::vector<uint32_t> done_index_;  // Per serial: per-key completion number.
};

}  // namespace swarm::kvbench

#endif  // SWARMBENCH_OUTPUT_CHECK_H_
