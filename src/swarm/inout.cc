#include "src/swarm/inout.h"

#include <cstring>

#include "src/hash/xxhash.h"

namespace swarm {
namespace {

Meta WordAt(const sim::Bytes& buf, size_t off) {
  uint64_t w;
  std::memcpy(&w, buf.data() + off, 8);
  return Meta(w);
}

}  // namespace

sim::Bytes InOutReplica::OopImage(Meta full_word, std::span<const uint8_t> value) const {
  sim::Bytes image(kOopHeaderBytes + value.size());
  const uint64_t word = full_word.raw();
  const uint64_t len = value.size();
  std::memcpy(image.data(), &word, 8);
  std::memcpy(image.data() + 8, &len, 8);
  std::memcpy(image.data() + 16, value.data(), value.size());
  return image;
}

sim::Task<NodeMaxResult> InOutReplica::WriteMaxImpl(Meta w, std::span<const uint8_t> value,
                                                    Meta slot_expected, bool refresh_inplace) {
  NodeMaxResult result;
  fabric::Qp& qp = worker_->qp(rep_->node);
  const uint64_t slot_addr = SlotAddr(SlotOf(w.tid(), layout_->meta_slots));

  Meta w_full = w;
  sim::Bytes image;
  const bool has_payload = !w.deleted();
  if (has_payload) {
    const uint32_t oop_idx = worker_->pool(rep_->node).AllocIdx();
    w_full = w.WithOop(oop_idx);
    image = OopImage(w_full, value);
  }

  // First attempt: expected from the cache; never CAS the slot downward.
  const Meta desired = TsLess(slot_expected, w_full) ? w_full : slot_expected;
  fabric::OpResult r;
  sim::Bytes inplace_image;
  if (has_payload && refresh_inplace && has_inplace()) {
    // Direct verified write: refresh the in-place copy in the same pipelined
    // roundtrip. The hash binds the bytes to our full word, so readers only
    // trust them while that word is the node's max.
    inplace_image.resize(kInPlaceHeaderBytes + value.size());
    const uint64_t h = hash::HashMetaAndValue(w_full.raw(), value);
    const uint64_t len = value.size();
    std::memcpy(inplace_image.data(), &h, 8);
    std::memcpy(inplace_image.data() + 8, &len, 8);
    std::memcpy(inplace_image.data() + 16, value.data(), value.size());
    auto cas_op = qp.WriteThenCas(w_full.oop_addr(), image, slot_addr, slot_expected.raw(),
                                  desired.raw());
    auto inp_op = qp.Write(rep_->inplace_addr(), inplace_image);
    auto [cr, ir] = co_await fabric::PostBoth(worker_->cpu(), worker_->sim(), std::move(cas_op),
                                              std::move(inp_op));
    (void)ir;
    r = cr;
  } else if (has_payload) {
    // Pipelined [out-of-place WRITE → metadata CAS]: one roundtrip (Fig. 3).
    r = co_await qp.WriteThenCas(w_full.oop_addr(), image, slot_addr, slot_expected.raw(),
                                 desired.raw());
  } else {
    r = co_await qp.Cas(slot_addr, slot_expected.raw(), desired.raw());
  }
  if (!r.ok()) {
    result.status = r.status;
    co_return result;
  }

  OopPool& pool = worker_->pool(rep_->node);
  auto free_superseded = [&pool](Meta replaced) {
    // The buffer of a replaced word is unreachable through the metadata from
    // now on: recycle it. Readers that raced still validate via the buffer
    // header and retry if they lose the race.
    if (!replaced.empty() && !replaced.deleted()) {
      pool.Free(replaced.oop());
    }
  };

  Meta prev(r.old_value);
  result.observed = prev;
  if (prev == slot_expected) {
    // CAS applied; the slot now holds `desired`.
    result.observed = TsMax(result.observed, desired);
    if (desired == w_full) {
      result.installed = w_full;
      result.replaced = prev;
      free_superseded(prev);
    } else if (has_payload) {
      pool.Free(w_full.oop());  // Lost to the cached word: buffer unused.
    }
    co_return result;
  }

  // Cache was stale: run Algorithm 7's retry loop against the actual value.
  while (TsLess(prev, w_full)) {
    fabric::OpResult rr = co_await qp.Cas(slot_addr, prev.raw(), w_full.raw());
    ++result.cas_retries;
    if (!rr.ok()) {
      result.status = rr.status;
      co_return result;
    }
    const Meta seen(rr.old_value);
    result.observed = TsMax(result.observed, seen);
    if (seen == prev) {
      result.installed = w_full;
      result.replaced = prev;
      result.observed = TsMax(result.observed, w_full);
      free_superseded(prev);
      co_return result;
    }
    prev = seen;
  }
  if (has_payload) {
    pool.Free(w_full.oop());  // The slot moved past us: buffer unused.
  }
  co_return result;
}

sim::Task<NodeMaxResult> InOutReplica::WriteMaxFor(Meta w, std::span<const uint8_t> value,
                                                   Meta slot_expected) {
  return WriteMaxImpl(w, value, slot_expected, /*refresh_inplace=*/false);
}

sim::Task<NodeMaxResult> InOutReplica::WriteVerifiedNode(Meta w, std::span<const uint8_t> value,
                                                         Meta slot_expected) {
  return WriteMaxImpl(w, value, slot_expected, /*refresh_inplace=*/true);
}

sim::Task<NodeMaxResult> InOutReplica::WriteMax(Meta w, std::span<const uint8_t> value,
                                                Meta* slot_cache) {
  NodeMaxResult result = co_await WriteMaxImpl(w, value, *slot_cache, /*refresh_inplace=*/false);
  if (result.ok()) {
    // The slot now holds at least max(observed, installed).
    *slot_cache = TsMax(result.observed, result.installed);
  }
  co_return result;
}

sim::Task<NodeView> InOutReplica::ReadNode(bool want_inplace) {
  NodeView view;
  fabric::Qp& qp = worker_->qp(rep_->node);
  const bool rd_inplace = want_inplace && has_inplace();
  const size_t meta_bytes = static_cast<size_t>(layout_->meta_region_bytes());
  const size_t total =
      meta_bytes + (rd_inplace ? static_cast<size_t>(layout_->inplace_region_bytes()) : 0);

  sim::Bytes buf(total);
  fabric::OpResult r = co_await qp.Read(rep_->meta_addr, buf);
  if (!r.ok()) {
    view.status = r.status;
    co_return view;
  }

  view.slots.reserve(static_cast<size_t>(layout_->meta_slots));
  for (int s = 0; s < layout_->meta_slots; ++s) {
    view.slots.push_back(WordAt(buf, static_cast<size_t>(s) * 8));
    view.max = TsMax(view.max, view.slots.back());
  }

  if (rd_inplace && !view.max.empty() && !view.max.deleted()) {
    const uint64_t stored_hash = WordAt(buf, meta_bytes).raw();
    const uint64_t len = WordAt(buf, meta_bytes + 8).raw();
    if (len <= layout_->max_value) {
      std::span<const uint8_t> data(buf.data() + meta_bytes + kInPlaceHeaderBytes,
                                    static_cast<size_t>(len));
      if (hash::HashMetaAndValue(view.max.raw(), data) == stored_hash) {
        view.inplace_valid = true;
        view.value.assign(data.begin(), data.end());
      }
    }
  }
  co_return view;
}

sim::Task<std::optional<sim::Bytes>> InOutReplica::ReadOop(Meta word) {
  if (word.oop() == 0) {
    co_return std::nullopt;
  }
  fabric::Qp& qp = worker_->qp(rep_->node);
  sim::Bytes buf(kOopHeaderBytes + layout_->max_value);
  fabric::OpResult r = co_await qp.Read(word.oop_addr(), buf);
  if (!r.ok()) {
    co_return std::nullopt;
  }
  const Meta header = WordAt(buf, 0);
  const uint64_t len = WordAt(buf, 8).raw();
  // Flag-insensitive match: the buffer was written before any VERIFIED
  // promotion, so only the write identity and pointer must agree.
  if (header.same_write_key() != word.same_write_key() || header.oop() != word.oop() ||
      len > layout_->max_value) {
    co_return std::nullopt;  // Buffer was recycled under us.
  }
  co_return sim::Bytes(buf.begin() + kOopHeaderBytes,
                                 buf.begin() + kOopHeaderBytes + static_cast<long>(len));
}

sim::Task<fabric::Status> InOutReplica::PromoteVerified(Meta node_word,
                                                        std::span<const uint8_t> value) {
  fabric::Qp& qp = worker_->qp(rep_->node);
  const Meta vword = node_word.WithVerified();
  const uint64_t slot_addr = SlotAddr(SlotOf(node_word.tid(), layout_->meta_slots));
  fabric::OpResult r;
  if (has_inplace()) {
    // Pipelined [in-place WRITE → metadata CAS to the VERIFIED word]. The
    // hash binds the bytes to the verified word so readers accept them only
    // while that word is still the node's max.
    sim::Bytes image(kInPlaceHeaderBytes + value.size());
    const uint64_t h = hash::HashMetaAndValue(vword.raw(), value);
    const uint64_t len = value.size();
    std::memcpy(image.data(), &h, 8);
    std::memcpy(image.data() + 8, &len, 8);
    std::memcpy(image.data() + 16, value.data(), value.size());
    r = co_await qp.WriteThenCas(rep_->inplace_addr(), image, slot_addr, node_word.raw(),
                                 vword.raw());
  } else {
    r = co_await qp.Cas(slot_addr, node_word.raw(), vword.raw());
  }
  co_return r.status;
}

}  // namespace swarm
