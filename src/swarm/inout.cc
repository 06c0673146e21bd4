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

sim::Task<CasMaxResult> CasMax(fabric::Qp& qp, OopPool& pool, uint64_t addr, Meta prev,
                               Meta desired, Meta* seen) {
  CasMaxResult out;
  while (TsLess(prev, desired)) {
    const fabric::OpResult r = co_await qp.Cas(addr, prev.raw(), desired.raw());
    ++out.cas_count;
    if (!r.ok()) {
      out.status = r.status;
      co_return out;
    }
    const Meta now(r.old_value);
    *seen = TsMax(*seen, now);
    if (now == prev) {
      // Installed. The replaced word's buffer is unreachable through the
      // metadata from now on; readers that raced validate the buffer's head
      // and retry if they lose.
      out.installed = true;
      out.replaced = prev;
      FreeBuffer(pool, prev);
      co_return out;
    }
    prev = now;
  }
  FreeBuffer(pool, desired);  // The word moved past us: our buffer is unused.
  co_return out;
}

sim::Task<NodeMaxResult> InOutReplica::WriteMaxImpl(Meta w, std::span<const uint8_t> value,
                                                    Meta slot_expected, bool refresh_inplace) {
  NodeMaxResult result;
  fabric::Qp& qp = worker_->qp(rep_->node);
  OopPool& pool = worker_->pool(rep_->node);
  const uint64_t slot_addr = SlotAddr(SlotOf(w.tid(), layout_->meta_slots));

  Meta w_full = w;
  sim::Bytes image;
  const bool has_payload = !w.deleted();
  if (has_payload) {
    w_full = w.WithOop(pool.AllocIdx());
    image = EncodeFrame(w_full.raw(), value);
  }

  // First attempt: expected from the cache; never CAS the slot downward.
  const Meta desired = TsLess(slot_expected, w_full) ? w_full : slot_expected;
  fabric::OpResult r;
  sim::Bytes inplace_image;
  if (has_payload && refresh_inplace && has_inplace()) {
    // Direct verified write: refresh the in-place copy in the same pipelined
    // roundtrip. The hash binds the bytes to our full word, so readers only
    // trust them while that word is the node's max.
    inplace_image = EncodeFrame(hash::HashMetaAndValue(w_full.raw(), value), value);
    auto cas_op = qp.WriteThenCas(w_full.oop_addr(), image, slot_addr, slot_expected.raw(),
                                  desired.raw());
    auto inp_op = qp.Write(layout_->inplace_addr(*rep_), inplace_image);
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

  const Meta prev(r.old_value);
  result.observed = prev;
  if (prev == slot_expected && desired == w_full) {
    // The pipelined CAS installed our word.
    result.installed = w_full;
    result.replaced = prev;
    result.observed = TsMax(prev, w_full);
    FreeBuffer(pool, prev);
    co_return result;
  }
  // The cache was stale, or the cached word is at or above ours (then the
  // first CAS landed as a no-op and the write lost): Algorithm 7 goes on
  // from the word the node returned.
  const CasMaxResult m = co_await CasMax(qp, pool, slot_addr, prev, w_full, &result.observed);
  result.status = m.status;
  result.cas_retries = m.cas_count;
  if (m.installed) {
    result.installed = w_full;
    result.replaced = m.replaced;
    result.observed = TsMax(result.observed, w_full);
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
    const std::optional<Frame> frame =
        DecodeFrame(std::span<const uint8_t>(buf).subspan(meta_bytes), layout_->max_value);
    if (frame && frame->head == hash::HashMetaAndValue(view.max.raw(), frame->value)) {
      view.inplace_valid = true;
      view.value.assign(frame->value.begin(), frame->value.end());
    }
  }
  co_return view;
}

sim::Task<std::optional<sim::Bytes>> InOutReplica::ReadOop(Meta word) {
  if (word.oop() == 0) {
    co_return std::nullopt;
  }
  fabric::Qp& qp = worker_->qp(rep_->node);
  sim::Bytes buf(kFrameHeaderBytes + layout_->max_value);
  fabric::OpResult r = co_await qp.Read(word.oop_addr(), buf);
  if (!r.ok()) {
    co_return std::nullopt;
  }
  const std::optional<Frame> frame = DecodeFrame(buf, layout_->max_value);
  // Flag-insensitive match: the buffer was written before any VERIFIED
  // promotion, so only the write identity and pointer must agree.
  if (!frame || Meta(frame->head).same_write_key() != word.same_write_key() ||
      Meta(frame->head).oop() != word.oop()) {
    co_return std::nullopt;  // Buffer was recycled under us.
  }
  co_return sim::Bytes(frame->value.begin(), frame->value.end());
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
    const sim::Bytes image = EncodeFrame(hash::HashMetaAndValue(vword.raw(), value), value);
    r = co_await qp.WriteThenCas(layout_->inplace_addr(*rep_), image, slot_addr, node_word.raw(),
                                 vword.raw());
  } else {
    r = co_await qp.Cas(slot_addr, node_word.raw(), vword.raw());
  }
  co_return r.status;
}

}  // namespace swarm
