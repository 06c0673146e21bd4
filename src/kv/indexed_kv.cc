#include "src/kv/indexed_kv.h"

#include <utility>

#include "src/hash/xxhash.h"
#include "src/sim/sync.h"
#include "src/swarm/placement.h"
#include "src/util/discard.h"

namespace swarm::kv {

sim::Task<void> UnmapLater(index::IndexService* index, uint64_t key, uint64_t generation) {
  // The outcome carries no actionable signal for this detached cleanup task.
  DiscardStatus(co_await index->RemoveIfGeneration(key, generation, nullptr));
}

namespace {

KvStatus MapStatus(SgStatus s) {
  switch (s) {
    case SgStatus::kOk:
      return KvStatus::kOk;
    case SgStatus::kNotFound:
    case SgStatus::kDeleted:
      return KvStatus::kNotFound;
    case SgStatus::kUnavailable:
      return KvStatus::kUnavailable;
    case SgStatus::kMoved:
      // Only surfaces when a moved bounce could not be resolved by
      // re-locating (the op loops intercept kMoved first): fail safe as
      // unavailable — the op provably had no effect, so pending is correct.
      return KvStatus::kUnavailable;
  }
  return KvStatus::kUnavailable;
}

// How many times HandleMoved re-consults the index waiting for an in-flight
// ownership flip to commit before handing the (possibly still fenced)
// mapping back to the caller's bounded attempt loop.
constexpr int kMovedLookupRetries = 6;

}  // namespace

template <typename Protocol>
auto IndexedKvSession<Protocol>::Locate(uint64_t key, bool seed_metadata, KvResult* result)
    -> sim::Task<Located> {
  if (index::CacheEntry* e = cache_->Lookup(key)) {
    result->cache_hit = true;
    co_return At(e->layout, e->generation);
  }
  auto idx = co_await index_->Lookup(key, worker_->cpu());
  ++result->rtts;
  if (!idx.has_value()) {
    co_return Located{};
  }
  Located loc = At(idx->layout, idx->generation);
  if (seed_metadata) {
    // §7.1: on a cache miss, updates pay one more roundtrip to fetch the
    // latest metadata buffers (seeding the In-n-Out slot caches for the
    // one-roundtrip CAS-max).
    QuorumMax reg(worker_, loc.layout.get(), loc.obj_cache);
    // Pure cache-seeding prefetch: the quorum's value/status is irrelevant
    // here — a failed seed just means the upcoming CAS-max pays the extra
    // roundtrip it would have paid anyway.
    DiscardStatus(co_await reg.ReadQuorum(/*strong=*/false));
    ++result->rtts;
  }
  Cache(key, loc);
  co_return loc;
}

template <typename Protocol>
auto IndexedKvSession<Protocol>::At(LayoutPin layout, uint64_t generation) -> Located {
  Located loc;
  loc.found = true;
  loc.obj_cache = worker_->SlotCacheFor(layout);
  loc.layout = std::move(layout);
  loc.generation = generation;
  return loc;
}

template <typename Protocol>
void IndexedKvSession<Protocol>::Cache(uint64_t key, const Located& loc) {
  index::CacheEntry entry;
  entry.layout = loc.layout;
  entry.generation = loc.generation;
  cache_->Put(key, std::move(entry));
}

template <typename Protocol>
LayoutPin IndexedKvSession<Protocol>::AllocateForKey(uint64_t key) {
  const ProtocolConfig& cfg = worker_->config();
  const int n = worker_->fabric()->num_nodes();
  int nodes[kMaxReplicas];
  const uint64_t h = hash::Mix64(key, Protocol::kPlacementSalt);
  PlaceReplicas(h, cfg.replicas, n, serving_.get(), nodes);
  return Protocol::Allocate(*worker_->fabric(), nodes, cfg);
}

template <typename Protocol>
auto IndexedKvSession<Protocol>::HandleDeleted(uint64_t key, uint64_t stale_generation,
                                               KvResult* result) -> sim::Task<Located> {
  // §5.3.3/§5.3.4: flush the cache, re-consult the index; remove the stale
  // mapping if the deleter failed to unmap it.
  cache_->Invalidate(key);
  auto idx = co_await index_->Lookup(key, worker_->cpu());
  ++result->rtts;
  if (!idx.has_value()) {
    co_return Located{};
  }
  if (idx->generation == stale_generation) {
    sim::Spawn(UnmapLater(index_, key, idx->generation));
    co_return Located{};
  }
  // The key was re-inserted with new replicas: use them.
  Located loc = At(idx->layout, idx->generation);
  Cache(key, loc);
  co_return loc;
}

template <typename Protocol>
auto IndexedKvSession<Protocol>::HandleMoved(uint64_t key, uint64_t stale_generation,
                                             KvResult* result) -> sim::Task<Located> {
  // A kMovedReplica bounce means this layout's extents are fenced for
  // migration. The replacement layout becomes visible when the coordinator's
  // ReplaceLayout commits (generation bump); until then the index still maps
  // the stale generation. Chase the index with a short backoff: either the
  // flip commits (new generation), the migration aborts (fence lifted under
  // the SAME generation — retrying on it then succeeds), or a concurrent
  // delete finishes (entry gone, absent is a correct observation because a
  // moved bounce provably had no effect). NEVER unmap here: unlike a
  // tombstone bounce, the key is alive, just in transit.
  Located loc;
  cache_->Invalidate(key);
  for (int i = 0; i < kMovedLookupRetries; ++i) {
    auto idx = co_await index_->Lookup(key, worker_->cpu());
    ++result->rtts;
    if (!idx.has_value()) {
      co_return loc;
    }
    loc = At(idx->layout, idx->generation);
    if (idx->generation != stale_generation) {
      Cache(key, loc);
      co_return loc;
    }
    co_await worker_->sim()->Delay(worker_->config().escalation_timeout);
  }
  // Still the stale generation after the backoff budget: hand it back
  // uncached. If the migration aborted meanwhile the caller's retry succeeds;
  // if the fence is still up it bounces again and the caller's bounded
  // attempt loop surfaces kUnavailable (pending — safe either way).
  co_return loc;
}

template <typename Protocol>
sim::Task<KvResult> IndexedKvSession<Protocol>::Get(uint64_t key) {
  KvResult result;
  Located loc = co_await Locate(key, /*seed_metadata=*/false, &result);
  bool moved = false;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!loc.found) {
      result.status = KvStatus::kNotFound;
      co_return result;
    }
    typename Protocol::Object obj(worker_, loc.layout.get(), loc.obj_cache);
    SgReadResult r = co_await obj.Read();
    result.rtts += r.rtts;
    if (r.status == SgStatus::kDeleted) {
      loc = co_await HandleDeleted(key, loc.generation, &result);
      continue;
    }
    if (r.status == SgStatus::kMoved) {
      moved = true;
      loc = co_await HandleMoved(key, loc.generation, &result);
      continue;
    }
    result.status = MapStatus(r.status);
    if (r.status == SgStatus::kOk) {
      result.value = std::move(r.value);
      result.fast_path = r.fast_path && result.cache_hit && attempt == 0;
      result.used_inplace = r.used_inplace;
    }
    co_return result;
  }
  // Exhausted on tombstones alone the key was certainly absent at some point;
  // exhausted chasing a migration fence it may be alive on the new layout —
  // only unavailability is safe to report then.
  result.status = moved ? KvStatus::kUnavailable : KvStatus::kNotFound;
  co_return result;
}

template <typename Protocol>
sim::Task<KvResult> IndexedKvSession<Protocol>::Update(uint64_t key,
                                                       std::span<const uint8_t> value) {
  KvResult result;
  Located loc =
      co_await Locate(key, /*seed_metadata=*/Protocol::kSeedMetadataOnUpdateMiss, &result);
  // Set once a Write bounced off a tombstone under a protocol whose bounced
  // write may already have taken effect (Protocol::kTombstoneBounceMayApply):
  // a kNotFound from here on is "possibly applied", not a definite
  // observation of absence.
  bool bounced = false;
  bool moved = false;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!loc.found) {
      result.status = KvStatus::kNotFound;  // §5.3.3: not indexed → fail.
      result.ambiguous = bounced;
      co_return result;
    }
    typename Protocol::Object obj(worker_, loc.layout.get(), loc.obj_cache);
    SgWriteResult r = co_await obj.Write(value);
    result.rtts += r.rtts;
    if (r.status == SgStatus::kDeleted) {
      bounced = Protocol::kTombstoneBounceMayApply;
      loc = co_await HandleDeleted(key, loc.generation, &result);
      continue;
    }
    if (r.status == SgStatus::kMoved) {
      // kMoved guarantees the write took NO effect on the fenced layout, so
      // re-executing it against the post-flip layout is a plain retry.
      moved = true;
      loc = co_await HandleMoved(key, loc.generation, &result);
      continue;
    }
    result.status = MapStatus(r.status);
    result.fast_path = r.fast_path && result.cache_hit && attempt == 0;
    co_return result;
  }
  result.status = moved ? KvStatus::kUnavailable : KvStatus::kNotFound;
  result.ambiguous = bounced;
  co_return result;
}

template <typename Protocol>
sim::Task<KvResult> IndexedKvSession<Protocol>::Insert(uint64_t key,
                                                       std::span<const uint8_t> value) {
  KvResult result;
  for (int attempt = 0; attempt < 3; ++attempt) {
    // §5.3.1: pick replicas, allocate cleared buffers (clients pre-allocate,
    // so this costs no roundtrip), then IN PARALLEL replicate the value and
    // insert the location into the index — one roundtrip total.
    LayoutPin layout = AllocateForKey(key);
    SlotCache obj_cache = worker_->SlotCacheFor(layout);
    typename Protocol::Object obj(worker_, layout.get(), obj_cache);
    // One doorbell covers the replica writes AND the index insert RPC.
    auto [wr, ins] = co_await fabric::PostBoth(
        worker_->cpu(), worker_->sim(), obj.Write(value),
        index_->InsertIfAbsent(key, layout, worker_->cpu()));
    result.rtts += wr.rtts > 1 ? wr.rtts : 1;

    if (ins.first) {
      // Fresh mapping: the parallel write targeted exactly these replicas,
      // so we are done.
      Cache(key, {.found = true,
                  .layout = layout,
                  .obj_cache = obj_cache,
                  .generation = ins.second.generation});
      result.status = MapStatus(wr.status);
      result.fast_path = wr.fast_path;
      co_return result;
    }

    // A mapping already exists: recycle our buffers and turn the insert
    // into an update on the existing replicas (§5.3.1).
    index_->Retire(std::move(layout));
    Located loc = At(ins.second.layout, ins.second.generation);
    Cache(key, loc);

    typename Protocol::Object existing(worker_, loc.layout.get(), loc.obj_cache);
    SgWriteResult wr2 = co_await existing.Write(value);
    result.rtts += wr2.rtts;
    if (wr2.status == SgStatus::kMoved) {
      // The existing mapping migrated mid-write with provably no effect: drop
      // the cached copy and retry; the next InsertIfAbsent round returns the
      // post-flip mapping (or finds the entry gone and re-inserts fresh).
      cache_->Invalidate(key);
      continue;
    }
    if (wr2.status == SgStatus::kDeleted) {
      // The existing mapping is tombstoned: overwrite it (§5.3.1) by
      // unmapping and retrying the insert with fresh replicas.
      cache_->Invalidate(key);
      // Generation-guarded unmap of a tombstone before retrying the insert:
      // if it loses (concurrent remap won), the next InsertIfAbsent round
      // observes the winner — either outcome converges, so the result is
      // intentionally dropped.
      DiscardStatus(co_await index_->RemoveIfGeneration(key, loc.generation, worker_->cpu()));
      ++result.rtts;
      continue;
    }
    result.status = wr2.status == SgStatus::kOk ? KvStatus::kExists : MapStatus(wr2.status);
    co_return result;
  }
  result.status = KvStatus::kUnavailable;
  co_return result;
}

template <typename Protocol>
sim::Task<KvResult> IndexedKvSession<Protocol>::Remove(uint64_t key) {
  KvResult result;
  Located loc = co_await Locate(key, /*seed_metadata=*/false, &result);
  bool moved = false;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!loc.found) {
      result.status = KvStatus::kNotFound;
      co_return result;
    }
    typename Protocol::Object obj(worker_, loc.layout.get(), loc.obj_cache);
    SgWriteResult del = co_await obj.Delete();
    result.rtts += del.rtts;
    if (del.status == SgStatus::kMoved) {
      // Effect-free bounce off a migration fence: the tombstone never landed,
      // so re-executing the delete on the post-flip layout is safe.
      moved = true;
      loc = co_await HandleMoved(key, loc.generation, &result);
      continue;
    }
    if (del.status == SgStatus::kDeleted) {
      // Another deleter's tombstone is on this object too. Consult the
      // index: if it still maps OUR generation (concurrent removes racing on
      // the live object) or nothing at all, our replicated tombstone stands
      // and the delete succeeded. Only a NEWER generation means our mapping
      // was stale (deleted + re-inserted since we cached it, §5.3.4) and the
      // live object still needs deleting.
      cache_->Invalidate(key);
      auto idx = co_await index_->Lookup(key, worker_->cpu());
      ++result.rtts;
      if (idx.has_value() && idx->generation != loc.generation) {
        loc = At(idx->layout, idx->generation);
        continue;
      }
      if (idx.has_value()) {
        sim::Spawn(UnmapLater(index_, key, idx->generation));
      }
      result.status = KvStatus::kOk;
      co_return result;
    }
    result.fast_path = del.fast_path && result.cache_hit && attempt == 0;
    cache_->Invalidate(key);
    if (del.status == SgStatus::kOk) {
      // §5.3.2: the delete is over once the tombstone is replicated;
      // unmapping the index entry happens in the background. Never unmap
      // after a failed delete: that would hide the still-live object from
      // cache-miss clients while cached clients keep operating on it.
      sim::Spawn(UnmapLater(index_, key, loc.generation));
      result.status = KvStatus::kOk;
    } else {
      result.status = MapStatus(del.status);
    }
    co_return result;
  }
  // Every attempt found the mapped object already tombstoned: the key kept
  // being deleted under us, so "absent" was certainly observable. If any
  // attempt instead chased a migration fence, the key may be alive on its new
  // layout — report unavailability (our tombstone provably never landed).
  result.status = moved ? KvStatus::kUnavailable : KvStatus::kNotFound;
  co_return result;
}

template class IndexedKvSession<SafeGuessProtocol>;
template class IndexedKvSession<AbdProtocol>;

}  // namespace swarm::kv
