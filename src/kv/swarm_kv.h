// SWARM-KV (§5): a strongly consistent, highly available disaggregated
// key-value store with single-roundtrip inserts, updates, gets and
// deletes in the common case.
//
// Clients access replicated values directly on the memory nodes through
// Safe-Guess (over In-n-Out max registers); an index service maps keys to
// replica locations, and a client-side cache (optionally bounded, LFU) makes
// steady-state operations index-free. The key-value layer is the engine in
// src/kv/indexed_kv.h, shared with DM-ABD.

#ifndef SWARM_SRC_KV_SWARM_KV_H_
#define SWARM_SRC_KV_SWARM_KV_H_

#include "src/kv/indexed_kv.h"

namespace swarm::kv {

using SwarmKvSession = IndexedKvSession<SafeGuessProtocol>;

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_SWARM_KV_H_
