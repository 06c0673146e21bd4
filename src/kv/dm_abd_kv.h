// DM-ABD key-value store (§7, "Baselines"): values replicated with the ABD
// protocol using pure out-of-place updates. Strongly consistent and
// fault-tolerant like SWARM-KV, but gets and updates commonly take two
// roundtrips (Table 2): gets chase a pointer, updates first discover a
// fresh timestamp (hidden behind the out-of-place data write) and then
// install it with a CAS.
//
// Its key-value layer (index, location cache, §5.3's insert and tombstone
// rules) is SWARM-KV's, from src/kv/indexed_kv.h, so the two stores differ
// only in their register protocol.

#ifndef SWARM_SRC_KV_DM_ABD_KV_H_
#define SWARM_SRC_KV_DM_ABD_KV_H_

#include "src/kv/indexed_kv.h"

namespace swarm::kv {

using DmAbdKvSession = IndexedKvSession<AbdProtocol>;

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_DM_ABD_KV_H_
