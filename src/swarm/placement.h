// Serving-filtered replica placement, shared by the KV stores.
//
// One policy, serving-aware linear probing over the node index space: a
// key's replicas are the first `replicas` serving nodes at
// (h + step) % num_nodes. At full membership this is EXACTLY the modular
// policy (h + i) % num_nodes, and when a node crashes or drains only the
// keys whose probe window crossed it re-home (to the next serving index) —
// every other key keeps its placement, which is what makes million-key
// drain plans proportional to the delta, not the store. Heap-free: the hot
// insert path must not touch the heap (zero_alloc_test guards the pick).
//
// Why a probe and not a hashed-vnode ring: an arc-length ring (tried first)
// re-shuffles WHICH keys live where even at identical aggregate balance, and
// the tracked Zipfian benches (fig11 failover, fig13 contention tails) are
// sensitive to exactly that — whether a handful of hot keys share the
// crashed or contended node moves p99s far beyond the 8% gate. The probe
// keeps the committed trajectory byte-stable at full membership and still
// bounds remap on failure/drain. The trade-off: admitting a node re-aims
// future placements globally (h % n changes) — acceptable because placement
// only decides where NEW objects go, and admission rebalance is the
// MigrationService's job anyway.
//
// Placement only decides where NEW objects go. Existing layouts keep their
// replica nodes across membership changes; moving them is the
// MigrationService's job, never the placement's.

#ifndef SWARM_SRC_SWARM_PLACEMENT_H_
#define SWARM_SRC_SWARM_PLACEMENT_H_

#include <cstdint>
#include <vector>

namespace swarm {

// Fills nodes[0..replicas) with the first `replicas` serving nodes probing
// (h + step) % num_nodes upward, for a key whose placement hash is `h`.
// `serving` (MembershipService::serving(), which spans the node-id space) may
// be null: every node serves. When nothing serves it falls back to the full
// cluster, (h + i) % num_nodes; when fewer nodes serve than `replicas` it
// repeats the collected cycle (the caller's quorum math handles duplicates
// the same way the modular policy did).
inline void PlaceReplicas(uint64_t h, int replicas, int num_nodes,
                          const std::vector<bool>* serving, int* nodes) {
  const auto n = static_cast<uint64_t>(num_nodes);
  int found = 0;
  for (int step = 0; step < num_nodes && found < replicas; ++step) {
    const auto node = static_cast<int>((h + static_cast<uint64_t>(step)) % n);
    if (serving == nullptr || (*serving)[static_cast<size_t>(node)]) {
      nodes[found++] = node;
    }
  }
  if (found == 0) {
    for (int i = 0; i < replicas; ++i) {
      nodes[i] = static_cast<int>((h + static_cast<uint64_t>(i)) % n);
    }
    return;
  }
  for (int i = found; found < replicas;) {
    nodes[found] = nodes[found % i];
    ++found;
  }
}

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_PLACEMENT_H_
