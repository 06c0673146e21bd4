// Host-time probes of single layers, run by the traced benchmark after its
// measured window on the workload's own inputs. Each returns nanoseconds per
// unit of work; a layer's self time is its probe minus the probes of the
// layers below it (the fabric probe subtracts the simulator's dispatch cost
// of the events it generated). Weighted by the workload's measured per-op
// counts, the probes split host time per op across layers.

#ifndef SWARMBENCH_PROBES_H_
#define SWARMBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "src/index/client_cache.h"
#include "src/ycsb/workload.h"

namespace swarm::kvbench {

// Bare event dispatch: coroutine resumes and pooled callbacks in the given
// proportion, at fabric-like delays.
double ProbeSimNsPerEvent(double coroutine_share);

struct VerbMix {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cas = 0;
};

// Direct queue-pair verbs on a bare fabric, in the workload's verb mix, from
// 4 concurrent issuers with doorbell batching as configured by default.
// Returns the fabric's self time per verb.
double ProbeFabricSelfNsPerVerb(const VerbMix& mix, double sim_ns_per_event);

// ClientCache::Lookup replayed over `keys` on a copy of `cache`.
double ProbeCacheNsPerLookup(const index::ClientCache& cache, const std::vector<uint64_t>& keys);

// Workload::Next plus the value encoding the benchmark does per op.
double ProbeYcsbNsPerOp(const ycsb::WorkloadConfig& cfg, uint64_t seed);

}  // namespace swarm::kvbench

#endif  // SWARMBENCH_PROBES_H_
