// Shared benchmark harness: builds a deployment of one of the four KV stores
// (src/deploy), loads keys, runs YCSB phases, and collects per-operation
// statistics.
//
// Defaults mirror the paper's setup (§7): 4 memory nodes, 3 replicas, 100 K
// keys of 64 B values, 4 clients with one outstanding operation each,
// Zipfian(.99), warm-up then measurement, caches large enough for all keys.

#ifndef SWARM_BENCH_COMMON_HARNESS_H_
#define SWARM_BENCH_COMMON_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/options.h"
#include "src/deploy/deployment.h"
#include "src/stats/histogram.h"
#include "src/ycsb/workload.h"

namespace swarm::bench {

// The deployment (store, fabric, protocol, clients, caches, index shards,
// clock skew) plus the YCSB run around it.
struct HarnessConfig : deploy::DeploymentConfig {
  ycsb::WorkloadConfig workload;
  uint64_t warmup_ops = 100000;
  uint64_t measure_ops = 100000;

  HarnessConfig() {
    fabric.node_capacity_bytes = 2ull << 30;
    // Regime is global (see options.h): under --paper-calibration every verb
    // pays its own submit_cost, so no bench silently mixes batched and
    // unbatched points in one trajectory.
    if (PaperCalibration()) {
      fabric.doorbell_batching = false;
    }
    proto.max_value = workload.value_size;
  }
};

struct RunResults {
  stats::LatencyHistogram get_latency;
  stats::LatencyHistogram update_latency;
  std::map<int, uint64_t> get_rtts;     // roundtrips -> count
  std::map<int, uint64_t> update_rtts;
  uint64_t gets = 0;
  uint64_t updates = 0;
  uint64_t get_inplace = 0;
  uint64_t not_found = 0;
  uint64_t unavailable = 0;
  sim::Time measure_duration = 0;
  double ThroughputMops() const {
    return measure_duration == 0
               ? 0.0
               : static_cast<double>(gets + updates) / sim::ToSeconds(measure_duration) / 1e6;
  }

  // Resource accounting deltas over the measurement phase.
  uint64_t fabric_bytes = 0;
  sim::Time cpu_busy = 0;
  sim::Time cpu_wall = 0;  // measure_duration * clients (for utilization).
};

class KvHarness {
 public:
  explicit KvHarness(HarnessConfig cfg);

  // Inserts all keys (version 0 values), drains the simulator and, with
  // unbounded caches, prewarms every client cache.
  void Load();

  // Runs warm-up + measurement; returns per-op statistics.
  RunResults Run();

  // Optional per-measured-op hook (e.g. Fig. 11's availability timeline):
  // called with (virtual completion time, op type, latency, result).
  using OpHook = std::function<void(sim::Time, ycsb::OpType, sim::Time, const kv::KvResult&)>;
  void set_op_hook(OpHook hook) { op_hook_ = std::move(hook); }

  sim::Simulator& sim() { return deployment_->sim(); }
  fabric::Fabric& fabric() { return deployment_->fabric(); }
  index::IndexService& index() { return deployment_->index(); }
  membership::MembershipService& membership() { return deployment_->membership(); }
  const HarnessConfig& config() const { return cfg_; }

  int num_sessions() const { return deployment_->num_sessions(); }
  kv::KvSession& session(int i) { return deployment_->session(i); }
  index::ClientCache& client_cache(int c) { return *deployment_->client(c).cache; }

  // Aggregate modeled client-cache bytes (Table 3).
  uint64_t TotalCacheBytes() const;
  // Total clock re-synchronizations across all workers (§6).
  uint64_t TotalClockResyncs() const;
  // Aggregate client CPU busy-ns since the last reset.
  sim::Time TotalCpuBusy() const;
  void ResetCpu();

 private:
  sim::Task<void> WorkerLoop(int session_idx, uint64_t warmup, uint64_t measured);
  sim::Task<void> LoadRange(int session_idx, uint64_t first, uint64_t last);

  HarnessConfig cfg_;
  std::unique_ptr<deploy::Deployment> deployment_;
  std::vector<std::unique_ptr<ycsb::Workload>> workloads_;

  RunResults results_;
  bool measuring_ = false;
  uint64_t version_counter_ = 1;
  OpHook op_hook_;
};

}  // namespace swarm::bench

#endif  // SWARM_BENCH_COMMON_HARNESS_H_
