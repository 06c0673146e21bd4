#include "bench/common/harness.h"

#include <algorithm>

#include "src/sim/task.h"

namespace swarm::bench {

KvHarness::KvHarness(HarnessConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.proto.max_value = std::max(cfg_.proto.max_value, cfg_.workload.value_size);
  deployment_ = std::make_unique<deploy::Deployment>(cfg_);
  cfg_.proto = deployment_->config().proto;
  for (int s = 0; s < num_sessions(); ++s) {
    workloads_.push_back(std::make_unique<ycsb::Workload>(
        cfg_.workload, cfg_.seed * 7919 + static_cast<uint64_t>(s)));
  }
}

sim::Task<void> KvHarness::LoadRange(int session_idx, uint64_t first, uint64_t last) {
  ycsb::Workload& wl = *workloads_[static_cast<size_t>(session_idx)];
  kv::KvSession& kv = session(session_idx);
  for (uint64_t key = first; key < last; ++key) {
    (void)co_await kv.Insert(key, wl.ValueFor(key, 0));
  }
}

void KvHarness::Load() {
  const int n = num_sessions();
  const uint64_t keys = cfg_.workload.num_keys;
  const uint64_t share = (keys + static_cast<uint64_t>(n) - 1) / static_cast<uint64_t>(n);
  for (int s = 0; s < n; ++s) {
    const uint64_t first = static_cast<uint64_t>(s) * share;
    const uint64_t last = std::min(keys, first + share);
    if (first < last) {
      sim::Spawn(LoadRange(s, first, last));
    }
  }
  sim().Run();
  deployment_->PrewarmCaches(keys);
}

sim::Task<void> KvHarness::WorkerLoop(int session_idx, uint64_t warmup, uint64_t measured) {
  ycsb::Workload& wl = *workloads_[static_cast<size_t>(session_idx)];
  kv::KvSession& kv = session(session_idx);
  for (uint64_t i = 0; i < warmup + measured; ++i) {
    const ycsb::Workload::Op op = wl.Next();
    const sim::Time start = sim().Now();
    kv::KvResult result;
    if (op.type == ycsb::OpType::kGet) {
      result = co_await kv.Get(op.key);
    } else {
      result = co_await kv.Update(op.key, wl.ValueFor(op.key, version_counter_++));
    }
    const sim::Time latency = sim().Now() - start;
    if (i < warmup || !measuring_) {
      continue;
    }
    if (op.type == ycsb::OpType::kGet) {
      results_.get_latency.Record(latency);
      results_.get_rtts[result.rtts]++;
      results_.gets++;
      results_.get_inplace += result.used_inplace ? 1 : 0;
    } else {
      results_.update_latency.Record(latency);
      results_.update_rtts[result.rtts]++;
      results_.updates++;
    }
    if (result.status == kv::KvStatus::kNotFound) {
      results_.not_found++;
    } else if (result.status == kv::KvStatus::kUnavailable) {
      results_.unavailable++;
    }
    if (op_hook_) {
      op_hook_(sim().Now(), op.type, latency, result);
    }
  }
}

RunResults KvHarness::Run() {
  results_ = RunResults{};
  const int n = num_sessions();
  const uint64_t warmup_each = cfg_.warmup_ops / static_cast<uint64_t>(n);
  const uint64_t measured_each = cfg_.measure_ops / static_cast<uint64_t>(n);

  // Warm-up phase (caches, in-place data, clock skews settle).
  measuring_ = false;
  if (warmup_each > 0) {
    for (int s = 0; s < n; ++s) {
      sim::Spawn(WorkerLoop(s, warmup_each, 0));
    }
    sim().Run();
  }

  // Measurement phase.
  measuring_ = true;
  const uint64_t fabric_bytes_before = fabric().stats().total_io();
  ResetCpu();
  const sim::Time start = sim().Now();
  for (int s = 0; s < n; ++s) {
    sim::Spawn(WorkerLoop(s, 0, measured_each));
  }
  sim().Run();
  results_.measure_duration = sim().Now() - start;
  results_.fabric_bytes = fabric().stats().total_io() - fabric_bytes_before;
  results_.cpu_busy = TotalCpuBusy();
  results_.cpu_wall = results_.measure_duration * cfg_.num_clients;
  return results_;
}

uint64_t KvHarness::TotalClockResyncs() const {
  uint64_t total = 0;
  for (int c = 0; c < deployment_->num_clients(); ++c) {
    for (const deploy::ClientWorker& w : deployment_->client(c).workers) {
      total += w.clock->resyncs();
    }
  }
  return total;
}

uint64_t KvHarness::TotalCacheBytes() const {
  uint64_t total = 0;
  for (int c = 0; c < deployment_->num_clients(); ++c) {
    total += deployment_->client(c).cache->ModeledBytes();
  }
  return total;
}

sim::Time KvHarness::TotalCpuBusy() const {
  sim::Time total = 0;
  for (int c = 0; c < deployment_->num_clients(); ++c) {
    total += deployment_->client(c).cpu->busy_ns();
  }
  return total;
}

void KvHarness::ResetCpu() {
  for (int c = 0; c < deployment_->num_clients(); ++c) {
    deployment_->client(c).cpu->ResetBusy();
  }
}

}  // namespace swarm::bench
