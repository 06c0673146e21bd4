#include "swarmbench/probes.h"

#include <chrono>
#include <deque>
#include <memory>

#include "src/fabric/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "swarmbench/output_check.h"

namespace swarm::kvbench {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Keeps probe results observable so the timed loops are not elided.
volatile uint64_t g_sink = 0;

sim::Task<void> DelayLoop(sim::Simulator* s, uint64_t steps, sim::Time base) {
  for (uint64_t i = 0; i < steps; ++i) {
    co_await s->Delay(base + static_cast<sim::Time>(i % 13) * 61);
  }
}

struct CallbackChain {
  sim::Simulator* s;
  uint64_t left;
  sim::Time base;
  void operator()() {
    if (--left > 0) {
      s->After(base + static_cast<sim::Time>(left % 11) * 53, *this);
    }
  }
};

enum class Verb : uint8_t { kRead, kWrite, kCas };

// Interleaves the mix's verb kinds evenly over a 64-step cycle.
std::vector<Verb> VerbCycle(const VerbMix& mix) {
  const double total = static_cast<double>(mix.reads + mix.writes + mix.cas);
  std::vector<Verb> cycle;
  if (total == 0) {
    cycle.push_back(Verb::kRead);
    return cycle;
  }
  const double share[3] = {static_cast<double>(mix.reads) / total,
                           static_cast<double>(mix.writes) / total,
                           static_cast<double>(mix.cas) / total};
  double credit[3] = {0, 0, 0};
  for (int i = 0; i < 64; ++i) {
    int best = 0;
    for (int k = 0; k < 3; ++k) {
      credit[k] += share[k];
      if (credit[k] > credit[best]) {
        best = k;
      }
    }
    credit[best] -= 1.0;
    cycle.push_back(static_cast<Verb>(best));
  }
  return cycle;
}

sim::Task<void> VerbLoop(std::deque<fabric::Qp>* qps, const std::vector<uint64_t>* addrs,
                         const std::vector<Verb>* cycle, uint64_t verbs, uint64_t offset) {
  uint8_t buf[kValueBytes] = {};
  const uint64_t nodes = addrs->size();
  for (uint64_t i = 0; i < verbs; ++i) {
    const uint64_t step = i + offset;
    const auto node = static_cast<size_t>(step % nodes);
    fabric::Qp& qp = (*qps)[node];
    const uint64_t base = (*addrs)[node];
    fabric::OpResult r;
    switch ((*cycle)[static_cast<size_t>(step % cycle->size())]) {
      case Verb::kRead:
        r = co_await qp.Read(base, std::span<uint8_t>(buf, kValueBytes));
        break;
      case Verb::kWrite:
        r = co_await qp.Write(base + 128, std::span<const uint8_t>(buf, kValueBytes));
        break;
      case Verb::kCas:
        r = co_await qp.Cas(base + 256, step, step + 1);
        break;
    }
    g_sink = g_sink + static_cast<uint64_t>(r.status);
  }
}

}  // namespace

double ProbeSimNsPerEvent(double coroutine_share) {
  constexpr double kEvents = 1 << 20;
  constexpr int kActors = 64;
  sim::Simulator s(1);
  const auto co_steps = static_cast<uint64_t>(kEvents * coroutine_share / kActors);
  const auto cb_steps = static_cast<uint64_t>(kEvents * (1.0 - coroutine_share) / kActors);
  for (int a = 0; a < kActors; ++a) {
    const sim::Time base = 600 + static_cast<sim::Time>(a) * 23;
    if (co_steps > 0) {
      sim::Spawn(DelayLoop(&s, co_steps, base));
    }
    if (cb_steps > 0) {
      s.After(base, CallbackChain{&s, cb_steps, base});
    }
  }
  const Clock::time_point t0 = Clock::now();
  s.Run();
  const double ns = NsSince(t0);
  return s.events_processed() == 0 ? 0.0 : ns / static_cast<double>(s.events_processed());
}

double ProbeFabricSelfNsPerVerb(const VerbMix& mix, double sim_ns_per_event) {
  constexpr int kIssuers = 4;
  constexpr uint64_t kVerbsPerIssuer = 1 << 16;
  sim::Simulator s(1);
  fabric::FabricConfig cfg;
  cfg.num_nodes = 4;
  cfg.node_capacity_bytes = 1ull << 20;
  fabric::Fabric f(&s, cfg);
  std::vector<uint64_t> addrs;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    addrs.push_back(f.node(n).Allocate(4096));
  }
  const std::vector<Verb> cycle = VerbCycle(mix);
  std::vector<std::unique_ptr<fabric::ClientCpu>> cpus;
  std::vector<std::deque<fabric::Qp>> qps(kIssuers);
  for (int i = 0; i < kIssuers; ++i) {
    cpus.push_back(std::make_unique<fabric::ClientCpu>(&s));
    cpus.back()->Configure(&f.stats(), cfg.doorbell_batching, cfg.max_wqe_per_doorbell);
    for (int n = 0; n < cfg.num_nodes; ++n) {
      qps[static_cast<size_t>(i)].emplace_back(&f, n, cpus.back().get());
    }
  }
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kIssuers; ++i) {
    sim::Spawn(VerbLoop(&qps[static_cast<size_t>(i)], &addrs, &cycle, kVerbsPerIssuer,
                        static_cast<uint64_t>(i) * 17));
  }
  s.Run();
  const double ns = NsSince(t0);
  const double verbs = static_cast<double>(kIssuers * kVerbsPerIssuer);
  return (ns - static_cast<double>(s.events_processed()) * sim_ns_per_event) / verbs;
}

double ProbeCacheNsPerLookup(const index::ClientCache& cache, const std::vector<uint64_t>& keys) {
  if (keys.empty()) {
    return 0.0;
  }
  index::ClientCache copy = cache;
  uint64_t hits = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t key : keys) {
    hits += copy.Lookup(key) != nullptr ? 1 : 0;
  }
  const double ns = NsSince(t0);
  g_sink = g_sink + hits;
  return ns / static_cast<double>(keys.size());
}

double ProbeYcsbNsPerOp(const ycsb::WorkloadConfig& cfg, uint64_t seed) {
  constexpr uint64_t kOps = 1 << 19;
  ycsb::Workload wl(cfg, seed);
  uint8_t buf[kValueBytes];
  uint64_t sum = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    const ycsb::Workload::Op op = wl.Next();
    EncodeValue(op.key, i + 1, buf);
    sum += buf[i % kValueBytes] + op.key;
  }
  const double ns = NsSince(t0);
  g_sink = g_sink + sum;
  return ns / static_cast<double>(kOps);
}

}  // namespace swarm::kvbench
