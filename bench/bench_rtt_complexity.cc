// Roundtrip-complexity microbenchmarks (Appendices A.2, B.2, C.3) and
// simulator-throughput measurements, using google-benchmark.
//
// Each benchmark drives one protocol primitive in a fresh simulated fabric
// and reports, as counters, the primitive's virtual-time latency and its
// roundtrip count — the quantities the paper's appendices bound analytically:
//   * reliable max-register write: 1 RT; read: 1 RT common / 2 RT repair,
//   * TRYLOCK: 1 RT uncontended, up to ts+1 in theory,
//   * Safe-Guess write: 1 RT fast path, and read: 1 RT on VERIFIED data.
// Wall-clock time per iteration measures the discrete-event engine itself.
//
// The probes are deterministic (fixed seed, fresh env per run), so main()
// first runs each ONCE and emits BENCH_rtt_complexity.json — the appendix
// bounds become part of the gated perf trajectory (an rtt count moving in
// either direction is a protocol change) — then hands argv to
// google-benchmark for the wall-clock fits (never gated; CI skips them with
// --benchmark_filter).

#include <benchmark/benchmark.h>

#include "bench/common/json_report.h"
#include "bench/common/options.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/swarm/abd.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/safe_guess.h"
#include "src/swarm/timestamp_lock.h"
#include "tests/support/test_env.h"
#include "src/util/discard.h"

namespace swarm {
namespace {

using testing::TestEnv;
using testing::ValN;

struct Probe {
  sim::Time latency = 0;
  int rtts = 0;
};

template <typename Fn>
Probe RunProbe(TestEnv& env, Fn body) {
  Probe probe;
  sim::Spawn(body(&probe));
  env.sim.Run();
  return probe;
}

Probe ProbeQuorumMaxWrite() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto body = [&](Probe* p) -> sim::Task<void> {
    QuorumMax reg(&w, w.SlotCacheFor(layout));
    // Warm the slot caches with one write, then measure the steady state.
    swarm::DiscardStatus(co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), ValN(64, 1)));
    const sim::Time start = env.sim.Now();
    WriteReadOutcome out = co_await reg.WriteAndRead(Meta::Pack(20, 0, false, 0), ValN(64, 2));
    p->latency = env.sim.Now() - start;
    p->rtts = out.rtts;
  };
  return RunProbe(env, body);
}

Probe ProbeQuorumMaxReadFast() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto body = [&](Probe* p) -> sim::Task<void> {
    QuorumMax reg(&w, w.SlotCacheFor(layout));
    WriteReadOutcome wr = co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), ValN(64, 1));
    co_await QuorumMax::Promote(&w, layout, wr.installed, ValN(64, 1), SlotCache());
    co_await env.sim.Delay(20000);
    const sim::Time start = env.sim.Now();
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    p->latency = env.sim.Now() - start;
    p->rtts = rd.rtts;
  };
  return RunProbe(env, body);
}

Probe ProbeQuorumMaxReadRepair() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  Worker& rdr = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto body = [&](Probe* p) -> sim::Task<void> {
    // Value at a single replica: the read must chase + write back.
    InOutReplica rep(&w, layout.get(), 1);
    Meta cache;
    swarm::DiscardStatus(co_await rep.WriteMax(Meta::Pack(50, 0, false, 0), ValN(64, 1), &cache));
    QuorumMax reg(&rdr, rdr.SlotCacheFor(layout));
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    p->rtts = rd.rtts;
  };
  return RunProbe(env, body);
}

Probe ProbeTryLockUncontended() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto body = [&](Probe* p) -> sim::Task<void> {
    TimestampLock lock(&w, layout, 0);
    TryLockResult r = co_await lock.TryLock(42, LockMode::kWrite);
    p->rtts = r.rtts;
  };
  return RunProbe(env, body);
}

Probe ProbeSafeGuessWriteFastPath() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto body = [&](Probe* p) -> sim::Task<void> {
    SafeGuessObject obj(&w, w.SlotCacheFor(layout));
    swarm::DiscardStatus(co_await obj.Write(ValN(64, 1)));
    co_await env.sim.Delay(20000);
    const sim::Time start = env.sim.Now();
    SgWriteResult r = co_await obj.Write(ValN(64, 2));
    p->latency = env.sim.Now() - start;
    p->rtts = r.rtts;
  };
  return RunProbe(env, body);
}

Probe ProbeSafeGuessReadVerified() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto body = [&](Probe* p) -> sim::Task<void> {
    SafeGuessObject obj(&w, w.SlotCacheFor(layout));
    swarm::DiscardStatus(co_await obj.Write(ValN(64, 1)));
    co_await env.sim.Delay(20000);
    const sim::Time start = env.sim.Now();
    SgReadResult r = co_await obj.Read();
    p->latency = env.sim.Now() - start;
    p->rtts = r.rtts;
  };
  return RunProbe(env, body);
}

// Guessed timestamps (Safe-Guess) vs discovered timestamps (ABD needs a read
// before installing): latency is the fast-path write time of each, in ns.
// Returned as {sg_latency, abd_latency_in_rtts-field} — see callers.
std::pair<sim::Time, sim::Time> ProbeGuessVsDiscover() {
  TestEnv env(42);
  Worker& w = env.MakeWorker();
  const LayoutPin sg_layout = env.MakeObject();
  std::vector<int> nodes{0, 1, 2};
  const LayoutPin abd_layout = AllocateObject(env.fabric, nodes.data(), 3, 1, 1, 64, 0);
  sim::Time sg_lat = 0;
  sim::Time abd_lat = 0;
  auto body = [&](Probe*) -> sim::Task<void> {
    SafeGuessObject obj(&w, w.SlotCacheFor(sg_layout));
    swarm::DiscardStatus(co_await obj.Write(ValN(64, 1)));
    sim::Time start = env.sim.Now();
    swarm::DiscardStatus(co_await obj.Write(ValN(64, 2)));
    sg_lat = env.sim.Now() - start;

    AbdObject abd_obj(&w, w.SlotCacheFor(abd_layout));
    swarm::DiscardStatus(co_await abd_obj.Write(ValN(64, 1)));
    start = env.sim.Now();
    swarm::DiscardStatus(co_await abd_obj.Write(ValN(64, 2)));
    abd_lat = env.sim.Now() - start;
  };
  Probe p;
  sim::Spawn(body(&p));
  env.sim.Run();
  return {sg_lat, abd_lat};
}

// One deterministic pass over every probe -> BENCH_rtt_complexity.json.
// Roundtrip counts carry the appendix bounds; the virtual-time latencies are
// the same numbers the BM_ counters report.
void EmitJsonReport() {
  bench::JsonReport rep("rtt_complexity");

  const Probe qw = ProbeQuorumMaxWrite();
  rep.MetricU("quorum_max.write.rtts", static_cast<uint64_t>(qw.rtts));
  rep.Metric("quorum_max.write.virtual_us", static_cast<double>(qw.latency) / 1e3);

  const Probe qr = ProbeQuorumMaxReadFast();
  rep.MetricU("quorum_max.read_fast.rtts", static_cast<uint64_t>(qr.rtts));
  rep.Metric("quorum_max.read_fast.virtual_us", static_cast<double>(qr.latency) / 1e3);

  const Probe rr = ProbeQuorumMaxReadRepair();
  rep.MetricU("quorum_max.read_repair.rtts", static_cast<uint64_t>(rr.rtts));

  const Probe tl = ProbeTryLockUncontended();
  rep.MetricU("trylock.uncontended.rtts", static_cast<uint64_t>(tl.rtts));

  const Probe sw = ProbeSafeGuessWriteFastPath();
  rep.MetricU("safe_guess.write_fast.rtts", static_cast<uint64_t>(sw.rtts));
  rep.Metric("safe_guess.write_fast.virtual_us", static_cast<double>(sw.latency) / 1e3);

  const Probe sr = ProbeSafeGuessReadVerified();
  rep.MetricU("safe_guess.read_verified.rtts", static_cast<uint64_t>(sr.rtts));
  rep.Metric("safe_guess.read_verified.virtual_us", static_cast<double>(sr.latency) / 1e3);

  const auto [sg_lat, abd_lat] = ProbeGuessVsDiscover();
  rep.Metric("ablation.safe_guess_write_us", static_cast<double>(sg_lat) / 1e3);
  rep.Metric("ablation.abd_write_us", static_cast<double>(abd_lat) / 1e3);

  rep.Write();
}

void BM_QuorumMaxWrite(benchmark::State& state) {
  double rtts = 0;
  double lat = 0;
  for (auto _ : state) {
    Probe p = ProbeQuorumMaxWrite();
    rtts += p.rtts;
    lat += static_cast<double>(p.latency);
  }
  state.counters["virtual_rtts"] = rtts / static_cast<double>(state.iterations());
  state.counters["virtual_us"] = lat / 1e3 / static_cast<double>(state.iterations());
}
BENCHMARK(BM_QuorumMaxWrite);

void BM_QuorumMaxReadFast(benchmark::State& state) {
  double rtts = 0;
  double lat = 0;
  for (auto _ : state) {
    Probe p = ProbeQuorumMaxReadFast();
    rtts += p.rtts;
    lat += static_cast<double>(p.latency);
  }
  state.counters["virtual_rtts"] = rtts / static_cast<double>(state.iterations());
  state.counters["virtual_us"] = lat / 1e3 / static_cast<double>(state.iterations());
}
BENCHMARK(BM_QuorumMaxReadFast);

void BM_QuorumMaxReadRepair(benchmark::State& state) {
  double rtts = 0;
  for (auto _ : state) {
    rtts += ProbeQuorumMaxReadRepair().rtts;
  }
  state.counters["virtual_rtts"] = rtts / static_cast<double>(state.iterations());
}
BENCHMARK(BM_QuorumMaxReadRepair);

void BM_TryLockUncontended(benchmark::State& state) {
  double rtts = 0;
  for (auto _ : state) {
    rtts += ProbeTryLockUncontended().rtts;
  }
  state.counters["virtual_rtts"] = rtts / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TryLockUncontended);

void BM_SafeGuessWriteFastPath(benchmark::State& state) {
  double rtts = 0;
  double lat = 0;
  for (auto _ : state) {
    Probe p = ProbeSafeGuessWriteFastPath();
    rtts += p.rtts;
    lat += static_cast<double>(p.latency);
  }
  state.counters["virtual_rtts"] = rtts / static_cast<double>(state.iterations());
  state.counters["virtual_us"] = lat / 1e3 / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SafeGuessWriteFastPath);

void BM_SafeGuessReadVerified(benchmark::State& state) {
  double rtts = 0;
  double lat = 0;
  for (auto _ : state) {
    Probe p = ProbeSafeGuessReadVerified();
    rtts += p.rtts;
    lat += static_cast<double>(p.latency);
  }
  state.counters["virtual_rtts"] = rtts / static_cast<double>(state.iterations());
  state.counters["virtual_us"] = lat / 1e3 / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SafeGuessReadVerified);

// Ablation: guessed timestamps (Safe-Guess) vs discovered timestamps (ABD
// needs a read before installing). Reported as the fast-path write latency
// difference in virtual time — the paper's headline single-roundtrip claim.
void BM_AblationGuessVsDiscover(benchmark::State& state) {
  double sg = 0;
  double abd = 0;
  for (auto _ : state) {
    const auto [sg_lat, abd_lat] = ProbeGuessVsDiscover();
    sg += static_cast<double>(sg_lat);
    abd += static_cast<double>(abd_lat);
  }
  state.counters["safe_guess_us"] = sg / 1e3 / static_cast<double>(state.iterations());
  state.counters["abd_us"] = abd / 1e3 / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AblationGuessVsDiscover);

// Raw engine throughput: how many simulated fabric verbs per wall second.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  uint64_t ops = 0;
  for (auto _ : state) {
    TestEnv env(7);
    Worker& w = env.MakeWorker();
    uint64_t addr = env.fabric.node(0).Allocate(64);
    auto body = [&](Probe*) -> sim::Task<void> {
      std::vector<uint8_t> buf(64);
      for (int i = 0; i < 1000; ++i) {
        swarm::DiscardStatus(co_await w.qp(0).Read(addr, buf));
      }
    };
    Probe p;
    sim::Spawn(body(&p));
    env.sim.Run();
    ops += 1000;
  }
  state.counters["verbs_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace
}  // namespace swarm

int main(int argc, char** argv) {
  swarm::bench::ParseBenchFlags(argc, argv);
  swarm::EmitJsonReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
