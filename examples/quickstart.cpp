// Quickstart: bring up a simulated disaggregated-memory fabric, start a
// SWARM-KV client, and run the basic key-value operations.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Everything executes in virtual time inside a deterministic discrete-event
// simulation, so the printed latencies are the protocol's latencies on the
// modeled RDMA fabric (~0.7 us one-way), not host wall-clock noise.

#include <cstdio>
#include <string>
#include <vector>

#include "src/deploy/deployment.h"

namespace {

using namespace swarm;  // Example code; a real client would pick names.

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

std::string Text(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

sim::Task<void> Demo(sim::Simulator* sim, kv::KvSession* kv) {
  // Insert: replicates the value over 3 memory nodes AND registers the key
  // in the index, in parallel — one roundtrip total.
  sim::Time t0 = sim->Now();
  kv::KvResult ins = co_await kv->Insert(42, Bytes("hello, disaggregated world"));
  std::printf("insert: status=%d  roundtrips=%d  latency=%.2fus\n",
              static_cast<int>(ins.status), ins.rtts, sim::ToMicros(sim->Now() - t0));

  // Get: single roundtrip once the value's background VERIFIED promotion has
  // landed; the value is served from In-n-Out's in-place copy.
  co_await sim->Delay(20 * sim::kMicrosecond);
  t0 = sim->Now();
  kv::KvResult got = co_await kv->Get(42);
  std::printf("get:    \"%s\"  roundtrips=%d  in-place=%s  latency=%.2fus\n",
              Text(got.value).c_str(), got.rtts, got.used_inplace ? "yes" : "no",
              sim::ToMicros(sim->Now() - t0));

  // Update: guesses a fresh timestamp and writes in a single roundtrip.
  t0 = sim->Now();
  kv::KvResult upd = co_await kv->Update(42, Bytes("updated in one roundtrip"));
  std::printf("update: status=%d  roundtrips=%d  fast-path=%s  latency=%.2fus\n",
              static_cast<int>(upd.status), upd.rtts, upd.fast_path ? "yes" : "no",
              sim::ToMicros(sim->Now() - t0));

  kv::KvResult got2 = co_await kv->Get(42);
  std::printf("get:    \"%s\"\n", Text(got2.value).c_str());

  // Delete: writes the maximal timestamp so the key can never be resurrected
  // by stale writers, then unmaps the index entry in the background.
  kv::KvResult del = co_await kv->Remove(42);
  std::printf("remove: status=%d  roundtrips=%d\n", static_cast<int>(del.status), del.rtts);
  kv::KvResult miss = co_await kv->Get(42);
  std::printf("get:    %s\n",
              miss.status == kv::KvStatus::kNotFound ? "(not found)" : "(unexpected!)");
}

}  // namespace

int main() {
  // 1. One SWARM-KV deployment (src/deploy): a simulator, a fabric of 4
  //    memory nodes (the paper's testbed), the reliable index service
  //    (location lookups in one roundtrip) and membership, plus one client:
  //    CPU model, location cache, loosely synchronized clock, and a worker
  //    (queue pairs + out-of-place buffer pools on each node) with 3
  //    replicas and per-writer metadata buffers.
  deploy::DeploymentConfig cfg;
  cfg.fabric.node_capacity_bytes = 64ull << 20;
  cfg.num_clients = 1;
  deploy::Deployment d(cfg);

  // 2. Run the demo to completion in virtual time.
  sim::Spawn(Demo(&d.sim(), &d.session(0)));
  d.sim().Run();

  std::printf("\nsimulated %llu events covering %.1f virtual microseconds\n",
              static_cast<unsigned long long>(d.sim().events_processed()),
              sim::ToMicros(d.sim().Now()));
  return 0;
}
