// Failover demo: a narrated walk through §7.7 — what happens to a SWARM-KV
// client when a memory node crashes, in four acts:
//
//   1. steady state: single-roundtrip gets/updates against the preferred
//      majority of each key's replicas,
//   2. the crash: in-flight operations time out on the dead node and
//      broaden to the remaining replicas (slow, but no unavailability),
//   3. detection: membership (uKharon stand-in) tells every client to stop
//      contacting the dead node — operations are fast again, though gets of
//      keys whose in-place copy lived on the dead node pay the
//      out-of-place chase,
//   4. repair: subsequent updates rebuild in-place data and quorum
//      unanimity on the survivors; latency returns to (near) baseline.
//
// Every operation of the run is also recorded into a keyed history and
// handed to the linearizability checker (src/verify/lincheck.h) at the end:
// "zero unavailability" only counts if the answers were also consistent
// across the crash.

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/deploy/deployment.h"
#include "src/stats/histogram.h"
#include "src/verify/lincheck.h"

namespace {

using namespace swarm;

constexpr uint64_t kKeys = 512;

// The run's complete keyed history, fed to verify::LinearizabilityChecker
// after the simulation: the demo's availability claim is only meaningful if
// every answer across the crash was also linearizable.
struct RecordedHistory {
  std::vector<verify::HistoryOp> ops;
  uint64_t next_value = 1;  // Globally unique write values (8-byte prefix).
};

std::vector<uint8_t> EncodeValue(uint64_t v) {
  std::vector<uint8_t> bytes(64, 0);
  std::memcpy(bytes.data(), &v, 8);
  return bytes;
}

uint64_t DecodeValue(const std::vector<uint8_t>& bytes) {
  uint64_t v = 0;
  if (bytes.size() >= 8) {
    std::memcpy(&v, bytes.data(), 8);
  }
  return v;
}

sim::Task<void> Phase(sim::Simulator* sim, kv::KvSession* kv, const char* label, int rounds,
                      bool updates_too, RecordedHistory* hist) {
  stats::LatencyHistogram gets;
  stats::LatencyHistogram upds;
  uint64_t failures = 0;
  for (int round = 0; round < rounds; ++round) {
    for (uint64_t key = 0; key < kKeys; key += 7) {
      sim::Time t0 = sim->Now();
      kv::KvResult g = co_await kv->Get(key);
      if (g.status == kv::KvStatus::kOk) {
        gets.Record(sim->Now() - t0);
        hist->ops.push_back({/*is_write=*/false, DecodeValue(g.value), t0, sim->Now(),
                             /*pending=*/false, key});
      } else {
        ++failures;  // Unavailable read: no constraint recorded.
      }
      if (updates_too && key % 21 == 0) {
        const uint64_t v = hist->next_value++;
        t0 = sim->Now();
        kv::KvResult u = co_await kv->Update(key, EncodeValue(v));
        hist->ops.push_back({/*is_write=*/true, v, t0, sim->Now(),
                             /*pending=*/!u.ok(), key});
        if (u.status == kv::KvStatus::kOk) {
          upds.Record(sim->Now() - t0);
        } else {
          ++failures;
        }
      }
    }
  }
  std::printf("%-38s gets p50=%6.2fus p99=%7.2fus", label, gets.PercentileUs(50),
              gets.PercentileUs(99));
  if (upds.count() > 0) {
    std::printf("   updates p50=%6.2fus p99=%7.2fus", upds.PercentileUs(50),
                upds.PercentileUs(99));
  }
  std::printf("   failed ops: %llu\n", static_cast<unsigned long long>(failures));
}

sim::Task<void> Run(sim::Simulator* sim, kv::KvSession* kv,
                    membership::MembershipService* membership, RecordedHistory* hist) {
  for (uint64_t key = 0; key < kKeys; ++key) {
    const uint64_t v = hist->next_value++;
    const sim::Time t0 = sim->Now();
    kv::KvResult r = co_await kv->Insert(key, EncodeValue(v));
    hist->ops.push_back({/*is_write=*/true, v, t0, sim->Now(), /*pending=*/!r.ok(), key});
  }
  co_await sim->Delay(sim::kMillisecond);

  std::printf("act 1: steady state\n");
  co_await Phase(sim, kv, "  before crash", 3, true, hist);

  std::printf("act 2: node 1 crashes NOW (clients don't know yet)\n");
  membership->CrashNode(1);
  co_await Phase(sim, kv, "  crash undetected (ops time out)", 1, true, hist);

  std::printf("act 3: membership notifies clients (detection delay elapsed)\n");
  co_await sim->Delay(membership->detection_delay());
  co_await Phase(sim, kv, "  detected (chases for lost in-place)", 2, false, hist);

  std::printf("act 4: updates rebuild in-place data on survivors\n");
  co_await Phase(sim, kv, "  repairing (updates running)", 3, true, hist);
  co_await Phase(sim, kv, "  repaired", 3, false, hist);
  std::printf("=> zero unavailability throughout.\n");
}

}  // namespace

int main() {
  deploy::DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.fabric.node_capacity_bytes = 128ull << 20;
  cfg.proto.inplace_copies = 2;  // Provision a standby in-place replica.
  cfg.num_clients = 1;
  deploy::Deployment d(cfg);

  RecordedHistory hist;
  sim::Spawn(Run(&d.sim(), &d.session(0), &d.membership(), &hist));
  d.sim().Run();

  // The consistency half of the failover story: the whole run — thousands of
  // ops spanning the crash, detection and repair — is one keyed history the
  // unbounded checker decomposes per key and verifies.
  verify::CheckResult report = verify::LinearizabilityChecker::CheckReport(hist.ops);
  std::printf("linearizability: %zu ops across %llu keys -> %s\n", hist.ops.size(),
              static_cast<unsigned long long>(report.stats.cells),
              report.linearizable ? "OK" : "VIOLATION");
  if (!report.linearizable) {
    std::printf("%s\n", report.Describe(hist.ops).c_str());
    return 1;
  }
  return 0;
}
