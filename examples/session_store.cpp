// Microservice session store: the paper's "microsecond-scale microservices"
// scenario (§1).
//
// A fleet of stateless API gateways keeps user-session state (auth token,
// cart, last activity) in disaggregated memory instead of a local cache. A
// user's requests are routed to a home gateway (consistent hashing), which
// mutates the session; any OTHER gateway may serve read-only traffic for
// that user (dashboards, fraud checks). SWARM's linearizability guarantees
// a reader never observes the session going backwards, even across gateway
// handoffs; SWARM-KV's 1-RTT gets/updates keep the whole exchange in the
// microsecond range. Sessions are created on login (insert), mutated on
// every request (update), and destroyed on logout (delete).
//
// Note the demo deliberately does NOT do concurrent read-modify-write from
// several gateways to one key: SWARM replicates a register, so blind
// concurrent RMW would be last-writer-wins (use one writer per key, as
// here, or layer a lock/transaction protocol on top).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/deploy/deployment.h"
#include "src/stats/histogram.h"

namespace {

using namespace swarm;

constexpr int kGateways = 4;
constexpr int kUsers = 64;
constexpr int kRequestsPerGateway = 2000;

struct Session {
  uint64_t session_id;  // Unique per login (incarnation).
  uint64_t request_count;
  uint64_t cart_items;
  uint64_t last_activity_us;
};

std::vector<uint8_t> Pack(const Session& s) {
  std::vector<uint8_t> b(sizeof(Session));
  std::memcpy(b.data(), &s, sizeof(Session));
  return b;
}

Session Unpack(const std::vector<uint8_t>& b) {
  Session s{};
  if (b.size() == sizeof(Session)) {
    std::memcpy(&s, b.data(), sizeof(Session));
  }
  return s;
}

struct Stats {
  stats::LatencyHistogram request_latency;
  uint64_t logins = 0;
  uint64_t requests = 0;
  uint64_t logouts = 0;
  uint64_t lost_updates = 0;  // Request counts observed going backwards.
};

// One gateway: mutates sessions of the users it owns (user % kGateways ==
// id), reads any user's session. `watermark` tracks the highest
// request_count this gateway has OBSERVED per user; linearizability plus
// this gateway's sequential program order guarantee it never regresses.
sim::Task<void> Gateway(sim::Simulator* sim, kv::KvSession* kv, int id, uint64_t seed,
                        Stats* stats) {
  sim::Rng rng(seed);
  std::vector<uint64_t> watermark(kUsers, 0);
  std::vector<uint64_t> session_seen(kUsers, 0);
  for (int i = 0; i < kRequestsPerGateway; ++i) {
    co_await sim->Delay(static_cast<sim::Time>(rng.Below(4 * sim::kMicrosecond)));
    const uint64_t user = rng.Below(kUsers);
    const bool owner = static_cast<int>(user % kGateways) == id;
    const sim::Time t0 = sim->Now();

    kv::KvResult got = co_await kv->Get(user);
    if (got.status == kv::KvStatus::kNotFound) {
      watermark[user] = 0;  // Logged out (or never logged in).
      if (owner) {
        // Login: create the session.
        Session fresh{static_cast<uint64_t>(sim->Now()) * kGateways + static_cast<uint64_t>(id),
                      1, 0, static_cast<uint64_t>(sim->Now() / 1000)};
        kv::KvResult ins = co_await kv->Insert(user, Pack(fresh));
        if (ins.ok()) {
          ++stats->logins;
          watermark[user] = 1;
        }
      }
      stats->request_latency.Record(sim->Now() - t0);
      continue;
    }
    if (got.status != kv::KvStatus::kOk) {
      continue;
    }

    Session s = Unpack(got.value);
    if (s.session_id != session_seen[user]) {
      // New login incarnation since we last looked: reset the watermark.
      session_seen[user] = s.session_id;
      watermark[user] = 0;
    }
    if (s.request_count < watermark[user]) {
      ++stats->lost_updates;  // Monotonic-read violation: a consistency bug.
    }
    watermark[user] = s.request_count;

    if (owner) {
      if (rng.Chance(0.03)) {
        // Logout: destroy the session.
        kv::KvResult del = co_await kv->Remove(user);
        if (del.status == kv::KvStatus::kOk) {
          ++stats->logouts;
          watermark[user] = 0;
        }
      } else {
        // Regular request: mutate the session (single writer per user).
        s.request_count += 1;
        s.cart_items += rng.Below(3);
        s.last_activity_us = static_cast<uint64_t>(sim->Now() / 1000);
        kv::KvResult upd = co_await kv->Update(user, Pack(s));
        if (upd.status == kv::KvStatus::kOk) {
          watermark[user] = s.request_count;
          ++stats->requests;
        }
      }
    }
    stats->request_latency.Record(sim->Now() - t0);
  }
}

}  // namespace

int main() {
  // One client process per gateway; the deployment gives each its own
  // metadata buffer and timestamp lock per object.
  deploy::DeploymentConfig cfg;
  cfg.seed = 7;
  cfg.fabric.node_capacity_bytes = 256ull << 20;
  cfg.num_clients = kGateways;
  deploy::Deployment d(cfg);

  Stats stats;
  for (int g = 0; g < kGateways; ++g) {
    sim::Spawn(Gateway(&d.sim(), &d.session(g), g, 1000 + static_cast<uint64_t>(g), &stats));
  }
  d.sim().Run();

  std::printf("gateways: %d, users: %d\n", kGateways, kUsers);
  std::printf("logins=%" PRIu64 "  requests=%" PRIu64 "  logouts=%" PRIu64 "\n", stats.logins,
              stats.requests, stats.logouts);
  std::printf("end-to-end request latency: p50=%.2fus p99=%.2fus\n",
              stats.request_latency.PercentileUs(50), stats.request_latency.PercentileUs(99));
  std::printf("monotonic-read violations: %" PRIu64 " (must be 0)\n", stats.lost_updates);
  return stats.lost_updates == 0 ? 0 : 1;
}
