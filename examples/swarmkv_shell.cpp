// swarmkv_shell: a scriptable command shell over a simulated SWARM-KV
// deployment — the "kick the tires" tool for the library.
//
// Reads commands from stdin (or runs a built-in demo script when stdin is a
// terminal with no input), executes them in virtual time, and prints each
// operation's outcome with its roundtrip count and virtual latency.
//
// Commands:
//   put <key> <value...>      insert-or-update
//   get <key>
//   del <key>
//   crash <node> | recover <node>
//   tick <microseconds>       advance virtual time
//   stats                     fabric + cache counters
//   # comment
//
// Example:
//   printf 'put 1 hello\nget 1\ncrash 0\nget 1\n' | ./build/examples/swarmkv_shell

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/deploy/deployment.h"

namespace {

using namespace swarm;

const char* StatusName(kv::KvStatus s) {
  switch (s) {
    case kv::KvStatus::kOk:
      return "OK";
    case kv::KvStatus::kExists:
      return "OK (existed; updated)";
    case kv::KvStatus::kNotFound:
      return "NOT_FOUND";
    case kv::KvStatus::kUnavailable:
      return "UNAVAILABLE";
  }
  return "?";
}

struct Shell {
  deploy::Deployment d{Config()};
  sim::Simulator& sim = d.sim();
  membership::MembershipService& membership = d.membership();
  kv::KvSession* kv = &d.session(0);

  // One SWARM-KV client on 4 memory nodes.
  static deploy::DeploymentConfig Config() {
    deploy::DeploymentConfig cfg;
    cfg.fabric.node_capacity_bytes = 64ull << 20;
    cfg.proto.max_value = 256;
    cfg.proto.inplace_copies = 2;
    cfg.num_clients = 1;
    return cfg;
  }

  // Runs one blocking KV op to completion in virtual time.
  template <typename Fn>
  kv::KvResult RunOp(Fn&& make_task) {
    kv::KvResult result;
    bool done = false;
    auto driver = [](kv::KvResult* out, bool* done2, sim::Task<kv::KvResult> t) -> sim::Task<void> {
      *out = co_await std::move(t);
      *done2 = true;
    };
    sim::Spawn(driver(&result, &done, make_task()));
    sim.Run();
    (void)done;
    return result;
  }

  void Execute(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') {
      return;
    }
    if (cmd == "put" || cmd == "get" || cmd == "del") {
      uint64_t key = 0;
      in >> key;
      const sim::Time t0 = sim.Now();
      kv::KvResult r;
      if (cmd == "put") {
        std::string rest;
        std::getline(in, rest);
        if (!rest.empty() && rest[0] == ' ') {
          rest.erase(0, 1);
        }
        std::vector<uint8_t> value(rest.begin(), rest.end());
        r = RunOp([&] { return kv->Insert(key, value); });
        std::printf("put %llu -> %s  [%d RT, %.2fus]\n", static_cast<unsigned long long>(key),
                    StatusName(r.status), r.rtts, sim::ToMicros(sim.Now() - t0));
      } else if (cmd == "get") {
        r = RunOp([&] { return kv->Get(key); });
        std::printf("get %llu -> %s%s%.*s%s  [%d RT%s, %.2fus]\n",
                    static_cast<unsigned long long>(key), StatusName(r.status),
                    r.status == kv::KvStatus::kOk ? " \"" : "",
                    static_cast<int>(r.value.size()), reinterpret_cast<const char*>(r.value.data()),
                    r.status == kv::KvStatus::kOk ? "\"" : "", r.rtts,
                    r.used_inplace ? ", in-place" : "", sim::ToMicros(sim.Now() - t0));
      } else {
        r = RunOp([&] { return kv->Remove(key); });
        std::printf("del %llu -> %s  [%d RT, %.2fus]\n", static_cast<unsigned long long>(key),
                    StatusName(r.status), r.rtts, sim::ToMicros(sim.Now() - t0));
      }
    } else if (cmd == "crash") {
      int node = 0;
      in >> node;
      membership.CrashNode(node);
      std::printf("crash node %d (membership will notify in %.0fus)\n", node,
                  sim::ToMicros(membership.detection_delay()));
    } else if (cmd == "recover") {
      int node = 0;
      in >> node;
      membership.RecoverNode(node);
      std::printf("recover node %d (contents lost)\n", node);
    } else if (cmd == "tick") {
      int64_t us = 0;
      in >> us;
      sim.RunUntil(sim.Now() + us * sim::kMicrosecond);
      std::printf("t=%.1fus\n", sim::ToMicros(sim.Now()));
    } else if (cmd == "stats") {
      const fabric::FabricStats& st = d.fabric().stats();
      std::printf("t=%.1fus  verbs=%llu (r=%llu w=%llu cas=%llu)  io=%llu B  "
                  "disagg=%llu B  cached=%zu keys\n",
                  sim::ToMicros(sim.Now()), static_cast<unsigned long long>(st.ops_issued),
                  static_cast<unsigned long long>(st.reads),
                  static_cast<unsigned long long>(st.writes),
                  static_cast<unsigned long long>(st.casses),
                  static_cast<unsigned long long>(st.total_io()),
                  static_cast<unsigned long long>(d.fabric().TotalAllocated()),
                  d.client(0).cache->size());
    } else {
      std::printf("unknown command: %s\n", cmd.c_str());
    }
  }
};

constexpr const char* kDemoScript = R"(# built-in demo
put 1 the quick brown fox
get 1
put 1 jumps over the lazy dog
get 1
tick 25
get 1
crash 0
tick 60
get 1
del 1
get 1
stats
)";

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  std::printf("swarmkv_shell — SWARM-KV over a simulated 4-node disaggregated fabric\n");
  std::istringstream demo(kDemoScript);
  const bool use_demo = argc > 1 && std::string(argv[1]) == "--demo";
  std::istream& in = use_demo ? static_cast<std::istream&>(demo) : std::cin;
  if (use_demo) {
    std::printf("(running built-in demo script)\n");
  }
  std::string line;
  while (std::getline(in, line)) {
    shell.Execute(line);
  }
  return 0;
}
