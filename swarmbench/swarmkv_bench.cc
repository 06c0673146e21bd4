// SWARM-KV benchmark: one workload per process, closed loop, one outstanding
// op per client, every op's output checked.
//
//   swarmkv_bench --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--trace-out FILE] [--ref-host-kops X] [--scale F]
//                 [--lincheck N]
//
// A run sets the deployment up at least three times (build, load, prewarm;
// the last one is kept), runs a warm-up, then a measured window of a fixed op
// count in ten slices, then further slices until --seconds of host time have
// passed since the window began. Virtual-time metrics and memory come from
// the window only, so they depend on the seed alone; host-time metrics are
// medians over set-ups and slices. The last stdout line is one JSON object
// with every metric; run_benchmark.py selects what BENCHMARK.json declares.
//
// --trace 1 adds what an untraced run must not pay for: Chrome trace spans
// around set-up steps, the first 20k measured KV calls and the repair; a
// zero-delay link hook counting fabric messages per node; and layer probes
// (probes.h). Given the untraced run's --ref-host-kops, it reports each
// layer's share of host time per op and the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/verify/lincheck.h"
#include "src/ycsb/workload.h"
#include "swarmbench/cluster.h"
#include "swarmbench/output_check.h"
#include "swarmbench/probes.h"
#include "swarmbench/trace.h"

namespace swarm::kvbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double HostSecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double HostUs(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_start).count();
}

// Workloads. Every one runs SWARM-KV on 4 memory nodes with 3 replicas and
// 64 B values, and mixes in lifecycle ops on fresh keys, so every op type is
// measured everywhere. Why each exists is in README.md.
struct WorkloadSpec {
  const char* name;
  uint64_t keys;          // Loaded before measuring.
  uint64_t access_keys;   // Gets/updates draw from keys [0, access_keys).
  int clients;
  // Share of ops that insert a fresh key or remove the worker's oldest live
  // one: a worker inserts while it holds fewer than kLiveFreshKeys, else
  // removes, so once warm the two alternate and the live set stays fixed.
  double lifecycle_share;
  double get_fraction;    // Gets among the remaining ops; the rest update.
  bool zipfian;           // Zipf(.99) over the loaded keys, else uniform.
  double cache_share;     // Cache entries per client / keys; 0 = unbounded, prewarmed.
  int inplace_copies;
  bool crash_and_repair;  // Crash node 0 in the window and repair it.
  uint64_t warmup_ops;
  uint64_t window_ops;
};

// Lifecycle shares give every window >= 25k inserts and >= 25k removes, so
// each p99 has >= 250 samples beyond it.
constexpr WorkloadSpec kWorkloads[] = {
    {"ycsb_b_cached", 100000, 100000, 4, 0.032, 0.95, true, 0.0, 1, false, 200000, 1600000},
    // Every get and update hits key 0. The other loaded keys stay idle; they
    // give set-up real work, which a one-key load (page faults only) lacks.
    {"contended_1key", 20000, 1, 16, 0.065, 0.5, false, 0.0, 1, false, 100000, 800000},
    // 16.4% of the keys fit in a client's cache: Fig. 6's 5 MiB of 32 B
    // entries over 1M keys, at a fifth of the keys.
    {"large_churn", 200000, 200000, 4, 0.052, 0.90 / 0.95, true, 0.164, 1, false, 400000,
     1000000},
    {"failover_repair", 25000, 25000, 4, 0.045, 0.5, true, 0.0, 2, true, 200000, 1200000},
};

constexpr size_t kLiveFreshKeys = 64;  // Per worker.

constexpr int kSlices = 10;
// Set-up repeats at least kMinSetups times, and until kMinSetupSeconds have
// passed (so a millisecond set-up still gets a steady median).
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kMinSetupSeconds = 1.0;
constexpr uint64_t kTracedOps = 20000;
constexpr size_t kMaxProbeLookups = size_t{1} << 20;
// The crash lands after this share of the window's ops; the repair starts
// kRepairDelay later on the coordinator.
constexpr double kCrashAt = 0.2;
constexpr sim::Time kRepairDelay = 100 * sim::kMicrosecond;
constexpr sim::Time kPostCrashWindow = 2 * sim::kMillisecond;
// Worker w's n-th fresh key is kFreshBase + w * 2^32 + n: above every
// loaded key, never shared between workers.
constexpr uint64_t kFreshBase = 1ull << 40;

enum OpKind : uint8_t { kGet = 0, kUpdate, kInsert, kRemove, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"get", "update", "insert", "remove"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double ref_host_kops = 0;
  double scale = 1.0;
  uint64_t lincheck_ops = 0;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "swarmkv_bench: %s\n", msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + a).c_str());
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--ref-host-kops") {
      o.ref_host_kops = std::strtod(v, nullptr);
    } else if (a == "--scale") {
      o.scale = std::strtod(v, nullptr);
    } else if (a == "--lincheck") {
      o.lincheck_ops = std::strtoull(v, nullptr, 10);
    } else {
      Usage(("unknown flag " + a).c_str());
    }
  }
  if (!(o.scale > 0 && o.scale <= 1)) {
    Usage("--scale must be in (0, 1]");
  }
  return o;
}

// Quantile of whole-nanosecond samples, interpolated inside the run of tied
// values at the quantile's rank (a value held by n samples is spread evenly
// over [v - 0.5, v + 0.5)). Millions of virtual latencies share a few hundred
// distinct values, so the plain order statistic would read the same on every
// seed. Reorders `s`.
double QuantileUs(std::vector<uint32_t>& s, double q) {
  if (s.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(s.size());
  const size_t k = std::min(static_cast<size_t>(rank), s.size() - 1);
  std::nth_element(s.begin(), s.begin() + static_cast<long>(k), s.end());
  const uint32_t v = s[k];
  size_t below = 0;
  size_t equal = 0;
  for (uint32_t x : s) {
    below += x < v ? 1 : 0;
    equal += x == v ? 1 : 0;
  }
  const double frac =
      std::clamp((rank - static_cast<double>(below)) / static_cast<double>(equal), 0.0, 1.0);
  return (static_cast<double>(v) - 0.5 + frac) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit, bool virtual_time) {
    entries_.push_back({name, value, unit, virtual_time});
  }
  void Print(std::FILE* f, bool correct, uint64_t attempted, uint64_t failed) const {
    std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                 correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"virtual\": %s}",
                   i == 0 ? "" : ", ", e.name.c_str(), e.value, e.unit,
                   e.virtual_time ? "true" : "false");
    }
    std::fprintf(f, "}}\n");
  }
  void Summarize(std::FILE* f) const {
    for (const Entry& e : entries_) {
      std::fprintf(f, "  %-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    bool virtual_time;
  };
  std::vector<Entry> entries_;
};

// Per-layer counters, read from the layers' public stats before and after
// the measured window.
struct Counters {
  uint64_t events = 0;
  uint64_t coroutine_events = 0;
  fabric::FabricStats fabric;
  index::CacheStats cache;
  index::IndexStats index;
  uint64_t clock_resyncs = 0;
  sim::Time client_cpu_busy = 0;
  uint64_t pool_refills = 0;
  uint64_t epoch = 0;
  uint64_t live_bytes = 0;
  uint64_t high_water_bytes = 0;
  uint64_t stale_landings = 0;
  uint64_t mapped_keys = 0;
  long peak_rss_kb = 0;  // Of the whole process so far.

  static Counters Take(Cluster& c) {
    Counters k;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    k.peak_rss_kb = ru.ru_maxrss;
    for (int n = 0; n < c.fabric().num_nodes(); ++n) {
      const fabric::MemoryNode& node = c.fabric().node(n);
      k.live_bytes += node.live_bytes();
      k.high_water_bytes += node.bytes_allocated();
      k.stale_landings += node.stale_landings();
    }
    k.mapped_keys = c.index().size();
    k.events = c.sim().events_processed();
    k.coroutine_events = c.sim().coroutine_events();
    k.fabric = c.fabric().stats();
    k.index = c.index().stats();
    for (int i = 0; i < c.num_clients(); ++i) {
      const index::CacheStats& s = c.client(i).cache->stats();
      k.cache.hits += s.hits;
      k.cache.misses += s.misses;
      k.cache.evictions += s.evictions;
      k.cache.invalidations += s.invalidations;
      k.clock_resyncs += c.client(i).clock->resyncs();
      k.client_cpu_busy += c.client(i).cpu->busy_ns();
    }
    k.pool_refills = sim::FramePool::stats().slab_refills;
    k.epoch = c.membership().epoch();
    return k;
  }
  uint64_t index_rpcs() const { return index.lookups + index.inserts + index.removes; }
};

struct KindSamples {
  std::vector<uint32_t> latency_ns;
  uint64_t rtts = 0;
  uint64_t one_rtt = 0;
  uint64_t fast_path = 0;
  uint64_t inplace = 0;
};

struct WorkerState {
  ycsb::Workload gen;
  sim::Rng lifecycle;
  std::deque<uint64_t> own_keys;  // This worker's live fresh keys, oldest first.
  uint64_t next_fresh = 0;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Options& opt) : spec_(spec), opt_(opt) {}

  int Run();

 private:
  ClusterConfig MakeClusterConfig() const;
  ycsb::WorkloadConfig GeneratorConfig() const;  // The get/update stream.
  void SetUp();
  sim::Task<void> LoadRange(int c, uint64_t first, uint64_t last);
  // Runs `ops` more ops to completion; only the window is `measured`.
  void RunPhase(bool measured, uint64_t ops);
  sim::Task<void> WorkerLoop(int w);
  void Draw(int w, OpKind* kind, uint64_t* key);
  void OnWindowIssue(uint64_t idx);
  void OnWindowComplete(int w, OpKind kind, uint64_t key, uint64_t idx, sim::Time start,
                        const kv::KvResult& r, uint64_t serial, bool ok, bool in_history);
  bool EnterHistory(OpKind kind);
  sim::Task<void> CrashAndRepair();
  void Fail(const char* fmt, ...);
  void Report(MetricSet* m, const Counters& before, const Counters& after);
  void RunProbes(MetricSet* m, const Counters& before, const Counters& after);
  bool CheckLinearizable();

  WorkloadSpec spec_;
  Options opt_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<OutputChecker> checker_;
  std::vector<WorkerState> workers_;
  TraceRecorder trace_;

  // Set-up timings, one per repetition.
  std::vector<double> build_s_, load_s_, prewarm_s_, setup_s_;

  // Phase state.
  bool measured_ = false;
  uint64_t issued_ = 0;
  uint64_t phase_end_ = 0;
  int active_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  // Measured window.
  uint64_t window_begin_ = 0;
  uint64_t slice_ops_ = 0;
  sim::Time first_issue_ = 0;
  sim::Time last_complete_ = 0;
  std::vector<Clock::time_point> slice_marks_;
  std::vector<double> slice_kops_;
  std::array<KindSamples, kNumKinds> kinds_;
  std::vector<uint32_t> get_hit_ns_, get_miss_ns_;
  uint64_t unavailable_ = 0;
  uint64_t ambiguous_ = 0;
  std::vector<uint64_t> lookup_keys_;  // Traced: keys whose location a window op looked up.
  std::vector<verify::HistoryOp> history_;  // --lincheck ops, in completion order.
  uint64_t history_left_ = 0;
  int history_reads_open_ = 0;

  // Crash and repair (failover_repair).
  bool crashed_ = false;
  bool readmitted_ = false;
  sim::Time crash_at_ = 0;
  sim::Time repair_start_ = 0;
  sim::Time repair_end_ = 0;
  sim::Time coordinator_busy_ = 0;
  uint64_t slots_walked_ = 0;
  uint64_t slots_repaired_ = 0;
  std::vector<uint32_t> post_crash_ns_;
  std::vector<uint32_t> repair_update_ns_;

  // Traced: fabric messages per memory node (both legs), counted by the
  // link hook throughout and snapshotted at the window's end.
  std::vector<uint64_t> node_msgs_;
  std::vector<uint64_t> window_node_msgs_;
};

ycsb::WorkloadConfig Bench::GeneratorConfig() const {
  ycsb::WorkloadConfig gen;
  gen.num_keys = spec_.access_keys;
  gen.get_fraction = spec_.get_fraction;
  gen.zipfian = spec_.zipfian;
  gen.value_size = kValueBytes;
  return gen;
}

ClusterConfig Bench::MakeClusterConfig() const {
  ClusterConfig cfg;
  cfg.seed = opt_.seed;
  cfg.clients = spec_.clients;
  cfg.cache_entries = static_cast<size_t>(spec_.cache_share * static_cast<double>(spec_.keys));
  cfg.inplace_copies = spec_.inplace_copies;
  cfg.repair_coordinator = spec_.crash_and_repair;
  return cfg;
}

void Bench::Fail(const char* fmt, ...) {
  ++failed_;
  if (failed_ > 10) {
    return;
  }
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "FAILED: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

sim::Task<void> Bench::LoadRange(int c, uint64_t first, uint64_t last) {
  kv::KvSession& kv = *cluster_->client(c).session;
  uint8_t value[kValueBytes];
  for (uint64_t key = first; key < last; ++key) {
    uint32_t done_at_issue = 0;
    const uint64_t serial = checker_->BeginWrite(key, &done_at_issue);
    EncodeValue(key, serial, value);
    const kv::KvResult r = co_await kv.Insert(key, std::span<const uint8_t>(value, kValueBytes));
    ++attempted_;
    if (r.status == kv::KvStatus::kOk) {
      checker_->EndWrite(key, serial, done_at_issue);
    } else {
      Fail("load insert of key %llu returned status %d", static_cast<unsigned long long>(key),
           static_cast<int>(r.status));
    }
  }
}

void Bench::SetUp() {
  double total_s = 0;
  for (int rep = 0; rep < kMinSetups || (total_s < kMinSetupSeconds && rep < kMaxSetups);
       ++rep) {
    // Tear the previous deployment down first: one lives at a time.
    cluster_.reset();
    checker_.reset();
    attempted_ = 0;
    failed_ = 0;
    const Clock::time_point t0 = Clock::now();
    cluster_ = std::make_unique<Cluster>(MakeClusterConfig());
    const Clock::time_point t1 = Clock::now();
    checker_ = std::make_unique<OutputChecker>(spec_.keys);
    const int n = spec_.clients;
    const uint64_t share = (spec_.keys + static_cast<uint64_t>(n) - 1) / static_cast<uint64_t>(n);
    for (int c = 0; c < n; ++c) {
      const uint64_t first = static_cast<uint64_t>(c) * share;
      const uint64_t last = std::min(spec_.keys, first + share);
      if (first < last) {
        sim::Spawn(LoadRange(c, first, last));
      }
    }
    cluster_->sim().Run();
    const Clock::time_point t2 = Clock::now();
    cluster_->PrewarmCaches(spec_.keys);
    const Clock::time_point t3 = Clock::now();
    build_s_.push_back(std::chrono::duration<double>(t1 - t0).count());
    load_s_.push_back(std::chrono::duration<double>(t2 - t1).count());
    prewarm_s_.push_back(std::chrono::duration<double>(t3 - t2).count());
    setup_s_.push_back(std::chrono::duration<double>(t3 - t0).count());
    total_s += setup_s_.back();
    if (opt_.trace) {
      const int tid = rep;
      trace_.Add("setup", "run", TraceRecorder::kHostPid, tid, HostUs(t0), HostUs(t3) - HostUs(t0));
      trace_.Add("build", "setup", TraceRecorder::kHostPid, tid, HostUs(t0), HostUs(t1) - HostUs(t0));
      trace_.Add("load", "setup", TraceRecorder::kHostPid, tid, HostUs(t1), HostUs(t2) - HostUs(t1));
      trace_.Add("prewarm", "setup", TraceRecorder::kHostPid, tid, HostUs(t2),
                 HostUs(t3) - HostUs(t2));
    }
  }
  workers_.clear();
  for (int w = 0; w < spec_.clients; ++w) {
    const auto wid = static_cast<uint64_t>(w);
    workers_.push_back(WorkerState{ycsb::Workload(GeneratorConfig(), opt_.seed * 7919 + wid),
                                   sim::Rng(hash::Mix64(opt_.seed, 1000 + wid)), {}, 0});
  }
}

void Bench::Draw(int w, OpKind* kind, uint64_t* key) {
  WorkerState& ws = workers_[static_cast<size_t>(w)];
  if (ws.lifecycle.Chance(spec_.lifecycle_share)) {
    if (ws.own_keys.size() >= kLiveFreshKeys) {
      *kind = kRemove;
      *key = ws.own_keys.front();
      ws.own_keys.pop_front();
      return;
    }
    *kind = kInsert;
    *key = kFreshBase + (static_cast<uint64_t>(w) << 32) + ws.next_fresh++;
    return;
  }
  const ycsb::Workload::Op op = ws.gen.Next();
  *kind = op.type == ycsb::OpType::kGet ? kGet : kUpdate;
  *key = op.key;
}

void Bench::OnWindowIssue(uint64_t idx) {
  const uint64_t rel = idx - window_begin_;
  if (rel > 0 && rel % slice_ops_ == 0) {
    slice_marks_.push_back(Clock::now());
  }
  if (spec_.crash_and_repair && !crashed_ &&
      rel == static_cast<uint64_t>(kCrashAt * static_cast<double>(spec_.window_ops))) {
    crashed_ = true;
    sim::Spawn(CrashAndRepair());
  }
}

sim::Task<void> Bench::CrashAndRepair() {
  Cluster& c = *cluster_;
  crash_at_ = c.sim().Now();
  c.membership().CrashNode(0);
  co_await c.sim().Delay(kRepairDelay);
  repair_start_ = c.sim().Now();
  const sim::Time busy0 = c.coordinator_cpu()->busy_ns();
  const uint64_t walked0 = c.repair()->slots_walked();
  const uint64_t repaired0 = c.repair()->slots_repaired();
  readmitted_ = co_await c.repair()->RecoverAndRepair(0);
  repair_end_ = c.sim().Now();
  coordinator_busy_ = c.coordinator_cpu()->busy_ns() - busy0;
  slots_walked_ = c.repair()->slots_walked() - walked0;
  slots_repaired_ = c.repair()->slots_repaired() - repaired0;
  if (opt_.trace) {
    trace_.Add("RecoverAndRepair", "window", TraceRecorder::kVirtualPid, spec_.clients,
               sim::ToMicros(repair_start_), sim::ToMicros(repair_end_ - repair_start_));
  }
}

void Bench::OnWindowComplete(int w, OpKind kind, uint64_t key, uint64_t idx, sim::Time start,
                             const kv::KvResult& r, uint64_t serial, bool ok, bool in_history) {
  const sim::Time now = cluster_->sim().Now();
  const auto lat = static_cast<uint32_t>(now - start);
  last_complete_ = std::max(last_complete_, now);
  KindSamples& k = kinds_[kind];
  k.latency_ns.push_back(lat);
  k.rtts += static_cast<uint64_t>(r.rtts);
  k.one_rtt += r.rtts == 1 ? 1 : 0;
  k.fast_path += r.fast_path ? 1 : 0;
  k.inplace += r.used_inplace ? 1 : 0;
  if (kind == kGet) {
    (r.cache_hit ? get_hit_ns_ : get_miss_ns_).push_back(lat);
  }
  unavailable_ += r.status == kv::KvStatus::kUnavailable ? 1 : 0;
  ambiguous_ += r.ambiguous ? 1 : 0;
  if (crashed_ && now >= crash_at_ && now < crash_at_ + kPostCrashWindow) {
    post_crash_ns_.push_back(lat);
  }
  if (kind == kUpdate && repair_start_ != 0 && repair_end_ == 0) {
    repair_update_ns_.push_back(lat);
  }
  const uint64_t rel = idx - window_begin_;
  if (opt_.trace && rel < kTracedOps) {
    trace_.Add(kKindNames[kind], "window", TraceRecorder::kVirtualPid, w, sim::ToMicros(start),
               sim::ToMicros(now - start), idx, key);
  }
  if (opt_.trace && (kind == kGet || kind == kUpdate) && lookup_keys_.size() < kMaxProbeLookups) {
    lookup_keys_.push_back(key);
  }
  if (in_history) {
    history_.push_back({kind == kUpdate, serial, start, now, /*pending=*/!ok, key});
    history_reads_open_ -= kind == kGet ? 1 : 0;
  }
}

bool Bench::EnterHistory(OpKind kind) {
  if (kind != kGet && kind != kUpdate) {
    return false;
  }
  // The first --lincheck gets/updates, plus every later update issued while
  // one of their gets is still open: exactly the writes those gets can
  // return.
  bool enter = false;
  if (history_left_ > 0) {
    --history_left_;
    enter = true;
  } else {
    enter = kind == kUpdate && history_reads_open_ > 0;
  }
  history_reads_open_ += enter && kind == kGet ? 1 : 0;
  return enter;
}

sim::Task<void> Bench::WorkerLoop(int w) {
  kv::KvSession& kv = *cluster_->client(w).session;
  sim::Simulator& s = cluster_->sim();
  uint8_t value[kValueBytes];
  while (issued_ < phase_end_) {
    const uint64_t idx = issued_++;
    const bool measured = measured_;
    if (measured) {
      OnWindowIssue(idx);
    }
    OpKind kind = kGet;
    uint64_t key = 0;
    Draw(w, &kind, &key);
    const bool in_history = measured && EnterHistory(kind);
    const sim::Time start = s.Now();
    kv::KvResult r;
    bool ok = false;
    uint64_t serial = 0;  // Written serial (updates) or returned serial (gets).
    switch (kind) {
      case kGet: {
        const uint32_t floor = checker_->BeginRead(key);
        r = co_await kv.Get(key);
        ok = r.status == kv::KvStatus::kOk && checker_->EndRead(key, floor, r.value, &serial);
        if (!ok) {
          Fail("get of key %llu returned status %d, serial %llu (floor %u)",
               static_cast<unsigned long long>(key), static_cast<int>(r.status),
               static_cast<unsigned long long>(serial), floor);
        }
        break;
      }
      case kUpdate: {
        uint32_t done_at_issue = 0;
        serial = checker_->BeginWrite(key, &done_at_issue);
        EncodeValue(key, serial, value);
        r = co_await kv.Update(key, std::span<const uint8_t>(value, kValueBytes));
        ok = r.status == kv::KvStatus::kOk;
        if (ok) {
          checker_->EndWrite(key, serial, done_at_issue);
        } else {
          Fail("update of key %llu returned status %d", static_cast<unsigned long long>(key),
               static_cast<int>(r.status));
        }
        break;
      }
      case kInsert: {
        EncodeValue(key, 0, value);
        r = co_await kv.Insert(key, std::span<const uint8_t>(value, kValueBytes));
        ok = r.status == kv::KvStatus::kOk;
        if (ok) {
          workers_[static_cast<size_t>(w)].own_keys.push_back(key);
        } else {
          Fail("insert of fresh key %llu returned status %d",
               static_cast<unsigned long long>(key), static_cast<int>(r.status));
        }
        break;
      }
      case kRemove: {
        r = co_await kv.Remove(key);
        ok = r.status == kv::KvStatus::kOk;
        if (!ok) {
          Fail("remove of key %llu returned status %d", static_cast<unsigned long long>(key),
               static_cast<int>(r.status));
        }
        break;
      }
      case kNumKinds:
        break;
    }
    ++attempted_;
    if (measured) {
      OnWindowComplete(w, kind, key, idx, start, r, serial, ok, in_history);
    }
  }
  --active_;
}

void Bench::RunPhase(bool measured, uint64_t ops) {
  measured_ = measured;
  phase_end_ = issued_ + ops;
  active_ = spec_.clients;
  for (int w = 0; w < spec_.clients; ++w) {
    sim::Spawn(WorkerLoop(w));
  }
  sim::Spawn(cluster_->RecyclerLoop(&active_));
  cluster_->sim().Run();
}

bool Bench::CheckLinearizable() {
  // Reads of the value current when the window began return a write made
  // before it; add that write, completed just before the window.
  std::vector<uint64_t> written;
  for (const verify::HistoryOp& op : history_) {
    if (op.is_write) {
      written.push_back(op.value);
    }
  }
  std::sort(written.begin(), written.end());
  std::vector<std::pair<uint64_t, uint64_t>> prior;  // (key, value)
  for (const verify::HistoryOp& op : history_) {
    if (!op.is_write && !op.pending &&
        !std::binary_search(written.begin(), written.end(), op.value) &&
        std::find(prior.begin(), prior.end(), std::make_pair(op.key, op.value)) == prior.end()) {
      prior.emplace_back(op.key, op.value);
    }
  }
  std::vector<verify::HistoryOp> ops;
  sim::Time t = first_issue_ - 1 - static_cast<sim::Time>(prior.size());
  for (const auto& [key, value] : prior) {
    ops.push_back({true, value, t, t, false, key});
    ++t;
  }
  ops.insert(ops.end(), history_.begin(), history_.end());
  const verify::CheckResult report = verify::LinearizabilityChecker::CheckReport(ops);
  if (!report.linearizable) {
    std::fprintf(stderr, "%s\n", report.Describe(ops).c_str());
  }
  return report.linearizable;
}

void Bench::Report(MetricSet* m, const Counters& before, const Counters& after) {
  const uint64_t ops = spec_.window_ops;
  const auto dops = static_cast<double>(ops);
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string n = kKindNames[k];
    m->Add(n + "_p50_us", QuantileUs(kinds_[static_cast<size_t>(k)].latency_ns, 0.50), "us", true);
    m->Add(n + "_p99_us", QuantileUs(kinds_[static_cast<size_t>(k)].latency_ns, 0.99), "us", true);
  }
  const double window_us = sim::ToMicros(last_complete_ - first_issue_);
  m->Add("tput_mops", Ratio(dops, window_us), "Mop/s", true);
  m->Add("setup_s", Median(setup_s_), "s", false);
  // At the window's end: the filler's length, and so what it allocates,
  // depends on host speed.
  m->Add("peak_rss_mb", static_cast<double>(after.peak_rss_kb) / 1024.0, "MB", false);
  const uint64_t live = after.live_bytes;
  const uint64_t high_water = after.high_water_bytes;
  const auto user_bytes = static_cast<double>(after.mapped_keys * kValueBytes);
  m->Add("mem_bytes_per_user_byte", Ratio(static_cast<double>(live), user_bytes), "B/B", true);
  m->Add("net_bytes_per_op",
         Ratio(static_cast<double>(after.fabric.total_io() - before.fabric.total_io()), dops),
         "B/op", true);

  // --- Per-layer: the simulated program as a whole, in host time ---
  m->Add("host.kops_per_s", Median(slice_kops_), "kop/s", false);

  // --- sim ---
  m->Add("sim.events_per_op", Ratio(static_cast<double>(after.events - before.events), dops),
         "1/op", true);
  m->Add("sim.coroutine_events_per_op",
         Ratio(static_cast<double>(after.coroutine_events - before.coroutine_events), dops),
         "1/op", true);
  m->Add("sim.pool_slab_refills", static_cast<double>(after.pool_refills - before.pool_refills),
         "count", false);

  // --- fabric ---
  const fabric::FabricStats& fa = after.fabric;
  const fabric::FabricStats& fb = before.fabric;
  m->Add("fabric.reads_per_op", Ratio(static_cast<double>(fa.reads - fb.reads), dops), "1/op",
         true);
  m->Add("fabric.writes_per_op", Ratio(static_cast<double>(fa.writes - fb.writes), dops), "1/op",
         true);
  m->Add("fabric.cas_per_op", Ratio(static_cast<double>(fa.casses - fb.casses), dops), "1/op",
         true);
  const auto doorbells = static_cast<double>(fa.doorbells - fb.doorbells);
  m->Add("fabric.doorbells_per_op", Ratio(doorbells, dops), "1/op", true);
  m->Add("fabric.verbs_per_doorbell",
         Ratio(static_cast<double>(fa.ops_issued - fb.ops_issued), doorbells), "1/doorbell", true);
  m->Add("fabric.client_cpu_busy_pct",
         100.0 * Ratio(static_cast<double>(after.client_cpu_busy - before.client_cpu_busy),
                       (last_complete_ - first_issue_) * static_cast<double>(spec_.clients)),
         "%", true);

  // --- swarm (protocol) ---
  const KindSamples& g = kinds_[kGet];
  const KindSamples& u = kinds_[kUpdate];
  const auto gets = static_cast<double>(g.latency_ns.size());
  const auto updates = static_cast<double>(u.latency_ns.size());
  m->Add("swarm.get.one_rtt_pct", 100.0 * Ratio(static_cast<double>(g.one_rtt), gets), "%", true);
  m->Add("swarm.update.one_rtt_pct", 100.0 * Ratio(static_cast<double>(u.one_rtt), updates), "%",
         true);
  m->Add("swarm.get.rtts_mean", Ratio(static_cast<double>(g.rtts), gets), "rtt", true);
  m->Add("swarm.update.rtts_mean", Ratio(static_cast<double>(u.rtts), updates), "rtt", true);
  m->Add("swarm.get.inplace_pct", 100.0 * Ratio(static_cast<double>(g.inplace), gets), "%", true);
  m->Add("swarm.update.fast_path_pct", 100.0 * Ratio(static_cast<double>(u.fast_path), updates),
         "%", true);
  m->Add("swarm.clock_resyncs_per_mop",
         1e6 * Ratio(static_cast<double>(after.clock_resyncs - before.clock_resyncs), dops),
         "1/Mop", true);

  // --- kv ---
  for (int k = 0; k < kNumKinds; ++k) {
    m->Add(std::string("kv.") + kKindNames[k] + ".count",
           static_cast<double>(kinds_[static_cast<size_t>(k)].latency_ns.size()), "count", true);
  }
  m->Add("kv.get.hit_p50_us", QuantileUs(get_hit_ns_, 0.5), "us", true);
  m->Add("kv.get.miss_p50_us", QuantileUs(get_miss_ns_, 0.5), "us", true);
  m->Add("kv.unavailable_ops", static_cast<double>(unavailable_), "count", true);
  m->Add("kv.ambiguous_ops", static_cast<double>(ambiguous_), "count", true);

  // --- index ---
  const auto hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const auto misses = static_cast<double>(after.cache.misses - before.cache.misses);
  m->Add("index.cache_hit_pct", 100.0 * Ratio(hits, hits + misses), "%", true);
  m->Add("index.cache_evictions_per_kop",
         1e3 * Ratio(static_cast<double>(after.cache.evictions - before.cache.evictions), dops),
         "1/kop", true);
  m->Add("index.cache_invalidations_per_kop",
         1e3 * Ratio(static_cast<double>(after.cache.invalidations - before.cache.invalidations),
                     dops),
         "1/kop", true);
  m->Add("index.rpcs_per_op",
         Ratio(static_cast<double>(after.index_rpcs() - before.index_rpcs()), dops), "1/op", true);

  // --- alloc ---
  constexpr double kMiB = 1024.0 * 1024.0;
  m->Add("alloc.live_mb", static_cast<double>(live) / kMiB, "MB", true);
  m->Add("alloc.high_water_mb", static_cast<double>(high_water) / kMiB, "MB", true);
  m->Add("alloc.high_water_over_live",
         Ratio(static_cast<double>(high_water), static_cast<double>(live)), "x", true);
  m->Add("setup.build_s", Median(build_s_), "s", false);
  m->Add("setup.load_s", Median(load_s_), "s", false);
  m->Add("setup.prewarm_s", Median(prewarm_s_), "s", false);

  // --- repair / membership ---
  const sim::Time repair_ns = repair_end_ - repair_start_;
  m->Add("repair.duration_ms", sim::ToMillis(repair_ns), "ms", true);
  m->Add("repair.redundancy_restored_ms", crashed_ ? sim::ToMillis(repair_end_ - crash_at_) : 0.0,
         "ms", true);
  m->Add("repair.slots_walked", static_cast<double>(slots_walked_), "count", true);
  m->Add("repair.slots_repaired", static_cast<double>(slots_repaired_), "count", true);
  m->Add("repair.coordinator_cpu_busy_pct",
         100.0 * Ratio(static_cast<double>(coordinator_busy_), static_cast<double>(repair_ns)),
         "%", true);
  m->Add("repair.fg_update_p99_us", QuantileUs(repair_update_ns_, 0.99), "us", true);
  m->Add("failover.post_crash_2ms_p99_us", QuantileUs(post_crash_ns_, 0.99), "us", true);
  m->Add("membership.epoch_bumps", static_cast<double>(after.epoch - before.epoch), "count", true);
  m->Add("membership.stale_landings",
         static_cast<double>(after.stale_landings - before.stale_landings), "count", true);

  if (opt_.trace) {
    RunProbes(m, before, after);
  }
}

void Bench::RunProbes(MetricSet* m, const Counters& before, const Counters& after) {
  const auto dops = static_cast<double>(spec_.window_ops);
  const auto events = static_cast<double>(after.events - before.events);
  const double co_share =
      Ratio(static_cast<double>(after.coroutine_events - before.coroutine_events), events);
  const fabric::FabricStats& fa = after.fabric;
  const fabric::FabricStats& fb = before.fabric;
  VerbMix mix;
  mix.reads = fa.reads - fb.reads;
  mix.writes = fa.writes - fb.writes;
  mix.cas = fa.casses - fb.casses;
  const auto verbs = static_cast<double>(fa.ops_issued - fb.ops_issued);
  const auto lookups = static_cast<double>((after.cache.hits + after.cache.misses) -
                                           (before.cache.hits + before.cache.misses));

  Clock::time_point t = Clock::now();
  const double sim_ns = ProbeSimNsPerEvent(co_share);
  trace_.Add("probe.sim", "probes", TraceRecorder::kHostPid, 0, HostUs(t), HostSecondsSince(t) * 1e6);
  t = Clock::now();
  const double verb_ns = ProbeFabricSelfNsPerVerb(mix, sim_ns);
  trace_.Add("probe.fabric", "probes", TraceRecorder::kHostPid, 0, HostUs(t),
             HostSecondsSince(t) * 1e6);
  t = Clock::now();
  const double lookup_ns = ProbeCacheNsPerLookup(*cluster_->client(0).cache, lookup_keys_);
  trace_.Add("probe.cache", "probes", TraceRecorder::kHostPid, 0, HostUs(t),
             HostSecondsSince(t) * 1e6);
  t = Clock::now();
  const double ycsb_ns = ProbeYcsbNsPerOp(GeneratorConfig(), opt_.seed);
  trace_.Add("probe.ycsb", "probes", TraceRecorder::kHostPid, 0, HostUs(t),
             HostSecondsSince(t) * 1e6);

  m->Add("sim.host_ns_per_event", sim_ns, "ns", false);
  m->Add("fabric.host_ns_per_verb", verb_ns, "ns", false);
  m->Add("index.cache.host_ns_per_lookup", lookup_ns, "ns", false);
  m->Add("ycsb.host_ns_per_op", ycsb_ns, "ns", false);

  uint64_t msgs = 0;
  uint64_t max_node = 0;
  for (uint64_t n : window_node_msgs_) {
    msgs += n;
    max_node = std::max(max_node, n);
  }
  m->Add("fabric.msgs_per_op", Ratio(static_cast<double>(msgs), dops), "1/op", true);
  m->Add("fabric.node_msgs_max_over_mean",
         Ratio(static_cast<double>(max_node),
               Ratio(static_cast<double>(msgs), static_cast<double>(window_node_msgs_.size()))),
         "x", true);

  // Shares of host time per op, against the untraced run's rate.
  const double traced_kops = Median(slice_kops_);
  const double ref_kops = opt_.ref_host_kops > 0 ? opt_.ref_host_kops : traced_kops;
  const double ns_per_op = Ratio(1e6, ref_kops);
  const double sim_share = 100.0 * Ratio(events / dops * sim_ns, ns_per_op);
  const double fabric_share = 100.0 * Ratio(verbs / dops * verb_ns, ns_per_op);
  const double cache_share = 100.0 * Ratio(lookups / dops * lookup_ns, ns_per_op);
  const double ycsb_share = 100.0 * Ratio(ycsb_ns, ns_per_op);
  m->Add("sim.host_share_pct", sim_share, "%", false);
  m->Add("fabric.host_share_pct", fabric_share, "%", false);
  m->Add("index.cache.host_share_pct", cache_share, "%", false);
  m->Add("ycsb.host_share_pct", ycsb_share, "%", false);
  m->Add("other.host_share_pct", 100.0 - sim_share - fabric_share - cache_share - ycsb_share, "%",
         false);
  m->Add("trace.overhead_pct", 100.0 * Ratio(ref_kops - traced_kops, ref_kops), "%", false);
}

int Bench::Run() {
  const auto scaled = [this](uint64_t n) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(n) * opt_.scale));
  };
  spec_.keys = scaled(spec_.keys);
  spec_.access_keys = scaled(spec_.access_keys);
  spec_.warmup_ops = static_cast<uint64_t>(static_cast<double>(spec_.warmup_ops) * opt_.scale);
  spec_.window_ops = std::max<uint64_t>(
      kSlices, static_cast<uint64_t>(static_cast<double>(spec_.window_ops) * opt_.scale));
  spec_.window_ops -= spec_.window_ops % kSlices;
  slice_ops_ = spec_.window_ops / kSlices;

  SetUp();
  if (opt_.trace) {
    node_msgs_.assign(static_cast<size_t>(cluster_->fabric().num_nodes()), 0);
    cluster_->fabric().set_link_delay_fn([this](int node, bool) -> sim::Time {
      if (static_cast<size_t>(node) < node_msgs_.size()) {
        ++node_msgs_[static_cast<size_t>(node)];
      }
      return 0;
    });
  }
  if (spec_.warmup_ops > 0) {
    RunPhase(false, spec_.warmup_ops);
  }

  const Counters before = Counters::Take(*cluster_);
  std::fill(node_msgs_.begin(), node_msgs_.end(), 0);
  window_begin_ = issued_;
  history_left_ = opt_.lincheck_ops;
  first_issue_ = cluster_->sim().Now();
  const Clock::time_point window_start = Clock::now();
  slice_marks_.push_back(window_start);
  RunPhase(true, spec_.window_ops);
  slice_marks_.push_back(Clock::now());
  const Counters after = Counters::Take(*cluster_);
  window_node_msgs_ = node_msgs_;
  for (size_t i = 1; i < slice_marks_.size(); ++i) {
    const double dt = std::chrono::duration<double>(slice_marks_[i] - slice_marks_[i - 1]).count();
    slice_kops_.push_back(Ratio(static_cast<double>(slice_ops_), dt) / 1e3);
  }
  if (opt_.trace) {
    trace_.Add("window", "run", TraceRecorder::kHostPid, 0, HostUs(window_start),
               HostSecondsSince(window_start) * 1e6);
    trace_.Add("window", "run", TraceRecorder::kVirtualPid, spec_.clients + 1,
               sim::ToMicros(first_issue_), sim::ToMicros(last_complete_ - first_issue_));
  }

  // Window results are final; the filler only samples host speed further.
  const bool linearizable = opt_.lincheck_ops == 0 || CheckLinearizable();
  if (!linearizable) {
    Fail("the first %llu window ops on loaded keys are not linearizable",
         static_cast<unsigned long long>(opt_.lincheck_ops));
  }
  if (spec_.crash_and_repair && (!readmitted_ || repair_end_ > last_complete_)) {
    Fail("node 0 was %s before the measured window ended",
         readmitted_ ? "readmitted, but not" : "not readmitted");
  }
  while (HostSecondsSince(window_start) < opt_.seconds) {
    const Clock::time_point t0 = Clock::now();
    RunPhase(false, slice_ops_);
    slice_kops_.push_back(Ratio(static_cast<double>(slice_ops_), HostSecondsSince(t0)) / 1e3);
  }
  MetricSet metrics;
  Report(&metrics, before, after);
  if (opt_.lincheck_ops > 0) {
    metrics.Add("lincheck.ops", static_cast<double>(history_.size()), "count", true);
    metrics.Add("lincheck.ok", linearizable ? 1.0 : 0.0, "bool", true);
  }
  if (opt_.trace && !opt_.trace_out.empty() && !trace_.Write(opt_.trace_out)) {
    Fail("cannot write trace file %s", opt_.trace_out.c_str());
  }

  const bool correct = failed_ == 0;
  std::fprintf(stderr, "%s seed %llu: %llu ops attempted, %llu failed, %zu slices\n", spec_.name,
               static_cast<unsigned long long>(opt_.seed),
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_), slice_kops_.size());
  metrics.Summarize(stderr);
  metrics.Print(stdout, correct, attempted_, failed_);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace swarm::kvbench

int main(int argc, char** argv) {
  using swarm::kvbench::kWorkloads;
  const swarm::kvbench::Options opt = swarm::kvbench::ParseArgs(argc, argv);
  for (const auto& spec : kWorkloads) {
    if (opt.workload == spec.name) {
      swarm::kvbench::Bench bench(spec, opt);
      return bench.Run();
    }
  }
  std::fprintf(stderr, "swarmkv_bench: unknown --workload '%s'; known:", opt.workload.c_str());
  for (const auto& spec : kWorkloads) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}
