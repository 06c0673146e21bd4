// Simulated RDMA fabric: latency/bandwidth model, queue pairs, doorbell
// batching, failure injection, and IO accounting.
//
// This module is the hardware substitution for the paper's testbed (4 client
// servers + 4 memory nodes, ConnectX NICs, 100 Gbps switch). Every verb —
// READ, WRITE, CAS and a pipelined WRITE→CAS series — takes the same journey
// through one pipeline (fabric.cc); a verb only contributes its wire shape
// (WQEs, bytes, link time) and its effect at the node:
//
//   post:     a QP revoked by kStaleEpoch fails fast, locally. Otherwise the
//             verb is stamped with the client's membership epoch.
//   submit:   the issuing worker consumes `submit_cost` on its client CPU
//             (models the 200+ ns cost of posting a series of RDMA work
//             requests, which causes the throughput wall of §7.2); stats
//             count the verb at departure.
//   drops:    one chaos coin for the request leg, then one for the response
//             leg (see FabricConfig::drop_fn).
//   request:  one-way delay + jitter + the link hook + the node's extra
//             delay, never before the QP's previous message (RDMA FIFO); a
//             payload occupies the QP's channel for its transfer time.
//   execute:  at arrival the node's NIC is reserved for node_op_cost per
//             WQE. A write larger than a word lands in two halves across its
//             transfer window, so concurrent reads can observe torn data (the
//             non-atomicity In-n-Out handles); a series' CAS runs after its
//             write. The verb then lands: admission, effect, answer.
//   response: after node_op_cost (plus read_extra for a READ), an ACK at
//             one-way delay + jitter + the link hook + payload/bandwidth, or
//             a NACK (stale epoch, retired region) as fast; or nothing — a
//             crashed node, a dropped response — and the client times out
//             `failure_detect_delay` after departure,
//   complete: the awaiting coroutine resumes with the result.
//
// Doorbell batching (§7.2): posting a work request is dominated by the fixed
// cost of building WQEs and ringing the NIC doorbell, and real NICs let a
// client post MANY work requests — even to different destinations — under a
// single doorbell. The model mirrors that: while a CpuBatch is open on a
// ClientCpu, the FIRST verb submitted charges `submit_cost` once and every
// other verb in the batch rides the same doorbell; all of them depart
// together when that single submission completes. A quorum-of-R write
// therefore consumes one `submit_cost`, not R, and its verbs leave the
// client simultaneously instead of staggered 200 ns apart. Everything after
// departure (delay, NIC occupancy, FIFO per QP) is unchanged, and batching
// can be disabled wholesale with FabricConfig::doorbell_batching for A/B
// comparisons.
//
// Ops on the same queue pair execute at the node in issue order (RDMA FIFO),
// which is what makes the pipelined WRITE→CAS of In-n-Out (§4.3) correct in a
// single roundtrip.

#ifndef SWARM_SRC_FABRIC_FABRIC_H_
#define SWARM_SRC_FABRIC_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/fabric/memory_node.h"
#include "src/fabric/verbs.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace swarm::fabric {

// Planted bugs for the chaos canary gallery (tests/chaos_replay_test.cc),
// all off in production. Each brings back one fixed bug and is read only at
// its bug site, through the one config every layer reaches
// (worker->fabric()->config()); none can change once the fabric is built.
struct CanaryKnobs {
  // deploy::Deployment skips SizeProtocol and Safe-Guess's tid check stands
  // down: writers past max_writers CAS a neighbor slot's lock words.
  bool undersized_writer_bound = false;
  // Nodes learn the membership epoch but do not enforce it: stale verbs land
  // (MemoryNode::stale_landings counts them).
  bool unenforced_epoch_fence = false;
  // Crash repair's same-layout copy drops delete tombstones, so deleted
  // objects resurrect. Migration copies stay exact.
  bool skip_tombstone_repair = false;
  // RepairService readmits a restarted node before its repair runs.
  bool readmit_before_repair = false;
  // MigrationService flips ownership without fencing the vacated slot.
  bool unfenced_flip = false;
};

struct FabricConfig {
  int num_nodes = 4;
  // Upper bound on nodes over the fabric's lifetime (elastic membership:
  // Fabric::AddNode admits fresh nodes up to this). 0 = num_nodes, i.e. a
  // fixed-size cluster. Per-link fault state and the index pseudo-link are
  // sized/positioned by this bound so they stay stable across hot-adds.
  int max_nodes = 0;
  uint64_t node_capacity_bytes = 1ull << 30;

  // Latency model, calibrated so a small READ round-trips in ~1.9 us and a
  // small WRITE in ~1.6 us, matching the paper's RAW baseline (§7.1).
  sim::Time one_way_delay = 680;      // ns
  sim::Time delay_jitter = 90;        // uniform +/- per direction
  sim::Time node_op_cost = 50;        // ns per verb at the node
  sim::Time read_extra = 250;         // extra ns for READs (PCIe read round at the node)
  sim::Time submit_cost = 200;        // ns of client CPU per doorbell (verb or batch)
  // Per-doorbell WQE budget: real NICs bound how many work-queue entries one
  // doorbell write can post. A batch whose WQE count would exceed this rings
  // a fresh doorbell (charging submit_cost again, so a K-WQE burst costs
  // ceil(K/max) * submit_cost). A pipelined WriteThenCas series carries two
  // WQEs. 0 = unlimited (the pre-limit model). The default is wide enough
  // that quorum fan-outs up to 7 replicas (14 WQEs with pipelined pairs)
  // still ride one doorbell.
  int max_wqe_per_doorbell = 16;
  double bandwidth_bytes_per_ns = 12.5;  // 100 Gbps each direction

  // Virtual time after which an op against a crashed node completes locally
  // with kNodeFailed (models RC QP retry exhaustion / uKharon notification).
  sim::Time failure_detect_delay = 4000;

  // If false, CpuBatch is inert and every verb pays its own submit_cost
  // (the sequential-submission model of the seed; kept for A/B benches).
  bool doorbell_batching = true;

  // --- Fault-injection hooks (the chaos engine, src/sim/chaos.h). ---
  //
  // Both are consulted once per NETWORK MESSAGE per direction (`response` =
  // false for the request leg, true for the completion leg) — a pipelined
  // WriteThenCas series is ONE message, and a verb whose request leg drops
  // never samples its response leg. A dropped request never reaches the
  // node; a dropped response applies the verb's effect at the node but
  // loses the completion (a READ, having no effect, is lost at departure)
  // — either way the client observes kNodeFailed after
  // failure_detect_delay, exactly like an op against a crashed node (RC
  // retry exhaustion). link_delay_fn returns extra one-way delay for the
  // given leg, sampled at that leg's scheduling instant. Unset hooks cost
  // nothing on the verb path.
  //
  // drop_fn additionally receives the issuing QP's chaos tag
  // (Qp::set_chaos_tag, -1 when untagged) so the chaos engine can target a
  // SINGLE client's queue pair — a flaky cable / dying NIC port rather than
  // a congested link. Non-verb paths (index RPCs) pass -1.
  using LinkDelayFn = std::function<sim::Time(int node, bool response)>;
  using DropFn = std::function<bool(int node, bool response, int qp_tag)>;
  LinkDelayFn link_delay_fn;
  DropFn drop_fn;

  CanaryKnobs canaries;
};

struct FabricStats {
  uint64_t ops_issued = 0;
  uint64_t bytes_to_nodes = 0;    // request headers + write payloads
  uint64_t bytes_from_nodes = 0;  // response headers + read payloads
  uint64_t casses = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;

  // Doorbell accounting: `doorbells` counts submit_cost charges (one per
  // unbatched verb, one per batch); `batches` counts closed CpuBatches that
  // carried at least one verb; `batched_verbs` counts verbs that rode a
  // batch. Mean verbs per doorbell-batch = batched_verbs / batches.
  uint64_t doorbells = 0;
  uint64_t batches = 0;
  uint64_t batched_verbs = 0;
  // Extra doorbells rung because a batch exceeded max_wqe_per_doorbell.
  uint64_t doorbell_splits = 0;

  void Reset() { *this = FabricStats{}; }
  uint64_t total_io() const { return bytes_to_nodes + bytes_from_nodes; }
  double verbs_per_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_verbs) / static_cast<double>(batches);
  }
};

// Per-client CPU model. Worker coroutines that share a ClientCpu serialize
// their verb submissions on it; `busy_ns` accumulates for Table 3's CPU
// utilization metric.
class ClientCpu {
 public:
  explicit ClientCpu(sim::Simulator* sim) : sim_(sim) {}

  // Consumes `cost` ns of CPU, queueing behind earlier consumers. Used for
  // non-verb work (RPC marshalling); never joins a doorbell batch.
  sim::Task<void> Consume(sim::Time cost);

  // Verb-submission consumption. Standalone, behaves like Consume(cost) and
  // counts one doorbell. While a batch is open (see CpuBatch), the first
  // verb charges `cost` once and every later verb rides the same doorbell
  // for free; all of them resume when the shared submission completes.
  // `wqes` is the WQE count this call posts (2 for a pipelined WriteThenCas
  // series); when a batch's accumulated WQEs would exceed the configured
  // per-doorbell budget, the batch splits — this verb rings a fresh doorbell
  // and pays submit_cost.
  sim::Task<void> Submit(sim::Time cost, int wqes = 1);

  void BeginBatch() { batch_depth_ += enabled_ ? 1 : 0; }
  void EndBatch();
  bool batching() const { return batch_depth_ > 0; }

  // Wires doorbell accounting, the config switch, and the per-doorbell WQE
  // budget (0 = unlimited); done by Worker (and tests) once the owning
  // fabric is known. Idempotent.
  void Configure(FabricStats* stats, bool batching_enabled, int max_wqe_per_doorbell = 0) {
    stats_ = stats;
    enabled_ = batching_enabled;
    max_wqe_ = max_wqe_per_doorbell;
  }

  sim::Time busy_ns() const { return busy_ns_; }
  void ResetBusy() { busy_ns_ = 0; }

 private:
  sim::Simulator* sim_;
  FabricStats* stats_ = nullptr;
  sim::Time busy_until_ = 0;
  sim::Time busy_ns_ = 0;
  bool enabled_ = true;
  int batch_depth_ = 0;
  int max_wqe_ = 0;  // Per-doorbell WQE budget; 0 = unlimited.
  bool batch_charged_ = false;
  sim::Time batch_ready_ = 0;
  uint64_t batch_verbs_ = 0;
  int batch_wqes_ = 0;  // WQEs accumulated on the current doorbell.
};

// RAII doorbell batch: every verb submitted on `cpu` while this guard is
// alive shares one amortized submit_cost. The intended pattern is to open
// the guard, Spawn the coroutines that post the verbs (Spawn runs each until
// its first suspension, which is the verb's Submit), and close the guard
// before co_awaiting completions — i.e. the guard brackets the POSTING of
// work, not its completion. Nested guards join the outermost doorbell.
class CpuBatch {
 public:
  explicit CpuBatch(ClientCpu* cpu) : cpu_(cpu) {
    if (cpu_ != nullptr) {
      cpu_->BeginBatch();
    }
  }
  ~CpuBatch() {
    if (cpu_ != nullptr) {
      cpu_->EndBatch();
    }
  }
  CpuBatch(const CpuBatch&) = delete;
  CpuBatch& operator=(const CpuBatch&) = delete;

 private:
  ClientCpu* cpu_;
};

class Fabric;

// Client-side endpoint of a queue pair to one memory node. Each logical
// worker (one outstanding application operation) uses its own Qp set, as a
// real client would use a dedicated QP context per issuing thread.
class Qp {
 public:
  Qp(Fabric* fabric, int node, ClientCpu* cpu) : fabric_(fabric), node_(node), cpu_(cpu) {}

  // Marks this QP as the repair coordinator's channel: its verbs pass a
  // node's repair fence (MemoryNode::set_repair_fenced) and its epoch fence
  // (the coordinator drives the epoch transitions itself).
  void set_repair_channel(bool on) { repair_channel_ = on; }

  // Wires the issuing client's cached membership epoch: every verb is
  // stamped with `*epoch` at posting time and memory nodes reject stamps
  // older than their fence epoch (§5.4 QP revocation). Unwired QPs stamp
  // kNoFenceEpoch and pass every fence. `epoch` must outlive the QP (the
  // Worker keeps the ClientEpoch alive).
  void set_epoch(const uint64_t* epoch) { epoch_ = epoch; }

  // A verb completing kStaleEpoch REVOKES its QP: further verbs fail fast
  // with kStaleEpoch, locally, without touching the fabric — the node has
  // disconnected this client until it re-validates its membership epoch.
  // Worker::RefreshEpoch() re-arms the QP after the re-validation pull.
  bool revoked() const { return revoked_; }
  void Rearm() { revoked_ = false; }

  // Tags this QP for per-QP fault targeting (FabricConfig::DropFn). Chaos
  // scenarios tag every worker of client i with tag i; -1 = untargetable.
  void set_chaos_tag(int tag) { chaos_tag_ = tag; }

  // One-sided READ of [addr, addr+out.size()). The bytes are sampled at the
  // op's execution instant at the node and delivered at completion.
  sim::Task<OpResult> Read(uint64_t addr, std::span<uint8_t> out);

  // One-sided WRITE. Not atomic for payloads larger than 8 B.
  sim::Task<OpResult> Write(uint64_t addr, std::span<const uint8_t> data);

  // Atomic 64-bit compare-and-swap; OpResult::old_value holds the prior word.
  sim::Task<OpResult> Cas(uint64_t addr, uint64_t expected, uint64_t desired);

  // Pipelined WRITE followed by CAS on the same QP: executes in order at the
  // node, completes in ONE roundtrip total (§2.1 property 3; used by
  // In-n-Out's write, Fig. 3).
  sim::Task<OpResult> WriteThenCas(uint64_t waddr, std::span<const uint8_t> data, uint64_t caddr,
                                   uint64_t expected, uint64_t desired);

  int node() const { return node_; }

 private:
  friend class Fabric;
  Fabric* fabric_;
  int node_;
  ClientCpu* cpu_;
  bool repair_channel_ = false;
  bool revoked_ = false;
  const uint64_t* epoch_ = nullptr;  // Client's cached membership epoch.
  int chaos_tag_ = -1;
  sim::Time last_arrival_ = 0;  // FIFO ordering of executions at the node.

  uint64_t stamp() const { return epoch_ != nullptr ? *epoch_ : kNoFenceEpoch; }

  // The issuing side every verb shares (fabric.cc): revocation, submission
  // and stats, the drop coins, arrival with per-QP FIFO; then it schedules
  // the node side and awaits the answer. `Verb` is the verb's wire shape and
  // effect.
  template <typename Verb>
  sim::Task<OpResult> Post(Verb verb);
};

class Fabric {
 public:
  Fabric(sim::Simulator* sim, FabricConfig config);

  sim::Simulator* sim() { return sim_; }
  const FabricConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int max_nodes() const { return max_nodes_; }
  MemoryNode& node(int i) { return *nodes_[static_cast<size_t>(i)]; }

  // Hot-adds a brand-new (empty, serving-capable) memory node and returns
  // its id. The node inherits the current fence epoch so verbs stamped
  // before its admission epoch bump cannot land on it unnoticed. Fails an
  // assert beyond config.max_nodes — admission plans are sized up front.
  int AddNode();

  FabricStats& stats() { return stats_; }

  // Crashes node `i`: in-flight requests that have not yet executed and all
  // future ops fail after `failure_detect_delay`; memory contents are lost.
  void Crash(int i) { node(i).Crash(); }
  void Recover(int i) { node(i).Recover(); }
  // Crash-recover model: the node rejoins empty but with its allocation map
  // intact, so a repair coordinator (src/repair/) can write replica state
  // back into the pre-crash addresses.
  void RecoverPreservingLayout(int i) { node(i).Recover(/*preserve_reservations=*/true); }

  // Membership-epoch fence push: the membership service calls this on every
  // repair-relevant transition; verbs stamped with an older epoch are
  // rejected at EVERY node from this instant on (§5.4 QP revocation — the
  // membership service instructs all memory nodes at once).
  void SetFenceEpoch(uint64_t epoch) {
    fence_epoch_ = epoch;
    for (auto& n : nodes_) {
      n->set_fence_epoch(epoch);
    }
  }

  // Pseudo-link id for the index service's RPC channel: the chaos hooks
  // (link_delay_fn / drop_fn) are keyed by link, and the index server rides
  // one more link beyond the memory nodes so fault scenarios can open
  // index/data inconsistency windows. chaos_link_count() sizes per-link
  // fault state. Both are anchored at max_nodes so they are STABLE across
  // node hot-adds (per-link chaos arrays never need to move).
  int index_link() const { return max_nodes_; }
  int chaos_link_count() const { return max_nodes_ + 1; }

  // Installs/replaces the chaos hooks after construction (the chaos engine
  // is built around an existing fabric). Pass {} to uninstall.
  void set_link_delay_fn(FabricConfig::LinkDelayFn fn) { config_.link_delay_fn = std::move(fn); }
  void set_drop_fn(FabricConfig::DropFn fn) { config_.drop_fn = std::move(fn); }

  sim::Time LinkExtraDelay(int node, bool response) {
    return config_.link_delay_fn ? config_.link_delay_fn(node, response) : 0;
  }
  bool DropMessage(int node, bool response, int qp_tag = -1) {
    return config_.drop_fn && config_.drop_fn(node, response, qp_tag);
  }

  // One direction of network latency including jitter.
  sim::Time SampleDelay();

  // NIC occupancy model: each verb occupies the target node's NIC engine for
  // its fixed processing cost, so offered verb rates beyond the per-node
  // service rate queue up (the fabric-saturation wall of §7.3). Payload
  // transfers overlap (DMA engines), so concurrent large ops still interleave
  // — and tear — at the memory.
  //
  // The engine serves messages in ARRIVAL order: this must be called AT a
  // message's arrival instant (it reserves from Now()). Reserving at issue
  // time — the old model — would let a network-delayed message block the
  // NIC for everything arriving earlier, an unphysical total order per node
  // that masked the §5.4 in-flight-verb window entirely (a repair could
  // never overtake a stranded verb). Per-QP FIFO is unaffected: it is
  // enforced on arrival instants by the Qp itself (RDMA orders a QP's
  // messages in the network, not at the NIC). Returns the service start.
  sim::Time ReserveNicAtArrival(int node, sim::Time service);

  // Total bytes of disaggregated memory allocated across all nodes.
  uint64_t TotalAllocated() const;

 private:
  friend class Qp;

  sim::Time TransferTime(uint64_t bytes) const {
    return static_cast<sim::Time>(static_cast<double>(bytes) / config_.bandwidth_bytes_per_ns);
  }

  sim::Simulator* sim_;
  FabricConfig config_;
  int max_nodes_;
  uint64_t fence_epoch_ = 0;  // Applied to hot-added nodes on AddNode.
  std::vector<std::unique_ptr<MemoryNode>> nodes_;
  std::vector<sim::Time> nic_free_;
  FabricStats stats_;
};

// --- Doorbell-batched posting helpers. -------------------------------------
//
// Both open a CpuBatch, start every verb task (each runs until its
// Submit suspension, joining the shared doorbell), close the batch, and then
// await completions. Lazy tasks are required: the verbs must not have been
// started by the caller.

// Posts two verb tasks under one doorbell and resumes when both completed.
// The workhorse for pipelined pairs like [oop WRITE → slot CAS] next to an
// in-place WRITE, or DM-ABD's "write out-of-place while reading the word".
template <typename A, typename B>
sim::Task<std::pair<A, B>> PostBoth(ClientCpu* cpu, sim::Simulator* sim, sim::Task<A> a,
                                    sim::Task<B> b) {
  sim::Counter done(sim);
  auto ra = std::allocate_shared<A>(sim::PoolAlloc<A>{});
  auto rb = std::allocate_shared<B>(sim::PoolAlloc<B>{});
  {
    CpuBatch batch(cpu);
    sim::Spawn(sim::StoreInto(std::move(a), ra, done));
    sim::Spawn(sim::StoreInto(std::move(b), rb, done));
  }
  co_await done.WaitFor(2);
  co_return std::pair<A, B>{std::move(*ra), std::move(*rb)};
}

// Posts N result-bearing verbs (possibly to different nodes) under one
// doorbell; resumes when all have completed, returning their results in
// order. The generic many-verb entry point for application code.
sim::Task<sim::PoolVec<OpResult>> PostMany(ClientCpu* cpu, sim::Simulator* sim,
                                           sim::PoolVec<sim::Task<OpResult>> verbs);

}  // namespace swarm::fabric

#endif  // SWARM_SRC_FABRIC_FABRIC_H_
