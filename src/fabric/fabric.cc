#include "src/fabric/fabric.h"

#include "src/util/annotations.h"

#include <algorithm>
#include <memory>
#include <type_traits>

namespace swarm::fabric {

SWARM_HOT_PATH sim::Task<void> ClientCpu::Consume(sim::Time cost) {
  const sim::Time start = std::max(sim_->Now(), busy_until_);
  busy_until_ = start + cost;
  busy_ns_ += cost;
  if (busy_until_ > sim_->Now()) {
    co_await sim_->WaitUntil(busy_until_);
  }
}

SWARM_HOT_PATH sim::Task<void> ClientCpu::Submit(sim::Time cost, int wqes) {
  if (batch_depth_ == 0) {
    if (stats_ != nullptr) {
      ++stats_->doorbells;
    }
    co_await Consume(cost);
    co_return;
  }
  // Batched: the first verb rings the doorbell (charging the CPU once); the
  // rest join it. `batch_ready_ < Now()` guards a guard held open across
  // virtual time (sequential verbs under one guard): a fresh doorbell rings.
  // A verb that would push the doorbell past its WQE budget also rings a
  // fresh one — the NIC only accepts max_wqe_ entries per doorbell write, so
  // an oversized batch splits into ceil(K/max) doorbells, each paying
  // submit_cost.
  const bool wqe_split =
      batch_charged_ && max_wqe_ > 0 && batch_wqes_ + wqes > max_wqe_;
  if (!batch_charged_ || batch_ready_ < sim_->Now() || wqe_split) {
    batch_charged_ = true;
    batch_wqes_ = 0;
    const sim::Time start = std::max(sim_->Now(), busy_until_);
    busy_until_ = start + cost;
    busy_ns_ += cost;
    batch_ready_ = busy_until_;
    if (stats_ != nullptr) {
      ++stats_->doorbells;
      if (wqe_split) {
        ++stats_->doorbell_splits;
      }
    }
  }
  batch_wqes_ += wqes;
  ++batch_verbs_;
  if (stats_ != nullptr) {
    ++stats_->batched_verbs;
  }
  if (batch_ready_ > sim_->Now()) {
    co_await sim_->WaitUntil(batch_ready_);
  }
}

void ClientCpu::EndBatch() {
  if (!enabled_ || batch_depth_ == 0) {
    return;
  }
  if (--batch_depth_ == 0) {
    if (batch_verbs_ > 0 && stats_ != nullptr) {
      ++stats_->batches;
    }
    batch_charged_ = false;
    batch_verbs_ = 0;
    batch_wqes_ = 0;
  }
}

namespace {

// Shared completion block for PostMany. Every spawned verb holds a
// reference, so the block outlives a caller whose frame dies first; the
// pooled slot recycles only after the LAST verb finished.
struct ManyResults {
  sim::PoolVec<OpResult> results;
};

sim::Task<void> StoreResultAt(sim::Task<OpResult> verb, std::shared_ptr<ManyResults> out,
                              size_t idx, sim::Counter done) {
  out->results[idx] = co_await std::move(verb);
  done.Add(1);
}

}  // namespace

sim::Task<sim::PoolVec<OpResult>> PostMany(ClientCpu* cpu, sim::Simulator* sim,
                                           sim::PoolVec<sim::Task<OpResult>> verbs) {
  sim::Counter done(sim);
  const int n = static_cast<int>(verbs.size());
  auto out = std::allocate_shared<ManyResults>(sim::PoolAlloc<ManyResults>{});
  out->results.resize(verbs.size());
  {
    CpuBatch batch(cpu);
    for (size_t i = 0; i < verbs.size(); ++i) {
      sim::Spawn(StoreResultAt(std::move(verbs[i]), out, i, done));
    }
  }
  co_await done.WaitFor(n);
  co_return std::move(out->results);
}

Fabric::Fabric(sim::Simulator* sim, FabricConfig config)
    : sim_(sim), config_(config),
      max_nodes_(std::max(config.max_nodes, config.num_nodes)) {
  nodes_.reserve(static_cast<size_t>(max_nodes_));
  for (int i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<MemoryNode>(config_.node_capacity_bytes, i));
    nodes_.back()->set_now_fn([sim] { return sim->Now(); });
  }
  // Sized to the lifetime bound so hot-added nodes slot in without moving
  // any per-node state.
  nic_free_.assign(static_cast<size_t>(max_nodes_), 0);
}

int Fabric::AddNode() {
  const int id = num_nodes();
  if (id >= max_nodes_) {
    return -1;  // Admission plans are bounded by config.max_nodes.
  }
  nodes_.push_back(std::make_unique<MemoryNode>(config_.node_capacity_bytes, id));
  nodes_.back()->set_now_fn([sim = sim_] { return sim->Now(); });
  nodes_.back()->set_fence_epoch(fence_epoch_);
  nodes_.back()->set_fence_enforced(fence_enforced_);
  return id;
}

sim::Time Fabric::ReserveNicAtArrival(int node, sim::Time service) {
  sim::Time& free_at = nic_free_[static_cast<size_t>(node)];
  const sim::Time start = std::max(sim_->Now(), free_at);
  free_at = start + service;
  return start;
}

sim::Time Fabric::SampleDelay() {
  const sim::Time j = config_.delay_jitter;
  sim::Time d = config_.one_way_delay;
  if (j > 0) {
    d += sim_->rng().Range(-j, j);
  }
  return std::max<sim::Time>(d, 1);
}

uint64_t Fabric::TotalAllocated() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->bytes_allocated();
  }
  return total;
}

// --- The verb pipeline. ----------------------------------------------------
//
// Every verb takes the same journey (the timing model in fabric.h). Qp::Post
// is the issuing side for all four verbs and Land is the answer at the node.
// A verb type holds only its wire shape (WQEs, bytes, link time) and its
// effect: Stage schedules what reaches memory before the verb lands (a
// staged write's halves) and returns the landing instant, and Execute runs
// the landing.

namespace {

// Per-verb completion state, shared between the issuing coroutine and the
// callback chain that models the verb's journey through the fabric.
//
// Pooling audit (completion-after-cancellation): on every path through the
// pipeline the last write to an OpState happens strictly BEFORE the matching
// done.Add(1), and the awaiting coroutine resumes only via a later
// event-queue entry — so no path writes an OpState after its owner resumed.
// The hazard the shared_ptr guards is the other direction: the awaiting
// coroutine can be GONE before the callbacks run (a response-drop makes the
// client time out while the completion chain is still in flight, and a
// destroyed Simulator destroys queued callbacks without running them). The
// journey, and with it the reference, travels with every callback up to the
// completion, and the pooled slot recycles only when the last one releases
// it — recycling while a dropped ack's completion is in flight is
// impossible by construction. completion_race_test forces exactly this
// interleaving via the response-drop chaos hook under ASan (where the pool
// delegates to the real allocator, so any regression is a reported UAF).
struct OpState {
  OpResult result;
};

// Where a verb executes and the stamp it carries.
struct Target {
  Fabric* fabric;
  uint64_t epoch;
  int node;
  bool repair_channel;

  MemoryNode& memory() const { return fabric->node(node); }
};

// A verb past its departure: its target, where its answer goes, and whether
// the response leg will drop.
struct Journey : Target {
  std::shared_ptr<OpState> st;
  sim::Counter done;
  sim::Time departure;
  bool drop_response;

  void CompleteAt(sim::Time at) const {
    fabric->sim()->At(at, [done = done]() mutable { done.Add(1); });
  }
};

// An admitted verb's answer. A NACK is a bare ack.
struct Ack {
  uint64_t bytes = kAckBytes;  // On the response leg.
  sim::Time extra = 0;         // Node and link time beyond node_op_cost.
  uint64_t old_value = 0;      // A CAS's prior word.
};

// The landing every verb ends in, at its execution instant: admission, the
// verb's effect, then one response leg. A crashed node cannot answer and a
// dropped response hides the answer, so both complete kNodeFailed
// failure_detect_delay after departure (RC retry exhaustion); an admitted
// effect applies either way. An epoch-fence or retired-region rejection
// NACKs at response speed.
template <typename Effect>
void Land(const Journey& j, uint64_t addr, uint64_t len, Effect effect) {
  Fabric& f = *j.fabric;
  const FabricConfig& cfg = f.config();
  sim::Simulator* sim = f.sim();
  const Status adm = j.memory().VerbStatus(j.repair_channel, j.epoch, addr, len);
  Ack ack;
  if (adm == Status::kOk) {
    ack = effect(j.memory());
  }
  if (adm == Status::kNodeFailed || j.drop_response) {
    j.st->result.status = Status::kNodeFailed;
    j.CompleteAt(std::max(sim->Now(), j.departure + cfg.failure_detect_delay));
    return;
  }
  j.st->result.status = adm;
  j.st->result.old_value = ack.old_value;
  f.stats().bytes_from_nodes += ack.bytes;
  const sim::Time sent = sim->Now() + cfg.node_op_cost + ack.extra + f.SampleDelay();
  j.CompleteAt(sent + f.LinkExtraDelay(j.node, true));
}

// A WRITE's payload. One larger than a word lands in two halves, the first
// when the NIC starts serving the verb and the rest when its last byte has
// crossed the link, so concurrent readers can see it torn (§2.1).
struct WriteOp {
  uint64_t addr;
  const uint8_t* src;
  size_t len;
  sim::Time xfer;  // Link time of the payload.

  size_t half() const { return len > 8 && xfer > 0 ? len / 2 : 0; }
  void Count(FabricStats& s) const {
    ++s.writes;
    s.bytes_to_nodes += kVerbHeaderBytes + len;
  }
  // Writes payload bytes [from, to).
  void Put(MemoryNode& n, size_t from, size_t to) const {
    n.WriteFrom(addr + from, std::span<const uint8_t>(src + from, to - from));
  }
};

// Lands payload bytes [from, to) at `at` if the node admits them then. A
// half that is not the verb's landing checks Admits, not VerbStatus, so each
// stale verb counts once in stale_landings.
void PutAt(const Target& t, const WriteOp& w, size_t from, size_t to, sim::Time at) {
  t.fabric->sim()->At(at, [t, w, from, to] {
    if (t.memory().Admits(t.repair_channel, t.epoch, w.addr + from, to - from) == Status::kOk) {
      w.Put(t.memory(), from, to);
    }
  });
}

// Stages a write served from `start`: schedules its first half and returns
// the instant the rest lands.
sim::Time StageWrite(const Target& t, const WriteOp& w, sim::Time start) {
  if (w.half() > 0) {
    PutAt(t, w, 0, w.half(), start);
  }
  return start + w.xfer;
}

struct CasOp {
  uint64_t addr;
  uint64_t expected;
  uint64_t desired;

  void Count(FabricStats& s) const {
    ++s.casses;
    s.bytes_to_nodes += kVerbHeaderBytes + 16;
  }
};

// The CAS landing of CAS and of a WRITE→CAS series. A CAS whose response
// drops still swaps; its prior word never comes back.
void LandCas(const Journey& j, const CasOp& c) {
  Land(j, c.addr, 8, [&c](MemoryNode& n) {
    return Ack{kAckBytes + 8, 0, n.CasWord(c.addr, c.expected, c.desired)};
  });
}

struct ReadVerb {
  static constexpr int kWqes = 1;
  uint64_t addr;
  uint8_t* out;
  size_t len;
  sim::Time xfer;  // Link time of the bytes read, on the response leg.

  sim::Time upload() const { return 0; }
  void Count(FabricStats& s) const {
    ++s.reads;
    s.bytes_to_nodes += kVerbHeaderBytes;
  }
  sim::Time Stage(const Target& /*t*/, sim::Time start) const { return start; }
  void Execute(const Journey& j) const {
    Land(j, addr, len, [this, &j](MemoryNode& n) {
      n.ReadInto(addr, std::span<uint8_t>(out, len));
      return Ack{kVerbHeaderBytes + len, j.fabric->config().read_extra + xfer, 0};
    });
  }
};

struct WriteVerb {
  static constexpr int kWqes = 1;
  WriteOp write;

  sim::Time upload() const { return write.xfer; }
  void Count(FabricStats& s) const { write.Count(s); }
  sim::Time Stage(const Target& t, sim::Time start) const { return StageWrite(t, write, start); }
  // The rest of the payload lands with the verb, admitted over all of it.
  void Execute(const Journey& j) const {
    Land(j, write.addr, write.len, [this](MemoryNode& n) {
      write.Put(n, write.half(), write.len);
      return Ack{};
    });
  }
};

struct CasVerb {
  static constexpr int kWqes = 1;
  CasOp cas;

  sim::Time upload() const { return 0; }
  void Count(FabricStats& s) const { cas.Count(s); }
  sim::Time Stage(const Target& /*t*/, sim::Time start) const { return start; }
  void Execute(const Journey& j) const { LandCas(j, cas); }
};

// WRITE→CAS pipelined on one QP: one message carrying two WQEs. FIFO
// execution runs the CAS only after the write has fully applied, so if the
// CAS's effect is visible, so is the write.
struct WriteCasVerb {
  static constexpr int kWqes = 2;
  WriteOp write;
  CasOp cas;

  sim::Time upload() const { return write.xfer; }
  void Count(FabricStats& s) const {
    write.Count(s);
    cas.Count(s);
  }
  sim::Time Stage(const Target& t, sim::Time start) const {
    const sim::Time rest = StageWrite(t, write, start);
    PutAt(t, write, write.half(), write.len, rest);
    return rest + t.fabric->config().node_op_cost;
  }
  void Execute(const Journey& j) const { LandCas(j, cas); }
};

}  // namespace

template <typename Verb>
SWARM_HOT_PATH sim::Task<OpResult> Qp::Post(Verb verb) {
  if (revoked_) {
    co_return OpResult{Status::kStaleEpoch};  // Dead until the client re-validates.
  }
  Fabric& f = *fabric_;
  const FabricConfig& cfg = f.config();
  const uint64_t epoch = stamp();
  if (cpu_ != nullptr) {
    // One submission covers a pipelined series (§7.2: the fixed cost is per
    // series of RDMA operations to a memory node), but each WQE counts
    // against the doorbell's budget.
    co_await cpu_->Submit(cfg.submit_cost, Verb::kWqes);
  }
  f.stats().ops_issued += Verb::kWqes;
  verb.Count(f.stats());

  sim::Simulator* sim = f.sim();
  const sim::Time departure = sim->Now();
  // One drop coin per leg; a lost request never samples its response. A
  // lost request never reaches the node. A lost response loses only the
  // answer — except a READ's, which has no effect to apply, so it is lost
  // at departure like its request.
  const bool drop_request = f.DropMessage(node_, false, chaos_tag_);
  const bool drop_response = !drop_request && f.DropMessage(node_, true, chaos_tag_);
  if (drop_request || (drop_response && std::is_same_v<Verb, ReadVerb>)) {
    co_await sim->WaitUntil(departure + cfg.failure_detect_delay);
    co_return OpResult{Status::kNodeFailed};
  }
  sim::Time arrival =
      departure + f.SampleDelay() + f.LinkExtraDelay(node_, false) + f.node(node_).extra_delay();
  arrival = std::max(arrival, last_arrival_ + 1);  // Per-QP FIFO (RDMA ordering).
  last_arrival_ = arrival + verb.upload();  // A payload occupies the QP's channel.

  auto st = std::allocate_shared<OpState>(sim::PoolAlloc<OpState>{});
  sim::Counter done(sim);
  // The NIC is reserved AT arrival (arrival-order service), node_op_cost per
  // WQE: a verb delayed in the network must not block earlier-arriving
  // traffic.
  sim->At(arrival, [j = Journey{{fabric_, epoch, node_, repair_channel_}, st, done, departure,
                                drop_response},
                    verb]() mutable {
    const sim::Time start =
        j.fabric->ReserveNicAtArrival(j.node, Verb::kWqes * j.fabric->config().node_op_cost);
    const sim::Time landing = verb.Stage(j, start);
    j.fabric->sim()->At(landing, [j = std::move(j), verb] { verb.Execute(j); });
  });

  co_await done.WaitFor(1);
  if (st->result.status == Status::kStaleEpoch) {
    revoked_ = true;  // §5.4: the QP stays dead until re-validation re-arms it.
  }
  co_return st->result;
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::Read(uint64_t addr, std::span<uint8_t> out) {
  return Post(ReadVerb{addr, out.data(), out.size(), fabric_->TransferTime(out.size())});
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::Write(uint64_t addr, std::span<const uint8_t> data) {
  return Post(WriteVerb{{addr, data.data(), data.size(), fabric_->TransferTime(data.size())}});
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::Cas(uint64_t addr, uint64_t expected, uint64_t desired) {
  return Post(CasVerb{{addr, expected, desired}});
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::WriteThenCas(uint64_t waddr,
                                                    std::span<const uint8_t> data,
                                                    uint64_t caddr, uint64_t expected,
                                                    uint64_t desired) {
  return Post(WriteCasVerb{{waddr, data.data(), data.size(), fabric_->TransferTime(data.size())},
                           {caddr, expected, desired}});
}

}  // namespace swarm::fabric
