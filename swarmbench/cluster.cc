#include "swarmbench/cluster.h"

#include <algorithm>
#include <utility>

namespace swarm::kvbench {

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  fabric::FabricConfig fcfg;
  fcfg.num_nodes = 4;
  fcfg.node_capacity_bytes = 2ull << 30;  // calloc-backed: untouched pages are free.

  ProtocolConfig proto;
  proto.replicas = 3;
  proto.max_value = kValueBytes;
  proto.inplace_copies = cfg.inplace_copies;
  // One In-n-Out metadata buffer and one timestamp lock per writer; the
  // repair coordinator writes too (it restores timestamp-lock words), so its
  // tid must fall inside the TSL region.
  const int writers = cfg.clients + (cfg.repair_coordinator ? 1 : 0);
  proto.max_writers = std::min(writers, static_cast<int>(kMaxTid) + 1);
  proto.meta_slots = std::min(writers, 64);

  sim_ = std::make_unique<sim::Simulator>(cfg.seed);
  fabric_ = std::make_unique<fabric::Fabric>(sim_.get(), fcfg);
  index_ = std::make_unique<index::IndexService>(sim_.get(), fabric_.get(), fcfg.one_way_delay,
                                                 fcfg.delay_jitter, fcfg.submit_cost);
  membership_ = std::make_unique<membership::MembershipService>(sim_.get(), fabric_.get());
  recycler_ = std::make_unique<Recycler>(sim_.get(), membership_.get());
  index_->set_retirement_horizon([r = recycler_.get()] { return r->current_epoch(); },
                                 [r = recycler_.get()] { return r->SafeReclaimBefore(); });

  for (int c = 0; c < cfg.clients; ++c) {
    const int64_t skew = sim_->rng().Range(-400, 400);
    clients_.push_back(MakeClient(static_cast<uint32_t>(c), proto, skew));
    ClientProcess& p = clients_.back();
    p.swarm = std::make_unique<kv::SwarmKvSession>(p.worker.get(), index_.get(), p.cache.get());
    p.swarm->set_serving(membership_->serving());
    p.session = std::make_unique<kv::TrackedKvSession>(p.swarm.get());
    p.participant = std::make_unique<RecyclerParticipant>(
        sim_.get(), 100 + static_cast<uint32_t>(c), /*ack_delay=*/1500);
    p.participant->CoupleDrain([s = p.session.get()] { return s->next_seq(); },
                               [s = p.session.get()] { return s->oldest_inflight(); });
    recycler_->Register(p.participant.get());
  }
  if (cfg.repair_coordinator) {
    coordinator_ = MakeClient(static_cast<uint32_t>(cfg.clients), proto, 0);
    repair_ = std::make_unique<repair::RepairService>(membership_.get(), coordinator_.worker.get());
    repair_source_ =
        std::make_unique<repair::IndexRepairSource>(index_.get(), repair::LayoutProtocol::kSafeGuess);
    repair_->RegisterStore(repair_source_.get());
    recycler_->set_repair_gate([r = repair_.get()] { return r->InFlight(); });
  }
}

ClientProcess Cluster::MakeClient(uint32_t tid, const ProtocolConfig& proto, int64_t skew) {
  ClientProcess p;
  p.cpu = std::make_unique<fabric::ClientCpu>(sim_.get());
  p.cache = std::make_unique<index::ClientCache>(cfg_.cache_entries, /*entry_bytes=*/32,
                                                 cfg_.seed + tid);
  p.clock = std::make_unique<GuessClock>(sim_.get(), skew);
  auto known_failed =
      std::make_shared<std::vector<bool>>(static_cast<size_t>(fabric_->num_nodes()), false);
  membership_->Subscribe(known_failed);
  auto epoch = std::make_shared<fabric::ClientEpoch>();
  epoch->value = membership_->epoch();
  membership_->SubscribeEpoch(epoch);
  p.worker = std::make_unique<Worker>(fabric_.get(), tid, p.cpu.get(), p.clock.get(), proto,
                                      std::move(known_failed));
  p.worker->set_epoch(std::move(epoch));
  p.worker->set_epoch_source([ms = membership_.get()] { return ms->ValidateEpoch(); });
  p.worker->set_repair_excluded(membership_->repairing());
  return p;
}

void Cluster::PrewarmCaches(uint64_t keys) {
  if (cfg_.cache_entries != 0) {
    return;
  }
  for (uint64_t key = 0; key < keys; ++key) {
    const index::IndexEntry* e = index_->Peek(key);
    if (e == nullptr) {
      continue;
    }
    for (ClientProcess& p : clients_) {
      index::CacheEntry entry;
      entry.layout = e->layout;
      entry.generation = e->generation;
      p.cache->Put(key, std::move(entry));
    }
  }
}

sim::Task<void> Cluster::RecyclerLoop(const int* active) {
  while (*active > 0) {
    recycler_->HeartbeatAll();
    co_await recycler_->RunRound();
    co_await sim_->Delay(kRecyclePeriod);
  }
}

}  // namespace swarm::kvbench
