#include "src/deploy/deployment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/kv/dm_abd_kv.h"
#include "src/kv/raw_kv.h"
#include "src/kv/swarm_kv.h"
#include "src/swarm/timestamp.h"

namespace swarm::deploy {

namespace {

// Recycler participant ids are 100 + the worker's tid. The ack delay models
// the network and scheduling latency in front of a participant's drain.
constexpr uint32_t kFirstParticipantId = 100;
constexpr sim::Time kParticipantAckDelay = 1500;

bool IndexedStore(const std::string& store) { return store == "swarm" || store == "dmabd"; }

repair::LayoutProtocol LayoutProtocolOf(const std::string& store) {
  return store == "swarm" ? repair::LayoutProtocol::kSafeGuess : repair::LayoutProtocol::kAbd;
}

}  // namespace

ProtocolConfig SizeProtocol(ProtocolConfig proto, int writers) {
  if (writers > static_cast<int>(kMaxTid) + 1) {
    std::fprintf(stderr,
                 "deploy: %d writers exceed the metadata word's tid space (%u tids); "
                 "every worker is a writer, coordinators included\n",
                 writers, kMaxTid + 1);
    std::abort();
  }
  proto.max_writers = std::max(proto.max_writers, writers);
  if (proto.meta_slots <= 0) {
    proto.meta_slots = std::min(writers, 64);
  }
  return proto;
}

Deployment::Deployment(const DeploymentConfig& cfg) : cfg_(cfg) {
  if (cfg_.store != "swarm" && cfg_.store != "dmabd" && cfg_.store != "raw" &&
      cfg_.store != "fusee") {
    std::fprintf(stderr, "deploy: unknown store '%s'\n", cfg_.store.c_str());
    std::abort();
  }
  const int writers = cfg_.num_clients * cfg_.workers_per_client + (cfg_.repair ? 1 : 0) +
                      (cfg_.migration ? 1 : 0);
  if (!cfg_.fabric.canaries.undersized_writer_bound) {
    cfg_.proto = SizeProtocol(cfg_.proto, writers);
  }

  sim_ = std::make_unique<sim::Simulator>(cfg_.seed);
  fabric_ = std::make_unique<fabric::Fabric>(sim_.get(), cfg_.fabric);
  index_ = std::make_unique<index::IndexService>(
      sim_.get(), fabric_.get(), index::IndexService::kOneWayDelay, index::IndexService::kJitter,
      index::IndexService::kSubmitCost, cfg_.index_shards);
  index_->set_shard_service_time(cfg_.index_shard_service_time);
  membership_ = std::make_unique<membership::MembershipService>(sim_.get(), fabric_.get());
  recycler_ = std::make_unique<Recycler>(sim_.get(), membership_.get());
  index_->set_retirement_horizon([r = recycler_.get()] { return r->current_epoch(); },
                                 [r = recycler_.get()] { return r->SafeReclaimBefore(); });
  // §4.5: before the GC forgets a retired layout, every client cache drops
  // its references — the premise the recycler acks claim.
  index_->add_gc_listener([this](const std::shared_ptr<const ObjectLayout>& lo) {
    for (ClientProcess& p : clients_) {
      p.cache->InvalidateLayout(lo.get());
    }
  });
  if (cfg_.store == "fusee") {
    fusee_ = std::make_unique<kv::FuseeStore>(fabric_.get(), cfg_.fusee_recovery);
    fusee_->set_serving(membership_->serving());
  }

  clients_.reserve(static_cast<size_t>(cfg_.num_clients));
  for (int c = 0; c < cfg_.num_clients; ++c) {
    const int64_t max_skew = cfg_.max_clock_skew_ns;
    const int64_t skew = max_skew > 0 ? sim_->rng().Range(-max_skew, max_skew) : 0;
    ClientProcess p = MakeProcess(cfg_.workers_per_client, skew);
    p.cache = std::make_unique<index::ClientCache>(
        cfg_.cache_capacity, /*entry_bytes=*/cfg_.store == "swarm" ? 32 : 24,
        cfg_.seed + static_cast<uint64_t>(c));
    AddSessions(p);
    clients_.push_back(std::move(p));
  }
  if (cfg_.repair) {
    BuildRepair();
  }
  if (cfg_.migration) {
    BuildMigration();
  }
}

ClientProcess Deployment::MakeProcess(int workers, int64_t skew) {
  ClientProcess p;
  p.cpu = std::make_unique<fabric::ClientCpu>(sim_.get());
  auto known_failed =
      std::make_shared<std::vector<bool>>(static_cast<size_t>(fabric_->max_nodes()), false);
  membership_->Subscribe(known_failed);
  auto epoch = std::make_shared<fabric::ClientEpoch>();
  epoch->value = membership_->epoch();
  membership_->SubscribeEpoch(epoch);
  for (int w = 0; w < workers; ++w) {
    ClientWorker cw;
    cw.clock = std::make_unique<GuessClock>(sim_.get(), skew);
    cw.worker = std::make_unique<Worker>(fabric_.get(), next_tid_++, p.cpu.get(), cw.clock.get(),
                                         cfg_.proto, known_failed);
    cw.worker->set_epoch(epoch);
    cw.worker->set_epoch_source([ms = membership_.get()] { return ms->ValidateEpoch(); });
    cw.worker->set_repair_excluded(membership_->repairing());
    p.workers.push_back(std::move(cw));
  }
  return p;
}

void Deployment::AddSessions(ClientProcess& p) {
  for (ClientWorker& cw : p.workers) {
    Worker* w = cw.worker.get();
    if (cfg_.store == "swarm") {
      auto s = std::make_unique<kv::SwarmKvSession>(w, index_.get(), p.cache.get());
      s->set_serving(membership_->serving());
      cw.store = std::move(s);
    } else if (cfg_.store == "dmabd") {
      auto s = std::make_unique<kv::DmAbdKvSession>(w, index_.get(), p.cache.get());
      s->set_serving(membership_->serving());
      cw.store = std::move(s);
    } else if (cfg_.store == "raw") {
      auto s = std::make_unique<kv::RawKvSession>(w, index_.get(), p.cache.get());
      s->set_serving(membership_->serving());
      cw.store = std::move(s);
    } else {
      cw.store = std::make_unique<kv::FuseeKvSession>(w, fusee_.get(), p.cache.get());
    }
    cw.session = std::make_unique<kv::TrackedKvSession>(cw.store.get());
    // The participant's epoch acks drain this session's in-flight ops
    // (RecyclerParticipant::CoupleDrain).
    cw.participant = std::make_unique<RecyclerParticipant>(
        sim_.get(), kFirstParticipantId + w->tid(), kParticipantAckDelay);
    cw.participant->CoupleDrain([s = cw.session.get()] { return s->next_seq(); },
                                [s = cw.session.get()] { return s->oldest_inflight(); });
    recycler_->Register(cw.participant.get());
    sessions_.push_back(cw.session.get());
  }
}

void Deployment::BuildRepair() {
  repair_coordinator_ = MakeProcess(1, 0);
  repair_ = std::make_unique<repair::RepairService>(membership_.get(), repair_worker(),
                                                    *cfg_.repair);
  if (fusee_ != nullptr) {
    repair_->RegisterStore(fusee_.get());  // FUSEE: index-directed log-scan repair.
  } else if (IndexedStore(cfg_.store)) {
    repair_source_ =
        std::make_unique<repair::IndexRepairSource>(index_.get(), LayoutProtocolOf(cfg_.store));
    repair_->RegisterStore(repair_source_.get());
  }
  // An in-flight repair chases out-of-place pointers like a reader but acks
  // no epochs: the recycler's horizon waits for it.
  recycler_->set_repair_gate([r = repair_.get()] { return r->InFlight(); });
}

void Deployment::BuildMigration() {
  migration_coordinator_ = MakeProcess(1, 0);
  repair::MigratableStore* store = fusee_.get();
  if (store == nullptr && IndexedStore(cfg_.store)) {
    migration_source_ = std::make_unique<repair::IndexMigrationSource>(
        index_.get(), LayoutProtocolOf(cfg_.store));
    store = migration_source_.get();
  }
  if (store != nullptr) {
    migration_ = std::make_unique<repair::MigrationService>(membership_.get(), store,
                                                            migration_worker(), *cfg_.migration);
  }
}

void Deployment::PrewarmCaches(uint64_t keys) {
  if (cfg_.cache_capacity != 0) {
    return;
  }
  for (uint64_t key = 0; key < keys; ++key) {
    index::CacheEntry entry;
    if (fusee_ != nullptr) {
      kv::FuseeStore::KeyMeta& meta = fusee_->MetaFor(key);
      const uint64_t word = fabric_->node(meta.primary).LoadWord(meta.index_addr_primary);
      if (word == 0) {
        continue;
      }
      entry.generation = word;
    } else {
      const index::IndexEntry* e = index_->Peek(key);
      if (e == nullptr) {
        continue;
      }
      entry.layout = e->layout;
      entry.generation = e->generation;
    }
    for (ClientProcess& p : clients_) {
      p.cache->Put(key, entry);
    }
  }
}

}  // namespace swarm::deploy
