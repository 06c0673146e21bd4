// Shared declaration scaffolding for the lint fixtures. The fixtures are
// LINT inputs, not build inputs — this header keeps them reading like real
// tree code (same type names, same call shapes) without pulling in the
// real headers. The checker never resolves includes; it sees each fixture
// file on its own.

#ifndef SWARM_TOOLS_LINT_FIXTURES_FIXTURE_STUBS_H_
#define SWARM_TOOLS_LINT_FIXTURES_FIXTURE_STUBS_H_

#include <cstdint>
#include <memory>

#define SWARM_HOT_PATH [[clang::annotate("swarm::hot_path")]]

namespace swarm::fixture {

enum class Status : uint8_t { kOk, kNodeFailed, kStaleEpoch, kMovedReplica };
enum class KvStatus : uint8_t { kOk, kNotFound, kUnavailable };

struct OpResult {
  Status status = Status::kOk;
  uint64_t old_value = 0;
  bool ok() const { return status == Status::kOk; }
};

struct KvResult {
  KvStatus status = KvStatus::kUnavailable;
};

namespace sim {
template <typename T>
struct Task {};
void Spawn(Task<void> task);
}  // namespace sim

struct Span {};

struct Qp {
  sim::Task<OpResult> Read(uint64_t addr, Span out);
  sim::Task<OpResult> Write(uint64_t addr, Span data);
  sim::Task<OpResult> Cas(uint64_t addr, uint64_t expected, uint64_t desired);
};

struct Worker {
  sim::Task<int> RefreshEpoch();
  Qp& qp(int node);
};

// Algorithm 7's CAS-max loop (src/swarm/inout.h).
struct Meta {
  uint64_t raw = 0;
};
struct OopPool {};
struct CasMaxResult {
  Status status = Status::kOk;
  bool installed = false;
};
sim::Task<CasMaxResult> CasMax(Qp& qp, OopPool& pool, uint64_t addr, Meta prev, Meta desired,
                               Meta* seen);

// One object's replica records (src/swarm/layout.h) and the shares in one:
// the 8 B handle whose count lives in the layout's block, and the slot-cache
// handle that carries one beside a writer's words.
struct ReplicaLayout {
  uint64_t meta_addr = 0;
  int node = -1;
};
struct ObjectLayout {
  const ReplicaLayout& replica(int r) const;
  int num_replicas = 0;
};
class LayoutPin {
 public:
  const ObjectLayout* get() const;
  const ObjectLayout* operator->() const;
};
class SlotCache {
 public:
  uint64_t& operator[](int r) const;
  const LayoutPin& pin() const;
};

// The quorum engine's awaitable entry points (src/swarm/quorum.h).
struct QuorumPhase {};
struct QuorumVerdict {
  bool reached = false;
};
struct QuorumEngine {
  template <typename Make>
  sim::Task<QuorumVerdict> Escalate(QuorumPhase* ph, Make make) const;
  template <typename Make>
  sim::Task<bool> Broadcast(QuorumPhase* ph, Make make) const;
  template <typename Make>
  sim::Task<bool> Wave(QuorumPhase* ph, int need, Make make) const;
};
sim::Task<void> InstallAt(int replica);

template <typename T>
void DiscardStatus(T&&) {}

KvResult Classify(OpResult r);

}  // namespace swarm::fixture

#endif  // SWARM_TOOLS_LINT_FIXTURES_FIXTURE_STUBS_H_
