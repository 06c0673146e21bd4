// MUST-TRIP fixture for swarm-node-table-size.
//
// Reconstructs the two hot-add sizing bugs. A FUSEE session sized its
// per-node log-slot table at the node count of its first write, so a node
// admitted later (Fabric::AddNode) indexed past it: an ASan heap overflow.
// The repair coordinator sized its per-node lifecycle tables at
// construction from the same count and needed a lazy growth path for
// admitted nodes.

#include <cstdint>
#include <memory>
#include <vector>

#include "fixture_stubs.h"

namespace swarm::fixture {

struct Fabric {
  int num_nodes() const;
  int max_nodes() const;
};

class LogSession {
 public:
  explicit LogSession(Fabric* fabric) : fabric_(fabric) {}

  uint32_t LogSlot(int node) {
    if (log_slots_.empty()) {
      // trip: sized to the nodes present at the first write.
      log_slots_.resize(static_cast<size_t>(fabric_->num_nodes()), 0);
    }
    return log_slots_[static_cast<size_t>(node)];
  }

 private:
  Fabric* fabric_;
  std::vector<uint32_t> log_slots_;
};

class RepairCoordinator {
 public:
  // trip (x2): member initializers sized to the nodes present at
  // construction.
  explicit RepairCoordinator(Fabric* fabric)
      : resuming_(static_cast<size_t>(fabric->num_nodes()), false),
        lifecycle_gen_(static_cast<size_t>(fabric->num_nodes()), 0) {}

 private:
  std::vector<bool> resuming_;
  std::vector<uint64_t> lifecycle_gen_;
};

// trip: a shared view built at the current node count.
std::shared_ptr<std::vector<bool>> KnownFailedView(const Fabric& fabric) {
  return std::make_shared<std::vector<bool>>(static_cast<size_t>(fabric.num_nodes()), false);
}

}  // namespace swarm::fixture
