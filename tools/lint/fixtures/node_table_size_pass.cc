// MUST-PASS fixture for swarm-node-table-size: the fixed shapes size every
// per-node table to the node-id space, max_nodes(), when its owner is built,
// and num_nodes() only bounds loops over the nodes present now.

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
  explicit LogSession(Fabric* fabric)
      : log_slots_(static_cast<size_t>(fabric->max_nodes()), 0) {}

  uint32_t LogSlot(int node) { return log_slots_[static_cast<size_t>(node)]; }

 private:
  std::vector<uint32_t> log_slots_;
};

class RepairCoordinator {
 public:
  explicit RepairCoordinator(Fabric* fabric)
      : resuming_(static_cast<size_t>(fabric->max_nodes()), false),
        lifecycle_gen_(static_cast<size_t>(fabric->max_nodes()), 0) {}

 private:
  std::vector<bool> resuming_;
  std::vector<uint64_t> lifecycle_gen_;
};

std::shared_ptr<std::vector<bool>> KnownFailedView(const Fabric& fabric) {
  auto view = std::make_shared<std::vector<bool>>(static_cast<size_t>(fabric.max_nodes()), false);
  view->assign(static_cast<size_t>(fabric.max_nodes()), false);
  return view;
}

// Iterating the nodes present now is fine: nothing is sized by the count.
int CountServing(const Fabric& fabric, const std::vector<bool>& serving) {
  int n = 0;
  for (int i = 0; i < fabric.num_nodes(); ++i) {
    n += serving[static_cast<size_t>(i)] ? 1 : 0;
  }
  return fabric.num_nodes() > 0 ? n : 0;
}

}  // namespace swarm::fixture
