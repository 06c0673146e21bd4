#include "src/fabric/memory_node.h"

#include <cassert>
#include <cstdio>
#include <cstring>

namespace swarm::fabric {

MemoryNode::MemoryNode(uint64_t capacity_bytes, int id)
    : mem_(static_cast<uint8_t*>(std::calloc(capacity_bytes, 1))), capacity_(capacity_bytes),
      id_(id) {
  if (mem_ == nullptr) {
    std::fprintf(stderr, "memory node %d: cannot back %llu B of node memory\n", id_,
                 static_cast<unsigned long long>(capacity_));
    std::abort();
  }
  extent_.Reset(/*base=*/64, capacity_);  // Address 0 is reserved as null.
  slab_.Reset(&extent_);
}

void MemoryNode::ReadInto(uint64_t addr, std::span<uint8_t> out) const {
  assert(addr + out.size() <= capacity_);
  std::memcpy(out.data(), mem_.get() + addr, out.size());
}

void MemoryNode::WriteFrom(uint64_t addr, std::span<const uint8_t> data) {
  assert(addr + data.size() <= capacity_);
  std::memcpy(mem_.get() + addr, data.data(), data.size());
}

uint64_t MemoryNode::LoadWord(uint64_t addr) const {
  assert(addr % 8 == 0 && addr + 8 <= capacity_);
  uint64_t v;
  std::memcpy(&v, mem_.get() + addr, 8);
  return v;
}

void MemoryNode::StoreWord(uint64_t addr, uint64_t value) {
  assert(addr % 8 == 0 && addr + 8 <= capacity_);
  std::memcpy(mem_.get() + addr, &value, 8);
}

uint64_t MemoryNode::CasWord(uint64_t addr, uint64_t expected, uint64_t desired) {
  const uint64_t prev = LoadWord(addr);
  if (prev == expected) {
    StoreWord(addr, desired);
  }
  return prev;
}

uint64_t MemoryNode::Allocate(uint64_t size, uint64_t align) {
  assert((align & (align - 1)) == 0 && "alignment must be a power of two");
  const uint64_t addr = extent_.Allocate(size, align);
  if (addr == alloc::ExtentAllocator::kNone) {
    OutOfCapacity("Allocate", size);
  }
  // Reused ranges carry old contents; the cluster invariant is that fresh
  // buffers come back zeroed (§5.3.1), so clear on allocation.
  std::memset(mem_.get() + addr, 0, size);
  return addr;
}

void MemoryNode::Free(uint64_t addr, uint64_t size) { extent_.Free(addr, size); }

uint64_t MemoryNode::AllocSlot(uint64_t slot_bytes) {
  const uint64_t addr = slab_.AllocSlot(slot_bytes);
  if (addr == alloc::SlabAllocator::kNone) {
    OutOfCapacity("AllocSlot", slot_bytes);
  }
  std::memset(mem_.get() + addr, 0, slot_bytes);
  return addr;
}

void MemoryNode::OutOfCapacity(const char* what, uint64_t size) const {
  std::fprintf(stderr,
               "memory node %d: out of capacity: %s(%llu B) failed with %llu of %llu B live\n",
               id_, what, static_cast<unsigned long long>(size),
               static_cast<unsigned long long>(extent_.live_bytes()),
               static_cast<unsigned long long>(capacity_));
  std::abort();
}

bool MemoryNode::FreeSlot(uint64_t addr) { return slab_.FreeSlot(addr); }

void MemoryNode::Recover(bool preserve_reservations) {
  failed_ = false;
  // Only touched pages need clearing.
  std::memset(mem_.get(), 0, extent_.high_water());
  if (!preserve_reservations) {
    extent_.Reset(/*base=*/64, capacity_);
    slab_.Reset(&extent_);
  }
}

void MemoryNode::RetireRegion(uint64_t addr, uint64_t len) {
  retired_.Insert(addr, len);
}

void MemoryNode::RestoreRegion(uint64_t addr, uint64_t len) {
  retired_.Remove(addr, len);
}

bool MemoryNode::RegionRetired(uint64_t addr, uint64_t len) const {
  return retired_.Overlaps(addr, len);
}

}  // namespace swarm::fabric
