// The replica record (src/swarm/layout.h) keeps each replica in 8 B: the
// slot base, the node and whether the slot holds the in-place region. The
// in-place and TSL regions' addresses are derived from the layout's
// geometry. These tests pin that the derived addresses reproduce
// AllocateObject's [meta | in-place | tsl] packing over the geometries the
// stores and benches use, that a node id or node size the record cannot
// hold aborts instead of truncating an address, and how a layout holds its
// writers' slot-cache words: a zeroed block per writer, none in a copy, and
// a handle that pins the layout.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/swarm/layout.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;

static_assert(sizeof(ReplicaLayout) == 8, "slot base, node and in-place bit in one word");
static_assert(sizeof(ObjectLayout) <= 88, "8 replica records, 16 B of geometry, a word-list head");

fabric::FabricConfig SevenNodes() {
  fabric::FabricConfig cfg = TestEnv::DefaultFabric();
  cfg.num_nodes = 7;
  cfg.node_capacity_bytes = 64ull << 20;
  return cfg;
}

TEST(ReplicaLayout, OffsetsReproduceTheSlotPacking) {
  TestEnv env(1, SevenNodes());
  const int nodes[kMaxReplicas] = {0, 1, 2, 3, 4, 5, 6, 0};
  constexpr int kWriters = 8;
  for (int replicas = 1; replicas <= 7; ++replicas) {
    for (int inplace_copies = 0; inplace_copies <= 2; ++inplace_copies) {
      for (int meta_slots : {1, 16, 64}) {
        for (uint32_t max_value : {8u, 64u, 1024u, 65536u}) {
          SCOPED_TRACE("replicas=" + std::to_string(replicas) +
                       " inplace_copies=" + std::to_string(inplace_copies) +
                       " meta_slots=" + std::to_string(meta_slots) +
                       " max_value=" + std::to_string(max_value));
          const ObjectLayout l = AllocateObject(env.fabric, nodes, replicas, meta_slots,
                                                kWriters, max_value, inplace_copies);
          const uint64_t meta = static_cast<uint64_t>(meta_slots) * 8;
          const uint64_t inplace_padded = (kInPlaceHeaderBytes + max_value + 7) & ~uint64_t{7};
          const uint64_t tsl = static_cast<uint64_t>(kWriters) * 8;
          for (int r = 0; r < replicas; ++r) {
            const ReplicaLayout& rep = l.replicas[static_cast<size_t>(r)];
            const bool with_inplace = r < inplace_copies;
            const auto [base, len] = l.replica_slot(r);
            EXPECT_EQ(rep.node, nodes[r]);
            EXPECT_EQ(rep.has_inplace(), with_inplace);
            EXPECT_EQ(base, rep.meta_addr);
            EXPECT_EQ(len, meta + (with_inplace ? inplace_padded : 0) + tsl);
            // [meta | in-place | tsl]: each region starts where the previous
            // one ends, and the TSL region ends at the slot's end.
            if (with_inplace) {
              EXPECT_EQ(l.inplace_addr(rep), base + meta);
              EXPECT_LE(l.inplace_addr(rep) + l.inplace_region_bytes(), l.tsl_addr(rep));
            }
            EXPECT_EQ(l.tsl_addr(rep), base + meta + (with_inplace ? inplace_padded : 0));
            EXPECT_EQ(l.tsl_addr(rep) + l.tsl_region_bytes(), base + len);
          }
        }
      }
    }
  }
}

// A 64 KiB metadata array (8,192 slots) packs like any other: the record
// stores no offset, so nothing in it bounds the geometry.
TEST(ReplicaLayout, WideMetaRegionPacks) {
  TestEnv env;
  const int nodes[3] = {0, 1, 2};
  const ObjectLayout l = AllocateObject(env.fabric, nodes, 3, /*meta_slots=*/8192, 8, 64);
  EXPECT_EQ(l.inplace_addr(l.replicas[0]), l.replicas[0].meta_addr + 8192 * 8);
  EXPECT_FALSE(l.replicas[1].has_inplace());
  EXPECT_EQ(l.tsl_addr(l.replicas[1]), l.replicas[1].meta_addr + 8192 * 8);
}

TEST(ReplicaLayoutDeathTest, GeometryTheRecordCannotHoldAborts) {
  TestEnv env;
  const int far[3] = {0, 1, 40000};
  EXPECT_DEATH(AllocateObject(env.fabric, far, 3, 4, 8, 64), "node id 40000 does not fit");
  const int nodes[3] = {0, 1, 2};
  CheckReplicaRecordFits(nodes, 3, 8ull << 30);  // The largest node configured anywhere.
  EXPECT_DEATH(CheckReplicaRecordFits(nodes, 3, uint64_t{1} << 48),
               "node capacity 281474976710656 does not fit");
}

// A writer's first SlotCacheFor creates a zeroed block of num_replicas
// words; later calls return the same words.
TEST(SlotWords, ABlockHoldsNumReplicasZeroedWordsThatPersist) {
  TestEnv env(1, SevenNodes());
  Worker& w = env.MakeWorker();
  const int nodes[kMaxReplicas] = {0, 1, 2, 3, 4, 5, 6, 0};
  for (int replicas = 1; replicas <= 7; ++replicas) {
    const ObjectLayout l = AllocateObject(env.fabric, nodes, replicas, 4, 8, 64);
    SlotCache words = w.SlotCacheFor(&l);
    for (int r = 0; r < replicas; ++r) {
      EXPECT_TRUE(words[r].empty()) << replicas << " replicas, word " << r;
      words[r] = Meta::Pack(10 + static_cast<uint32_t>(r), 0, true, 0);
    }
    SlotCache again = w.SlotCacheFor(&l);
    for (int r = 0; r < replicas; ++r) {
      EXPECT_EQ(again[r], Meta::Pack(10 + static_cast<uint32_t>(r), 0, true, 0));
    }
  }
}

TEST(SlotWords, TwoWritersWordsAreDistinct) {
  TestEnv env;
  Worker& a = env.MakeWorker();
  Worker& b = env.MakeWorker();
  const ObjectLayout l = env.MakeObject();
  SlotCache wa = a.SlotCacheFor(&l);
  SlotCache wb = b.SlotCacheFor(&l);
  EXPECT_NE(&wa[0], &wb[0]);
  wa[1] = Meta::Pack(7, a.tid(), false, 0);
  EXPECT_TRUE(wb[1].empty());
  EXPECT_EQ(a.SlotCacheFor(&l)[1], Meta::Pack(7, a.tid(), false, 0));
}

// A copy (a migration's replacement layout starts as one) addresses slots of
// its own, so it carries none of the original's words.
TEST(SlotWords, ACopiedLayoutHasNoWords) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const ObjectLayout l = env.MakeObject();
  w.SlotCacheFor(&l)[0] = Meta::Pack(3, w.tid(), true, 0);
  const ObjectLayout copy = l;
  SlotCache copied = w.SlotCacheFor(&copy);
  EXPECT_NE(&copied[0], &w.SlotCacheFor(&l)[0]);
  for (int r = 0; r < copy.num_replicas; ++r) {
    EXPECT_TRUE(copied[r].empty()) << "word " << r;
  }
  EXPECT_EQ(w.SlotCacheFor(&l)[0], Meta::Pack(3, w.tid(), true, 0));
}

// A handle on a shared layout's words shares the layout's ownership: the
// layout and its words live until the last handle is gone.
TEST(SlotWords, AHandlePinsItsLayout) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  auto layout = std::make_shared<const ObjectLayout>(env.MakeObject());
  const std::weak_ptr<const ObjectLayout> watch = layout;
  SlotCache words = w.SlotCacheFor(layout);
  EXPECT_EQ(watch.use_count(), 2);
  layout.reset();
  ASSERT_FALSE(watch.expired());
  words[2] = Meta::Pack(9, w.tid(), false, 0);  // Still the layout's memory.
  words = nullptr;
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace swarm
