// A layout (src/swarm/layout.h) is one heap block sized to its replica
// count: an 8 B geometry word, the share count and first writer, the chain
// of later writers' words, then 8 B per replica record and 8 B per inline
// slot-cache word. The replica record keeps the slot base, the node and
// whether the slot holds the in-place region; the in-place and TSL regions'
// addresses are derived from the geometry. These tests pin that the derived
// addresses reproduce AllocateObject's [meta | in-place | tsl] packing over
// the geometries the stores and benches use, that a node id, node size or
// geometry the packed fields cannot hold aborts instead of truncating, and
// how a layout holds its writers' slot-cache words: zeroed words per
// writer, the first inline and later ones chained and freed with the block,
// none in a grafted replacement, and a LayoutPin that keeps the block alive.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/swarm/layout.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;

static_assert(sizeof(ReplicaLayout) == 8, "slot base, node and in-place bit in one word");
static_assert(sizeof(LayoutGeometry) == 8, "replicas, slots, writers and value size in one word");
static_assert(sizeof(LayoutPin) == 8, "a layout share is one pointer");
static_assert(ObjectLayout::BlockBytes(3) == 72,
              "3 records and 3 inline words behind a 24 B header: an 80 B malloc chunk");

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
          const LayoutPin pin = AllocateObject(env.fabric, nodes, replicas, meta_slots, kWriters,
                                               max_value, inplace_copies);
          const ObjectLayout& l = *pin;
          EXPECT_EQ(l.num_replicas, replicas);
          EXPECT_EQ(l.meta_slots, meta_slots);
          EXPECT_EQ(l.max_writers, kWriters);
          EXPECT_EQ(l.max_value, max_value);
          const uint64_t meta = static_cast<uint64_t>(meta_slots) * 8;
          const uint64_t inplace_padded = (kInPlaceHeaderBytes + max_value + 7) & ~uint64_t{7};
          const uint64_t tsl = static_cast<uint64_t>(kWriters) * 8;
          for (int r = 0; r < replicas; ++r) {
            const ReplicaLayout& rep = l.replica(r);
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
  const LayoutPin l = AllocateObject(env.fabric, nodes, 3, /*meta_slots=*/8192, 8, 64);
  EXPECT_EQ(l->meta_slots, 8192);
  EXPECT_EQ(l->inplace_addr(l->replica(0)), l->replica(0).meta_addr + 8192 * 8);
  EXPECT_FALSE(l->replica(1).has_inplace());
  EXPECT_EQ(l->tsl_addr(l->replica(1)), l->replica(1).meta_addr + 8192 * 8);
}

TEST(ReplicaLayoutDeathTest, GeometryTheRecordCannotHoldAborts) {
  TestEnv env;
  const int far[3] = {0, 1, 40000};
  EXPECT_DEATH(AllocateObject(env.fabric, far, 3, 4, 8, 64), "node id 40000 does not fit");
  const int nodes[3] = {0, 1, 2};
  CheckReplicaRecordFits(nodes, 3, 8ull << 30);  // The largest node configured anywhere.
  EXPECT_DEATH(CheckReplicaRecordFits(nodes, 3, uint64_t{1} << 48),
               "node capacity 281474976710656 does not fit");
  EXPECT_DEATH(AllocateObject(env.fabric, nodes, 3, /*meta_slots=*/16384, 8, 64),
               "meta_slots 16384 does not fit the geometry word");
  EXPECT_DEATH(AllocateObject(env.fabric, nodes, 3, 4, /*max_writers=*/16384, 64),
               "max_writers 16384 does not fit the geometry word");
  const int nine[9] = {0, 1, 2, 3, 0, 1, 2, 3, 0};
  EXPECT_DEATH(AllocateObject(env.fabric, nine, 9, 4, 8, 64),
               "replica count 9 does not fit the geometry word");
}

// A writer's first SlotCacheFor gets num_replicas zeroed words; later calls
// return the same words.
TEST(SlotWords, ABlockHoldsNumReplicasZeroedWordsThatPersist) {
  TestEnv env(1, SevenNodes());
  Worker& w = env.MakeWorker();
  const int nodes[kMaxReplicas] = {0, 1, 2, 3, 4, 5, 6, 0};
  for (int replicas = 1; replicas <= 7; ++replicas) {
    const LayoutPin l = AllocateObject(env.fabric, nodes, replicas, 4, 8, 64);
    SlotCache words = w.SlotCacheFor(l);
    for (int r = 0; r < replicas; ++r) {
      EXPECT_TRUE(words[r].empty()) << replicas << " replicas, word " << r;
      words[r] = Meta::Pack(10 + static_cast<uint32_t>(r), 0, true, 0);
    }
    SlotCache again = w.SlotCacheFor(l);
    for (int r = 0; r < replicas; ++r) {
      EXPECT_EQ(again[r], Meta::Pack(10 + static_cast<uint32_t>(r), 0, true, 0));
    }
  }
}

TEST(SlotWords, TwoWritersWordsAreDistinct) {
  TestEnv env;
  Worker& a = env.MakeWorker();
  Worker& b = env.MakeWorker();
  const LayoutPin l = env.MakeObject();
  SlotCache wa = a.SlotCacheFor(l);
  SlotCache wb = b.SlotCacheFor(l);
  EXPECT_NE(&wa[0], &wb[0]);
  wa[1] = Meta::Pack(7, a.tid(), false, 0);
  EXPECT_TRUE(wb[1].empty());
  EXPECT_EQ(a.SlotCacheFor(l)[1], Meta::Pack(7, a.tid(), false, 0));
}

// The first writer's words are the block's own; each later writer's are a
// chained block that starts zeroed, is found again by its writer, and is
// freed with the layout.
TEST(SlotWords, ALaterWritersWordsStartZeroedAndAreFreedWithTheBlock) {
  TestEnv env;
  Worker& first = env.MakeWorker();
  Worker& second = env.MakeWorker();
  Worker& third = env.MakeWorker();
  const ObjectLayout::Live before = ObjectLayout::live();
  LayoutPin l = env.MakeObject();
  first.SlotCacheFor(l)[0] = Meta::Pack(1, first.tid(), true, 0);
  EXPECT_EQ(ObjectLayout::live().layouts, before.layouts + 1);
  EXPECT_EQ(ObjectLayout::live().word_blocks, before.word_blocks)
      << "the first writer's words are the block's own";
  for (Worker* w : {&second, &third}) {
    SlotCache words = w->SlotCacheFor(l);
    for (int r = 0; r < l->num_replicas; ++r) {
      EXPECT_TRUE(words[r].empty()) << "writer " << w->tid() << ", word " << r;
      words[r] = Meta::Pack(2 + static_cast<uint32_t>(r), w->tid(), false, 0);
    }
  }
  EXPECT_EQ(ObjectLayout::live().word_blocks, before.word_blocks + 2);
  EXPECT_EQ(second.SlotCacheFor(l)[2], Meta::Pack(4, second.tid(), false, 0));
  EXPECT_EQ(first.SlotCacheFor(l)[0], Meta::Pack(1, first.tid(), true, 0));
  l.reset();
  EXPECT_EQ(ObjectLayout::live().layouts, before.layouts);
  EXPECT_EQ(ObjectLayout::live().word_blocks, before.word_blocks);
}

// A migration's replacement layout (GraftReplica) is a block of its own: it
// shares the records of the slots it keeps, but none of the original's words.
TEST(SlotWords, AGraftedLayoutHasNoWords) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  Worker& other = env.MakeWorker();
  const LayoutPin l = env.MakeObject();  // Nodes 0, 1, 2.
  w.SlotCacheFor(l)[0] = Meta::Pack(3, w.tid(), true, 0);
  other.SlotCacheFor(l)[1] = Meta::Pack(4, other.tid(), true, 0);
  const LayoutPin graft = GraftReplica(env.fabric, *l, /*r=*/1, /*dest=*/3);
  EXPECT_EQ(graft->replica(0).meta_addr, l->replica(0).meta_addr);
  EXPECT_EQ(graft->replica(1).node, 3);
  EXPECT_EQ(graft->replica(2).meta_addr, l->replica(2).meta_addr);
  for (Worker* writer : {&w, &other}) {
    SlotCache grafted = writer->SlotCacheFor(graft);
    EXPECT_NE(&grafted[0], &writer->SlotCacheFor(l)[0]);
    for (int r = 0; r < graft->num_replicas; ++r) {
      EXPECT_TRUE(grafted[r].empty()) << "writer " << writer->tid() << ", word " << r;
    }
  }
  EXPECT_EQ(w.SlotCacheFor(l)[0], Meta::Pack(3, w.tid(), true, 0));
  EXPECT_EQ(other.SlotCacheFor(l)[1], Meta::Pack(4, other.tid(), true, 0));
}

// A handle on a shared layout's words shares the layout's ownership: the
// layout and its words live until the last handle is gone.
TEST(SlotWords, AHandlePinsItsLayout) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const uint64_t live = ObjectLayout::live().layouts;
  LayoutPin layout = env.MakeObject();
  EXPECT_EQ(layout.use_count(), 1u);
  SlotCache words = w.SlotCacheFor(layout);
  EXPECT_EQ(layout.use_count(), 2u);
  EXPECT_EQ(words.pin(), layout);
  layout.reset();
  ASSERT_EQ(ObjectLayout::live().layouts, live + 1);
  EXPECT_EQ(words.pin().use_count(), 1u);
  words[2] = Meta::Pack(9, w.tid(), false, 0);  // Still the layout's memory.
  words = nullptr;
  EXPECT_EQ(ObjectLayout::live().layouts, live);
}

}  // namespace
}  // namespace swarm
