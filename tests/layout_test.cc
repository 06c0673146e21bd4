// The replica record (src/swarm/layout.h) keeps each replica in 16 B: the
// node, the slot base and the in-place and TSL regions as narrow offsets
// from that base. These tests pin that the offsets reproduce AllocateObject's
// [meta | in-place | tsl] packing over the geometries the stores and benches
// use, and that a geometry the record cannot hold aborts instead of
// truncating an address.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/swarm/layout.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;

static_assert(sizeof(ObjectLayout) == 144, "8 replica records + 16 B of geometry");

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
              EXPECT_EQ(rep.inplace_addr(), base + meta);
              EXPECT_LE(rep.inplace_addr() + l.inplace_region_bytes(), rep.tsl_addr());
            }
            EXPECT_EQ(rep.tsl_addr(), base + meta + (with_inplace ? inplace_padded : 0));
            EXPECT_EQ(rep.tsl_addr() + l.tsl_region_bytes(), base + len);
          }
        }
      }
    }
  }
}

// The widest metadata array the 16-bit in-place offset holds still packs.
TEST(ReplicaLayout, LargestMetaRegionStillFits) {
  TestEnv env;
  const int nodes[3] = {0, 1, 2};
  const ObjectLayout l = AllocateObject(env.fabric, nodes, 3, /*meta_slots=*/8191, 8, 64);
  EXPECT_EQ(l.replicas[0].inplace_addr(), l.replicas[0].meta_addr + 8191 * 8);
  EXPECT_FALSE(l.replicas[1].has_inplace());
}

TEST(ReplicaLayoutDeathTest, GeometryTheRecordCannotHoldAborts) {
  TestEnv env;
  const int nodes[3] = {0, 1, 2};
  EXPECT_DEATH(AllocateObject(env.fabric, nodes, 3, /*meta_slots=*/8192, 8, 64),
               "meta region bytes 65536 does not fit");
  EXPECT_DEATH(AllocateObject(env.fabric, nodes, 3, 4, 8, /*max_value=*/UINT32_MAX),
               "meta \\+ in-place region bytes .* does not fit");
  const int far[3] = {0, 1, 40000};
  EXPECT_DEATH(AllocateObject(env.fabric, far, 3, 4, 8, 64), "node id 40000 does not fit");
}

}  // namespace
}  // namespace swarm
