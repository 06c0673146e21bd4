// Tests for the latency histogram: percentile accuracy (log-linear buckets
// guarantee <~3.2% relative error), CDF generation, and merging. Also covers
// the client cache (LFU behaviour) and the index service.

#include <gtest/gtest.h>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"

namespace swarm {
namespace {

TEST(Histogram, EmptyIsZero) {
  stats::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.MeanUs(), 0.0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(Histogram, ExactForSmallValues) {
  stats::LatencyHistogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), 9);
}

TEST(Histogram, PercentileRelativeErrorBounded) {
  stats::LatencyHistogram h;
  // Uniform ramp 1..100000 ns: percentiles are easy to predict.
  for (int i = 1; i <= 100000; ++i) {
    h.Record(i);
  }
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double expect = p / 100.0 * 100000;
    const double got = static_cast<double>(h.Percentile(p));
    EXPECT_NEAR(got, expect, expect * 0.04 + 2) << "p" << p;
  }
  EXPECT_NEAR(h.MeanUs(), 50.0, 0.2);
}

TEST(Histogram, CdfIsMonotonic) {
  stats::LatencyHistogram h;
  sim::Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    h.Record(static_cast<sim::Time>(rng.Below(1000000)));
  }
  auto cdf = h.Cdf(50);
  EXPECT_FALSE(cdf.empty());
  EXPECT_LE(cdf.size(), 52u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_NEAR(cdf.back().second, 100.0, 0.01);
}

TEST(Histogram, MergeEquivalentToCombinedRecording) {
  stats::LatencyHistogram a;
  stats::LatencyHistogram b;
  stats::LatencyHistogram combined;
  sim::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<sim::Time>(rng.Below(50000));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.Percentile(50), combined.Percentile(50));
  EXPECT_EQ(a.Percentile(99), combined.Percentile(99));
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.min(), combined.min());
}

TEST(Histogram, ResetClears) {
  stats::LatencyHistogram h;
  h.Record(100);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

// ---------- ClientCache ----------

TEST(ClientCache, UnboundedNeverEvicts) {
  index::ClientCache cache(0, 32);
  for (uint64_t k = 0; k < 1000; ++k) {
    cache.Put(k, index::CacheEntry{});
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.ModeledBytes(), 32000u);
}

TEST(ClientCache, BoundedEvictsAtCapacity) {
  index::ClientCache cache(100, 24);
  for (uint64_t k = 0; k < 250; ++k) {
    cache.Put(k, index::CacheEntry{});
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 150u);
}

TEST(ClientCache, LfuKeepsHotEntries) {
  index::ClientCache cache(50, 24);
  // Make keys 0..9 hot.
  for (uint64_t k = 0; k < 50; ++k) {
    cache.Put(k, index::CacheEntry{});
  }
  for (int round = 0; round < 40; ++round) {
    for (uint64_t k = 0; k < 10; ++k) {
      (void)cache.Lookup(k);
    }
  }
  // Insert 200 cold keys: evictions must mostly spare the hot ten.
  for (uint64_t k = 1000; k < 1200; ++k) {
    cache.Put(k, index::CacheEntry{});
  }
  int hot_survivors = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    hot_survivors += cache.Lookup(k) != nullptr ? 1 : 0;
  }
  EXPECT_GE(hot_survivors, 8) << "approximate LFU should retain hot keys";
}

TEST(ClientCache, HitMissAccounting) {
  index::ClientCache cache;
  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Put(1, index::CacheEntry{});
  EXPECT_NE(cache.Lookup(1), nullptr);
  cache.Invalidate(1);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ClientCache, EntriesForBudgetMatchesPaperAccounting) {
  // §7.1: 5 MiB caches, 24 B entries (DM-ABD/FUSEE) vs 32 B (SWARM-KV):
  // 21.8% vs 16.4% of 1M keys.
  const size_t small = index::ClientCache::EntriesForBudget(5ull << 20, 24);
  const size_t large = index::ClientCache::EntriesForBudget(5ull << 20, 32);
  EXPECT_NEAR(static_cast<double>(small) / 1e6, 0.218, 0.002);
  EXPECT_NEAR(static_cast<double>(large) / 1e6, 0.164, 0.002);
}

// ---------- IndexService ----------

TEST(IndexService, InsertLookupRemoveRoundtrip) {
  sim::Simulator sim;
  index::IndexService index(&sim);
  bool done = false;
  auto driver = [](sim::Simulator* /*sim*/, index::IndexService* index, bool* done2) -> sim::Task<void> {
    const LayoutPin layout = ObjectLayout::Build(LayoutGeometry{}, nullptr);
    auto [inserted, entry] = co_await index->InsertIfAbsent(7, layout, nullptr);
    EXPECT_TRUE(inserted);

    auto [again, existing] = co_await index->InsertIfAbsent(7, layout, nullptr);
    EXPECT_FALSE(again);
    EXPECT_EQ(existing.generation, entry.generation);

    auto found = co_await index->Lookup(7, nullptr);
    EXPECT_TRUE(found.has_value());

    // Wrong generation: the unmap must be refused (a newer mapping wins).
    EXPECT_FALSE(co_await index->RemoveIfGeneration(7, entry.generation + 5, nullptr));
    EXPECT_TRUE(co_await index->RemoveIfGeneration(7, entry.generation, nullptr));
    auto gone = co_await index->Lookup(7, nullptr);
    EXPECT_FALSE(gone.has_value());
    *done2 = true;
  };
  sim::Spawn(driver(&sim, &index, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(IndexService, LookupCostsOneRoundtrip) {
  sim::Simulator sim;
  index::IndexService index(&sim, /*fabric=*/nullptr, 700, 0, 200);
  sim::Time latency = 0;
  auto driver = [](sim::Simulator* sim, index::IndexService* index,
                   sim::Time* lat) -> sim::Task<void> {
    const sim::Time t0 = sim->Now();
    (void)co_await index->Lookup(1, nullptr);
    *lat = sim->Now() - t0;
  };
  sim::Spawn(driver(&sim, &index, &latency));
  sim.Run();
  EXPECT_EQ(latency, 1400);
}

}  // namespace
}  // namespace swarm
