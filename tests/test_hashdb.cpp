// Unit + property tests for the instrumented hash maps: functional
// correctness against std::unordered_map, and instrumentation sanity (the
// event streams behave the way collision theory says they should).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "asamap/hashdb/address_space.hpp"
#include "asamap/hashdb/chained_map.hpp"
#include "asamap/hashdb/flat_accumulator.hpp"
#include "asamap/hashdb/open_map.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/sim/event_sink.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using hashdb::AddressSpace;
using sim::NullSink;

/// Sink that counts events, for instrumentation assertions.
struct CountingSink {
  std::uint64_t instr = 0, branches = 0, taken = 0, loads = 0, stores = 0;
  void instructions(std::uint64_t n) { instr += n; }
  void branch(sim::BranchSite, bool t) {
    ++branches;
    if (t) ++taken;
  }
  void load(std::uint64_t, std::uint32_t) { ++loads; }
  void store(std::uint64_t, std::uint32_t) { ++stores; }
  void load_stream(std::uint64_t, std::uint32_t) { ++loads; }
  void load_dependent(std::uint64_t, std::uint32_t) { ++loads; }
};
static_assert(sim::EventSink<CountingSink>);

TEST(AddressSpace, ArraysAreDisjointAndAligned) {
  AddressSpace a;
  const std::uint64_t r1 = a.alloc_array(100);
  const std::uint64_t r2 = a.alloc_array(100);
  EXPECT_GE(r2, r1 + 100);
  EXPECT_EQ(r1 % 64, 0u);
  EXPECT_EQ(r2 % 64, 0u);
}

TEST(AddressSpace, NodesScatterAcrossHeap) {
  AddressSpace a;
  std::uint64_t prev = a.alloc_node();
  int adjacent = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t addr = a.alloc_node();
    if (addr / 64 == prev / 64 + 1 || addr / 64 + 1 == prev / 64) ++adjacent;
    prev = addr;
  }
  EXPECT_LT(adjacent, 10);  // consecutive allocations rarely share lines
}

template <typename Map>
void check_against_std(Map& map, std::uint64_t seed, int ops, int key_range) {
  support::Xoshiro256 rng(seed);
  std::unordered_map<std::uint32_t, double> ref;
  for (int i = 0; i < ops; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(key_range));
    const double val = rng.next_double();
    map.accumulate(key, val);
    ref[key] += val;
  }
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [key, val] : ref) {
    const double* found = map.find(key);
    ASSERT_NE(found, nullptr) << "missing key " << key;
    EXPECT_NEAR(*found, val, 1e-9);
  }
  // Absent keys stay absent.
  const double* absent =
      map.find(static_cast<std::uint32_t>(key_range + 123));
  EXPECT_EQ(absent, nullptr);
}

TEST(ChainedMap, MatchesStdUnorderedMap) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedMap<NullSink> map(sink, addrs);
  check_against_std(map, 101, 20000, 500);
}

TEST(ChainedMap, SurvivesHeavyCollisions) {
  // A tiny initial table forces many rehashes.
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedMap<NullSink> map(sink, addrs, /*initial_buckets=*/2);
  check_against_std(map, 103, 5000, 5000);
  EXPECT_GE(map.bucket_count(), map.size());
}

TEST(ChainedMap, ForEachVisitsEverythingOnce) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedMap<NullSink> map(sink, addrs);
  for (std::uint32_t k = 0; k < 100; ++k) map.accumulate(k, k * 1.0);
  std::unordered_map<std::uint32_t, int> seen;
  double sum = 0.0;
  map.for_each([&](std::uint32_t k, double v) {
    ++seen[k];
    sum += v;
  });
  EXPECT_EQ(seen.size(), 100u);
  for (const auto& [k, count] : seen) EXPECT_EQ(count, 1) << k;
  EXPECT_NEAR(sum, 99.0 * 100.0 / 2.0, 1e-9);
}

TEST(ChainedMap, ClearGivesFreshTable) {
  // Algorithm 1 declares the map per vertex, so clear() models destroy +
  // construct: the bucket array shrinks back to the initial size.
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedMap<NullSink> map(sink, addrs, 16);
  for (std::uint32_t k = 0; k < 1000; ++k) map.accumulate(k, 1.0);
  EXPECT_GT(map.bucket_count(), 16u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.bucket_count(), 16u);
  EXPECT_EQ(map.find(5), nullptr);
  map.accumulate(5, 2.0);
  EXPECT_NE(map.find(5), nullptr);
}

TEST(OpenMap, MatchesStdUnorderedMap) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::OpenMap<NullSink> map(sink, addrs);
  check_against_std(map, 107, 20000, 500);
}

TEST(OpenMap, GrowsUnderLoad) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::OpenMap<NullSink> map(sink, addrs, 8);
  for (std::uint32_t k = 0; k < 1000; ++k) map.accumulate(k, 1.0);
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_GE(map.capacity(), 1000u * 10 / 7);
}

TEST(OpenMap, ForEachMatchesContents) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::OpenMap<NullSink> map(sink, addrs);
  for (std::uint32_t k = 10; k < 60; ++k) map.accumulate(k, 0.5);
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t k, double v) {
    EXPECT_GE(k, 10u);
    EXPECT_LT(k, 60u);
    EXPECT_DOUBLE_EQ(v, 0.5);
    ++visited;
  });
  EXPECT_EQ(visited, 50u);
}

TEST(Instrumentation, ChainedEmitsBranchPerProbe) {
  CountingSink sink;
  AddressSpace addrs;
  hashdb::ChainedMap<CountingSink> map(sink, addrs, 1024);
  map.accumulate(1, 1.0);
  const std::uint64_t b1 = sink.branches;
  // A hit on a singleton chain: bucket-empty branch + key-compare branch.
  map.accumulate(1, 1.0);
  EXPECT_EQ(sink.branches - b1, 2u);
}

TEST(Instrumentation, LongerChainsMeanMoreEvents) {
  // Force all keys into one logical chain shape by measuring totals: with a
  // fixed element count, a smaller table (longer chains) must emit more
  // branch and load events on lookups.
  auto events_with_buckets = [](std::size_t buckets) {
    CountingSink sink;
    AddressSpace addrs;
    hashdb::ChainedMap<CountingSink> map(sink, addrs, buckets);
    // Insert without triggering rehash past the requested size: keep the
    // count below the bucket count for the big case only.  For the
    // comparison we measure find()s, which never rehash.
    for (std::uint32_t k = 0; k < 512; ++k) map.accumulate(k, 1.0);
    const std::uint64_t before = sink.loads + sink.branches;
    for (std::uint32_t k = 0; k < 512; ++k) map.find(k);
    return sink.loads + sink.branches - before;
  };
  // 512 elements: a 1024-bucket table has short chains; rehash growth stops
  // at >= element count either way, so compare 1024 vs 4096 buckets.
  EXPECT_GT(events_with_buckets(1024), events_with_buckets(4096));
}

TEST(Instrumentation, OpenMapProbesLengthenWithLoad) {
  CountingSink sink;
  AddressSpace addrs;
  hashdb::OpenMap<CountingSink> map(sink, addrs, 4096);
  for (std::uint32_t k = 0; k < 2000; ++k) map.accumulate(k, 1.0);
  const std::uint64_t loads_lo = sink.loads;
  for (std::uint32_t k = 0; k < 2000; ++k) map.find(k);
  const std::uint64_t find_loads_lo = sink.loads - loads_lo;
  // At ~50% load, average probes/find must be < 3 but > 1.
  EXPECT_GT(find_loads_lo, 2000u);
  EXPECT_LT(find_loads_lo, 6000u);
}

TEST(Accumulators, ChainedFinalizeMatchesAccumulation) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  acc.begin();
  acc.accumulate(3, 1.0);
  acc.accumulate(7, 2.0);
  acc.accumulate(3, 0.5);
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 2u);
  std::unordered_map<std::uint32_t, double> got;
  for (const auto& kv : pairs) got[kv.key] = kv.value;
  EXPECT_NEAR(got[3], 1.5, 1e-12);
  EXPECT_NEAR(got[7], 2.0, 1e-12);
  EXPECT_EQ(acc.distinct(), 2u);
}

TEST(Accumulators, BeginResetsState) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::OpenAccumulator<NullSink> acc(sink, addrs);
  acc.begin();
  acc.accumulate(1, 1.0);
  EXPECT_EQ(acc.finalize().size(), 1u);
  acc.begin();
  acc.accumulate(2, 1.0);
  acc.accumulate(4, 1.0);
  const auto pairs = acc.finalize();
  EXPECT_EQ(pairs.size(), 2u);
  for (const auto& kv : pairs) EXPECT_NE(kv.key, 1u);
}

TEST(Accumulators, FinalizeIsIdempotent) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  acc.begin();
  acc.accumulate(9, 4.0);
  const auto p1 = acc.finalize();
  const auto p2 = acc.finalize();
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(p1.data(), p2.data());  // same scratch, not re-materialized
}

// --- FlatAccumulator: the uninstrumented native fast path.

TEST(FlatAccumulator, AccumulatesAndMerges) {
  hashdb::FlatAccumulator acc;
  acc.begin();
  acc.accumulate(7, 1.5);
  acc.accumulate(3, 2.0);
  acc.accumulate(7, 0.5);
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(acc.distinct(), 2u);
  // First-touch order: 7 before 3.
  EXPECT_EQ(pairs[0].key, 7u);
  EXPECT_DOUBLE_EQ(pairs[0].value, 2.0);
  EXPECT_EQ(pairs[1].key, 3u);
  EXPECT_DOUBLE_EQ(pairs[1].value, 2.0);
}

TEST(FlatAccumulator, SparseResetDiscardsPreviousCycle) {
  hashdb::FlatAccumulator acc;
  acc.begin();
  acc.accumulate(1, 1.0);
  acc.accumulate(2, 1.0);
  acc.begin();
  acc.accumulate(2, 5.0);  // same key as last cycle: must start from zero
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].key, 2u);
  EXPECT_DOUBLE_EQ(pairs[0].value, 5.0);
}

TEST(FlatAccumulator, GrowsPastInitialCapacity) {
  hashdb::FlatAccumulator acc(8);
  acc.begin();
  for (std::uint32_t k = 0; k < 10000; ++k) acc.accumulate(k, 1.0);
  EXPECT_EQ(acc.distinct(), 10000u);
  EXPECT_GE(acc.capacity(), 10000u);
  double sum = 0.0;
  for (const auto& kv : acc.finalize()) sum += kv.value;
  EXPECT_DOUBLE_EQ(sum, 10000.0);
}

TEST(FlatAccumulator, GrowPreservesRunningSums) {
  hashdb::FlatAccumulator acc(8);
  acc.begin();
  // Interleave inserts (forcing growth) with re-accumulations of key 0.
  for (std::uint32_t k = 0; k < 1000; ++k) {
    acc.accumulate(k, 1.0);
    acc.accumulate(0, 1.0);
  }
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 1000u);
  EXPECT_EQ(pairs[0].key, 0u);
  EXPECT_DOUBLE_EQ(pairs[0].value, 1001.0);
}

TEST(FlatAccumulator, ManyCyclesStayCheapAndCorrect) {
  // The epoch-stamped sparse reset must keep every cycle independent even
  // after far more cycles than slots.
  hashdb::FlatAccumulator acc(16);
  support::SplitMix64 rng(12345);
  for (int cycle = 0; cycle < 5000; ++cycle) {
    acc.begin();
    std::unordered_map<std::uint32_t, double> ref;
    for (int i = 0; i < 8; ++i) {
      const auto key = static_cast<std::uint32_t>(rng() % 64);
      const double val = static_cast<double>(rng() % 100) / 10.0;
      acc.accumulate(key, val);
      ref[key] += val;
    }
    const auto pairs = acc.finalize();
    ASSERT_EQ(pairs.size(), ref.size());
    for (const auto& kv : pairs) {
      ASSERT_TRUE(ref.count(kv.key));
      EXPECT_NEAR(kv.value, ref[kv.key], 1e-12);
    }
  }
}

TEST(FlatAccumulator, TrailReplayEqualsSecondPass) {
  // One traced pass plus a replay of the same values must leave every pair
  // bitwise where two plain passes leave it, growth in between included.
  // Key 4's values make doubling its first-pass sum differ from adding them
  // again: 2 * (0.1 + 0.2 + 0.001) != 0.1 + 0.2 + 0.001 + 0.1 + 0.2 + 0.001.
  const std::uint32_t keys[] = {4, 11, 4, 23, 11, 4, 37, 23, 11};
  const double values[] = {0.1, 0.3, 0.2, 3.3, 1.0 / 3.0, 0.001, 0.7, 0.05,
                           1e-3};
  hashdb::FlatAccumulator traced(8);
  hashdb::FlatAccumulator twice(8);
  traced.begin();
  twice.begin();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < std::size(keys); ++i) {
      if (pass == 0) traced.accumulate_traced(keys[i], values[i]);
      twice.accumulate(keys[i], values[i]);
    }
  }
  traced.replay(values);
  EXPECT_GT(traced.capacity(), 8u);  // grew between trail and replay

  const auto a = traced.finalize();
  const auto b = twice.finalize();
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].value),
              std::bit_cast<std::uint64_t>(b[i].value))
        << "key " << a[i].key;
  }
  ASSERT_EQ(a[0].key, 4u);
  const double once = (0.1 + 0.2) + 0.001;
  EXPECT_NE(a[0].value, 2.0 * once);
  EXPECT_EQ(a[0].value, ((once + 0.1) + 0.2) + 0.001);

  // The next cycle starts a fresh trail.
  traced.begin();
  traced.accumulate_traced(9, 1.5);
  const double again[] = {2.0};
  traced.replay(again);
  ASSERT_EQ(traced.finalize().size(), 1u);
  EXPECT_EQ(traced.finalize()[0].value, 3.5);
}

TEST(FlatAccumulator, MatchesChainedAccumulatorAsMultiset) {
  NullSink sink;
  AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> chained(sink, addrs);
  hashdb::FlatAccumulator flat;
  support::SplitMix64 rng(777);
  for (int cycle = 0; cycle < 50; ++cycle) {
    chained.begin();
    flat.begin();
    const int ops = 1 + static_cast<int>(rng() % 200);
    for (int i = 0; i < ops; ++i) {
      const auto key = static_cast<std::uint32_t>(rng() % 128);
      const double val = static_cast<double>(rng() % 1000) / 100.0;
      chained.accumulate(key, val);
      flat.accumulate(key, val);
    }
    std::unordered_map<std::uint32_t, double> a, b;
    for (const auto& kv : chained.finalize()) a[kv.key] = kv.value;
    for (const auto& kv : flat.finalize()) b[kv.key] = kv.value;
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, value] : a) {
      ASSERT_TRUE(b.count(key));
      EXPECT_NEAR(value, b[key], 1e-12);
    }
  }
}

}  // namespace
