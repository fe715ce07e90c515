// Unit tests for the ASA accelerator model: CAM accumulate semantics (hit /
// fill / evict per the paper's three outcomes), gather, overflow FIFO, the
// full accumulator's sort_and_merge correctness, and the Fig. 5 cross-check
// of the CAM replay against the degree-histogram coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "asamap/asa/accumulator.hpp"
#include "asamap/asa/cam.hpp"
#include "asamap/benchutil/experiments.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/graph/stats.hpp"
#include "asamap/hashdb/address_space.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/sim/core_model.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using asa::AsaAccumulator;
using asa::Cam;
using asa::CamConfig;
using asa::EvictionPolicy;
using asa::KeyValue;
using sim::NullSink;

CamConfig small_cam(std::uint32_t entries = 16, std::uint32_t ways = 4,
                    EvictionPolicy ev = EvictionPolicy::kLru) {
  CamConfig c;
  c.capacity_entries = entries;
  c.ways = ways;
  c.eviction = ev;
  return c;
}

TEST(Cam, ConfigGeometry) {
  const CamConfig c = small_cam(512, 8);
  EXPECT_EQ(c.sets(), 64u);
  EXPECT_EQ(c.size_bytes(), 8192u);  // the paper's 8 KB CAM
}

TEST(Cam, RejectsBadGeometry) {
  CamConfig c = small_cam(10, 4);  // 10 % 4 != 0
  EXPECT_THROW(Cam{c}, std::logic_error);
  c = small_cam(12, 4);  // 3 sets: not a power of two
  EXPECT_THROW(Cam{c}, std::logic_error);
}

TEST(Cam, HitAccumulatesPartialSum) {
  Cam cam(small_cam());
  EXPECT_FALSE(cam.accumulate(42, 1.0));
  EXPECT_FALSE(cam.accumulate(42, 2.5));
  EXPECT_EQ(cam.occupancy(), 1u);
  EXPECT_EQ(cam.stats().hits, 1u);
  EXPECT_EQ(cam.stats().fills, 1u);

  std::vector<KeyValue> non_of, of;
  cam.gather(non_of, of);
  ASSERT_EQ(non_of.size(), 1u);
  EXPECT_EQ(non_of[0].key, 42u);
  EXPECT_DOUBLE_EQ(non_of[0].value, 3.5);
  EXPECT_TRUE(of.empty());
}

TEST(Cam, FillsFreeWays) {
  Cam cam(small_cam(8, 8));  // fully associative, one set
  for (std::uint32_t k = 0; k < 8; ++k) {
    EXPECT_FALSE(cam.accumulate(k, 1.0));
  }
  EXPECT_EQ(cam.occupancy(), 8u);
  EXPECT_EQ(cam.stats().evictions, 0u);
}

TEST(Cam, EvictsToOverflowFifoWhenFull) {
  Cam cam(small_cam(4, 4));  // fully associative, 4 entries
  for (std::uint32_t k = 0; k < 4; ++k) cam.accumulate(k, double(k));
  EXPECT_TRUE(cam.accumulate(99, 9.0));  // must evict the LRU (key 0)
  EXPECT_EQ(cam.stats().evictions, 1u);
  EXPECT_EQ(cam.overflow_size(), 1u);

  std::vector<KeyValue> non_of, of;
  cam.gather(non_of, of);
  ASSERT_EQ(of.size(), 1u);
  EXPECT_EQ(of[0].key, 0u);
  EXPECT_DOUBLE_EQ(of[0].value, 0.0);
  EXPECT_EQ(non_of.size(), 4u);
}

TEST(Cam, LruPrefersRecentlyAccumulated) {
  Cam cam(small_cam(4, 4));
  for (std::uint32_t k = 0; k < 4; ++k) cam.accumulate(k, 1.0);
  cam.accumulate(0, 1.0);  // refresh key 0 -> key 1 becomes LRU
  cam.accumulate(50, 1.0);
  std::vector<KeyValue> non_of, of;
  cam.gather(non_of, of);
  ASSERT_EQ(of.size(), 1u);
  EXPECT_EQ(of[0].key, 1u);
}

TEST(Cam, FifoEvictsOldestFill) {
  Cam cam(small_cam(4, 4, EvictionPolicy::kFifo));
  for (std::uint32_t k = 0; k < 4; ++k) cam.accumulate(k, 1.0);
  cam.accumulate(0, 1.0);  // hit does NOT refresh FIFO stamp
  cam.accumulate(50, 1.0);
  std::vector<KeyValue> non_of, of;
  cam.gather(non_of, of);
  ASSERT_EQ(of.size(), 1u);
  EXPECT_EQ(of[0].key, 0u);  // oldest fill evicted despite the recent hit
}

TEST(Cam, EvictedKeyCanReappearAsSecondPartial) {
  // An evicted key that recurs creates a second partial sum: one in the
  // FIFO, one live — exactly what sort_and_merge must reconcile.
  Cam cam(small_cam(2, 2));
  cam.accumulate(1, 1.0);
  cam.accumulate(2, 1.0);
  cam.accumulate(3, 1.0);  // evicts 1
  cam.accumulate(1, 5.0);  // evicts 2, re-fills 1
  std::vector<KeyValue> non_of, of;
  cam.gather(non_of, of);
  EXPECT_EQ(of.size(), 2u);
  EXPECT_EQ(non_of.size(), 2u);
}

TEST(Cam, GatherDrainsEverything) {
  Cam cam(small_cam());
  for (std::uint32_t k = 0; k < 30; ++k) cam.accumulate(k, 1.0);
  std::vector<KeyValue> non_of, of;
  cam.gather(non_of, of);
  EXPECT_EQ(cam.occupancy(), 0u);
  EXPECT_EQ(cam.overflow_size(), 0u);
  EXPECT_EQ(non_of.size() + of.size(), 30u);

  // A second gather yields nothing.
  std::vector<KeyValue> non_of2, of2;
  cam.gather(non_of2, of2);
  EXPECT_TRUE(non_of2.empty());
  EXPECT_TRUE(of2.empty());
}

TEST(Cam, SetConflictsEvictBeforeGlobalFull) {
  // 8 entries in 4 sets of 2 ways: 3 keys hashing to one set overflow that
  // set even though the CAM is mostly empty — hash-indexed CAM behaviour.
  Cam cam(small_cam(8, 2));
  int evictions = 0;
  for (std::uint32_t k = 0; k < 64; ++k) {
    if (cam.accumulate(k, 1.0)) ++evictions;
  }
  EXPECT_GT(evictions, 0);
  EXPECT_EQ(cam.stats().accumulates, 64u);
}

// ------------------------------------------------------------- accumulator

TEST(AsaAccumulator, NoOverflowPathMatchesReference) {
  NullSink sink;
  Cam cam(small_cam(64, 8));
  hashdb::AddressSpace addrs;
  AsaAccumulator<NullSink> acc(sink, cam, addrs);

  acc.begin();
  acc.accumulate(5, 1.0);
  acc.accumulate(9, 2.0);
  acc.accumulate(5, 0.25);
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 2u);
  std::unordered_map<std::uint32_t, double> got;
  for (const auto& kv : pairs) got[kv.key] = kv.value;
  EXPECT_DOUBLE_EQ(got[5], 1.25);
  EXPECT_DOUBLE_EQ(got[9], 2.0);
}

TEST(AsaAccumulator, OverflowMergeMatchesReference) {
  // Tiny CAM + many keys: heavy overflow.  Result must still equal the
  // reference accumulation, with each key exactly once.
  NullSink sink;
  Cam cam(small_cam(8, 2));
  hashdb::AddressSpace addrs;
  AsaAccumulator<NullSink> acc(sink, cam, addrs);
  support::Xoshiro256 rng(71);

  std::unordered_map<std::uint32_t, double> ref;
  acc.begin();
  for (int i = 0; i < 5000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(300));
    const double val = rng.next_double();
    acc.accumulate(key, val);
    ref[key] += val;
  }
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), ref.size());
  std::unordered_map<std::uint32_t, int> seen;
  for (const auto& kv : pairs) {
    ++seen[kv.key];
    ASSERT_TRUE(ref.contains(kv.key));
    EXPECT_NEAR(kv.value, ref.at(kv.key), 1e-9);
  }
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1) << key;
}

TEST(AsaAccumulator, OverflowOutputIsSortedByKey) {
  NullSink sink;
  Cam cam(small_cam(4, 2));
  hashdb::AddressSpace addrs;
  AsaAccumulator<NullSink> acc(sink, cam, addrs);
  acc.begin();
  for (std::uint32_t k = 100; k > 0; --k) acc.accumulate(k, 1.0);
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 100u);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i - 1].key, pairs[i].key);
  }
}

TEST(AsaAccumulator, BeginClearsCamAndScratch) {
  NullSink sink;
  Cam cam(small_cam());
  hashdb::AddressSpace addrs;
  AsaAccumulator<NullSink> acc(sink, cam, addrs);
  acc.begin();
  acc.accumulate(1, 1.0);
  (void)acc.finalize();
  acc.begin();
  acc.accumulate(2, 2.0);
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].key, 2u);
}

TEST(AsaAccumulator, EmitsNoBranchesWithoutOverflow) {
  // The whole point of ASA: accumulation itself is branch-free.  Only the
  // final overflow check branches.
  struct BranchCounter : NullSink {
    std::uint64_t branches = 0;
    void branch(sim::BranchSite, bool) { ++branches; }
  };
  BranchCounter sink;
  Cam cam(small_cam(64, 8));
  hashdb::AddressSpace addrs;
  AsaAccumulator<BranchCounter> acc(sink, cam, addrs);
  acc.begin();
  for (std::uint32_t k = 0; k < 32; ++k) acc.accumulate(k, 1.0);
  (void)acc.finalize();
  EXPECT_EQ(sink.branches, 1u);  // just the overflow-empty check
}

TEST(AsaAccumulator, ChargesCyclesToCoreModel) {
  sim::CoreModel core;
  Cam cam(small_cam(4, 2));
  hashdb::AddressSpace addrs;
  AsaAccumulator<sim::CoreModel> acc(core, cam, addrs);
  acc.begin();
  for (std::uint32_t k = 0; k < 100; ++k) acc.accumulate(k, 1.0);
  (void)acc.finalize();
  EXPECT_GT(core.stats().total_instructions(), 100u);
  EXPECT_GT(core.stats().stores, 0u);     // gather writes
  EXPECT_GT(core.stats().branches, 0u);   // sort/merge compares
  EXPECT_GT(core.cycles(), 0.0);
}

TEST(AsaAccumulator, RandomizedAgainstSoftwareAccumulator) {
  // Property: for any accumulation stream, ASA and the chained software
  // accumulator must produce identical key->value maps.
  NullSink sink;
  hashdb::AddressSpace addrs1, addrs2;
  Cam cam(small_cam(16, 4));
  AsaAccumulator<NullSink> asa_acc(sink, cam, addrs1);
  hashdb::ChainedAccumulator<NullSink> sw_acc(sink, addrs2);

  support::Xoshiro256 rng(73);
  for (int round = 0; round < 50; ++round) {
    asa_acc.begin();
    sw_acc.begin();
    const int ops = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < ops; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.next_below(64));
      const double val = rng.next_double();
      asa_acc.accumulate(key, val);
      sw_acc.accumulate(key, val);
    }
    std::unordered_map<std::uint32_t, double> a, b;
    for (const auto& kv : asa_acc.finalize()) a[kv.key] = kv.value;
    for (const auto& kv : sw_acc.finalize()) b[kv.key] = kv.value;
    ASSERT_EQ(a.size(), b.size()) << "round " << round;
    for (const auto& [key, val] : a) {
      ASSERT_TRUE(b.contains(key));
      EXPECT_NEAR(val, b.at(key), 1e-9);
    }
  }
}

TEST(CamCoverage, ReplayMatchesDegreeHistogramAt8KB) {
  // A fully associative CAM evicts exactly when a neighborhood holds more
  // distinct keys than it has entries, so under the identity module map the
  // no-eviction vertex share is the degree-histogram coverage at 512
  // entries — bench_fig5_cam_coverage prints both columns side by side.
  gen::ChungLuParams params;
  params.n = 6000;
  params.target_edges = 150000;
  params.gamma = 2.1;
  params.min_deg = 2;
  const graph::CsrGraph g = gen::chung_lu(params, 509);
  const double histogram =
      graph::coverage_at_capacity(graph::degree_histogram(g), 512);
  ASSERT_LT(histogram, 1.0);  // some hubs must overflow the 8 KB CAM
  const benchutil::CamCoverage replay = benchutil::measure_cam_coverage(g);
  EXPECT_EQ(replay.vertex_share, histogram);
  // With distinct keys every accumulate past the 512th of a neighborhood
  // evicts, and no other one does.
  double arcs = 0.0, overflowing = 0.0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto d = static_cast<double>(g.out_degree(v));
    arcs += d;
    overflowing += std::max(0.0, d - 512.0);
  }
  EXPECT_DOUBLE_EQ(replay.accumulate_share, 1.0 - overflowing / arcs);
}

}  // namespace
