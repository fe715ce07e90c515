// Parameterized property sweeps (TEST_P): invariants that must hold across
// whole families of configurations — CAM geometries, hash-map shapes,
// generator parameter grids, and map-equation partitions.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <unordered_map>

#include "asamap/asa/accumulator.hpp"
#include "asamap/core/flow.hpp"
#include "asamap/core/infomap.hpp"
#include "asamap/core/map_equation.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/gen/lfr.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/metrics/partition.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using graph::CsrGraph;
using graph::VertexId;
using sim::NullSink;

// ------------------------------------------------- CAM geometry properties

struct CamGeometry {
  std::uint32_t entries;
  std::uint32_t ways;
  asa::EvictionPolicy policy;
};

class CamProperty : public ::testing::TestWithParam<CamGeometry> {};

TEST_P(CamProperty, AccumulationIsLossless) {
  // Whatever the geometry and eviction policy, nothing is ever lost: the
  // merged output equals the reference sum for every key.
  const CamGeometry geom = GetParam();
  asa::CamConfig cfg;
  cfg.capacity_entries = geom.entries;
  cfg.ways = geom.ways;
  cfg.eviction = geom.policy;
  asa::Cam cam(cfg);
  NullSink sink;
  hashdb::AddressSpace addrs;
  asa::AsaAccumulator<NullSink> acc(sink, cam, addrs);

  support::Xoshiro256 rng(geom.entries * 131 + geom.ways);
  std::unordered_map<std::uint32_t, double> ref;
  acc.begin();
  for (int i = 0; i < 3000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(400));
    const double val = rng.next_double() + 0.01;
    acc.accumulate(key, val);
    ref[key] += val;
  }
  const auto pairs = acc.finalize();
  ASSERT_EQ(pairs.size(), ref.size());
  double total_out = 0.0, total_ref = 0.0;
  for (const auto& kv : pairs) {
    ASSERT_TRUE(ref.contains(kv.key));
    EXPECT_NEAR(kv.value, ref.at(kv.key), 1e-9);
    total_out += kv.value;
  }
  for (const auto& [k, v] : ref) total_ref += v;
  EXPECT_NEAR(total_out, total_ref, 1e-7);
}

TEST_P(CamProperty, OccupancyNeverExceedsCapacity) {
  const CamGeometry geom = GetParam();
  asa::CamConfig cfg;
  cfg.capacity_entries = geom.entries;
  cfg.ways = geom.ways;
  cfg.eviction = geom.policy;
  asa::Cam cam(cfg);
  support::Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    cam.accumulate(static_cast<std::uint32_t>(rng.next_below(10000)), 1.0);
    ASSERT_LE(cam.occupancy(), geom.entries);
  }
  // Conservation: every accumulate is a hit, fill, or eviction.
  const auto& s = cam.stats();
  EXPECT_EQ(s.hits + s.fills + s.evictions, s.accumulates);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CamProperty,
    ::testing::Values(
        CamGeometry{8, 2, asa::EvictionPolicy::kLru},
        CamGeometry{16, 4, asa::EvictionPolicy::kLru},
        CamGeometry{64, 8, asa::EvictionPolicy::kLru},
        CamGeometry{512, 8, asa::EvictionPolicy::kLru},
        CamGeometry{512, 16, asa::EvictionPolicy::kLru},
        CamGeometry{64, 64, asa::EvictionPolicy::kLru},
        CamGeometry{64, 8, asa::EvictionPolicy::kFifo},
        CamGeometry{512, 8, asa::EvictionPolicy::kFifo},
        CamGeometry{64, 8, asa::EvictionPolicy::kRandom},
        CamGeometry{512, 8, asa::EvictionPolicy::kRandom}),
    [](const auto& suite_info) {
      const char* pol = suite_info.param.policy == asa::EvictionPolicy::kLru
                            ? "Lru"
                            : suite_info.param.policy == asa::EvictionPolicy::kFifo
                                  ? "Fifo"
                                  : "Random";
      std::string name = "E";
      name += std::to_string(suite_info.param.entries);
      name += 'W';
      name += std::to_string(suite_info.param.ways);
      name += pol;
      return name;
    });

// ------------------------------------------------ hash-map shape properties

class MapShapeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MapShapeProperty, ChainedMatchesReferenceAtAnyInitialSize) {
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedMap<NullSink> map(sink, addrs, GetParam());
  support::Xoshiro256 rng(GetParam() + 17);
  std::unordered_map<std::uint32_t, double> ref;
  for (int i = 0; i < 4000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(700));
    map.accumulate(key, 1.0);
    ref[key] += 1.0;
  }
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const double* got = map.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(*got, v);
  }
}

TEST_P(MapShapeProperty, OpenMatchesReferenceAtAnyInitialSize) {
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::OpenMap<NullSink> map(sink, addrs, GetParam());
  support::Xoshiro256 rng(GetParam() + 19);
  std::unordered_map<std::uint32_t, double> ref;
  for (int i = 0; i < 4000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(700));
    map.accumulate(key, 1.0);
    ref[key] += 1.0;
  }
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const double* got = map.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(InitialSizes, MapShapeProperty,
                         ::testing::Values(1, 2, 8, 16, 64, 1024, 4096));

// ----------------------------------------------- generator sweep properties

struct LfrCase {
  double mu;
  std::uint64_t seed;
};

class LfrProperty : public ::testing::TestWithParam<LfrCase> {};

TEST_P(LfrProperty, MixingIsRealizedAndGraphIsSimple) {
  gen::LfrParams params;
  params.n = 1200;
  params.mu = GetParam().mu;
  const auto lfr = gen::lfr_benchmark(params, GetParam().seed);
  ASSERT_TRUE(lfr.graph.is_symmetric());

  std::uint64_t external = 0, total = 0;
  for (VertexId v = 0; v < lfr.graph.num_vertices(); ++v) {
    for (const graph::Arc& arc : lfr.graph.out_neighbors(v)) {
      ++total;
      if (lfr.ground_truth[v] != lfr.ground_truth[arc.dst]) ++external;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_NEAR(static_cast<double>(external) / total, GetParam().mu, 0.1);
}

INSTANTIATE_TEST_SUITE_P(MixSweep, LfrProperty,
                         ::testing::Values(LfrCase{0.1, 1}, LfrCase{0.2, 2},
                                           LfrCase{0.3, 3}, LfrCase{0.4, 4},
                                           LfrCase{0.5, 5}, LfrCase{0.6, 6}),
                         [](const auto& suite_info) {
                           return "mu" + std::to_string(static_cast<int>(
                                             suite_info.param.mu * 100));
                         });

// ------------------------------------------- map-equation sweep properties

class GammaProperty : public ::testing::TestWithParam<double> {};

TEST_P(GammaProperty, InfomapImprovesOverSingletonsOnPowerLaw) {
  gen::ChungLuParams params;
  params.n = 1500;
  params.target_edges = 8000;
  params.gamma = GetParam();
  params.max_deg = 200;
  const CsrGraph g = gen::chung_lu(params, 211);
  const auto r = core::run_infomap(g);
  // The greedy guarantee: never worse than the all-singleton start.  (The
  // one-module partition can beat both on structureless graphs — greedy
  // local moves cannot always reach it.)
  EXPECT_LT(r.codelength, r.initial_codelength + 1e-9);
  EXPECT_GE(r.num_communities, 1u);
  // Partition covers every vertex with a valid id.
  EXPECT_EQ(r.communities.size(), g.num_vertices());

  // The reported codelength is exactly the map equation of the reported
  // partition over the original network.
  const auto fn = core::build_flow(g);
  core::Partition seed = r.communities;
  core::ModuleState check(fn, seed, r.num_communities);
  EXPECT_NEAR(check.codelength(), r.codelength, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Exponents, GammaProperty,
                         ::testing::Values(2.1, 2.4, 2.7, 3.0, 3.3),
                         [](const auto& suite_info) {
                           return "gamma" + std::to_string(static_cast<int>(
                                                suite_info.param * 10));
                         });

// -------------------------------------------------- flow-sum conservation

class FlowConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservation, NodeFlowSumsToOneOnRandomGraphs) {
  const CsrGraph g = gen::erdos_renyi(800, 0.01, GetParam());
  if (g.num_arcs() == 0) GTEST_SKIP();
  const auto fn = core::build_flow(g);
  const double total =
      std::accumulate(fn.node_flow.begin(), fn.node_flow.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (double p : fn.node_flow) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
