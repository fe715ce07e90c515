// Tests for the native parallel Infomap driver: thread-count invariance,
// engine parity with the new flat accumulator, option parity
// (refine_sweeps / time_wall), trace/breakdown accounting, and
// cross-round verification on graphs larger than one verify round.
//
// This file is also the TSAN target: CI rebuilds it with -fsanitize=thread
// to catch data races in the propose/verify apply path, so every test here
// should exercise the parallel region with >1 thread.

#include <gtest/gtest.h>

#include <atomic>

#include "asamap/core/infomap.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/metrics/partition.hpp"
#include "asamap/obs/metrics.hpp"

namespace {

using namespace asamap;
using core::AccumulatorKind;
using core::InfomapOptions;
using core::InfomapResult;

TEST(ParallelDeterminism, CodelengthInvariantAcrossThreadCounts) {
  const auto pp = gen::planted_partition(2000, 20, 0.2, 0.004, 1301);
  const InfomapResult t1 = core::run_infomap_parallel(pp.graph, {}, 1);
  const InfomapResult t2 = core::run_infomap_parallel(pp.graph, {}, 2);
  const InfomapResult t4 = core::run_infomap_parallel(pp.graph, {}, 4);
  // Proposals are computed against each round's snapshot and applied
  // serially in vertex order, so the thread count must not change the
  // outcome — bitwise.
  EXPECT_EQ(t1.codelength, t2.codelength);
  EXPECT_EQ(t1.codelength, t4.codelength);
  EXPECT_EQ(t1.num_communities, t2.num_communities);
  EXPECT_EQ(t1.num_communities, t4.num_communities);
  EXPECT_EQ(t1.communities, t2.communities);
  EXPECT_EQ(t1.communities, t4.communities);
}

TEST(ParallelDeterminism, RepeatRunsAreIdentical) {
  const auto pp = gen::planted_partition(800, 8, 0.2, 0.01, 1303);
  const InfomapResult a = core::run_infomap_parallel(pp.graph, {}, 4);
  const InfomapResult b = core::run_infomap_parallel(pp.graph, {}, 4);
  EXPECT_EQ(a.communities, b.communities);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}

TEST(ParallelDeterminism, EveryAccumulatorKindMatchesChained) {
  const auto pp = gen::planted_partition(900, 9, 0.2, 0.008, 1307);
  const InfomapResult chained =
      core::run_infomap(pp.graph, {}, AccumulatorKind::kChained);
  for (const AccumulatorKind kind :
       {AccumulatorKind::kOpen, AccumulatorKind::kAsa, AccumulatorKind::kDense,
        AccumulatorKind::kFlat}) {
    const InfomapResult r = core::run_infomap(pp.graph, {}, kind);
    EXPECT_EQ(chained.communities, r.communities);
    EXPECT_NEAR(chained.codelength, r.codelength, 1e-9);
  }
}

TEST(ParallelParity, HonorsRefineSweeps) {
  const auto pp = gen::planted_partition(1500, 30, 0.3, 0.003, 1309);
  InfomapOptions with;
  with.refine_sweeps = 3;
  InfomapOptions without;
  without.refine_sweeps = 0;
  const InfomapResult refined = core::run_infomap_parallel(pp.graph, with, 2);
  const InfomapResult plain = core::run_infomap_parallel(pp.graph, without, 2);
  // Refinement is greedy on exact deltas: it can only improve.
  EXPECT_LE(refined.codelength, plain.codelength + 1e-12);
  // And when it rebases, the hierarchy must stay consistent.
  const auto h = refined.hierarchy();
  ASSERT_FALSE(h.empty());
  EXPECT_EQ(h.coarsest(), refined.communities);
}

TEST(ParallelParity, HonorsTimeWallAndFillsBreakdown) {
  const auto pp = gen::planted_partition(1000, 10, 0.2, 0.005, 1311);
  InfomapOptions opts;
  opts.time_wall = true;
  const InfomapResult r = core::run_infomap_parallel(pp.graph, opts, 2);
  // The per-thread proposal breakdowns must be aggregated, not discarded.
  EXPECT_GT(r.breakdown.vertices, 0u);
  EXPECT_GT(r.breakdown.accumulate_calls, 0u);
  EXPECT_GT(r.breakdown.hash_seconds + r.breakdown.other_seconds, 0.0);
}

TEST(ParallelParity, FillsSweepTraceTimings) {
  const auto pp = gen::planted_partition(1000, 10, 0.2, 0.005, 1313);
  const InfomapResult r = core::run_infomap_parallel(pp.graph, {}, 2);
  ASSERT_FALSE(r.trace.empty());
  for (const auto& st : r.trace) {
    EXPECT_GE(st.wall_seconds, 0.0);
    EXPECT_GE(st.sim_seconds, 0.0);          // slowest thread's propose time
    EXPECT_LE(st.sim_seconds, st.wall_seconds + 1e-6);
  }
  EXPECT_GT(r.trace.front().sim_seconds, 0.0);
}

TEST(ParallelQuality, MatchesSequentialDriver) {
  const auto pp = gen::planted_partition(1200, 12, 0.2, 0.005, 1317);
  const InfomapResult seq = core::run_infomap(pp.graph);
  const InfomapResult par = core::run_infomap_parallel(pp.graph, {}, 4);
  const double nmi = metrics::normalized_mutual_information(
      metrics::Partition(seq.communities.begin(), seq.communities.end()),
      metrics::Partition(par.communities.begin(), par.communities.end()));
  EXPECT_GT(nmi, 0.9);
  EXPECT_LE(par.codelength, seq.codelength * 1.05 + 0.1);
}

TEST(ParallelQuality, DirectedFlowModelWorks) {
  // The directed (PageRank + teleportation) flow model exercises the
  // teleport terms of the O(1) delta replay in the verify phase.
  const auto pp = gen::planted_partition(800, 8, 0.2, 0.01, 1319);
  InfomapOptions opts;
  opts.flow.model = core::FlowModel::kDirected;
  const InfomapResult t1 = core::run_infomap_parallel(pp.graph, opts, 1);
  const InfomapResult t4 = core::run_infomap_parallel(pp.graph, opts, 4);
  EXPECT_EQ(t1.codelength, t4.codelength);
  EXPECT_EQ(t1.communities, t4.communities);
}

// --- Multi-round verify.  The driver verifies proposals in fixed rounds of
// 1024 vertex ids, so graphs above that size exercise cross-round
// verification: later rounds propose against moves applied by earlier
// ones.  n = 20000 gives ~20 rounds at level 0, and 2/4 threads also split
// the contraction's module rows across the team.

const graph::CsrGraph& multi_round_graph() {
  static const graph::CsrGraph g = [] {
    gen::ChungLuParams params;
    params.n = 20000;
    params.target_edges = 120000;
    params.gamma = 2.5;
    params.min_deg = 2;
    return gen::chung_lu(params, 1321);
  }();
  return g;
}

/// A warm start one step off the converged partition: every 97th vertex is
/// moved into a fresh singleton module and seeded, like a delta batch.
struct WarmStart {
  core::Partition partition;
  std::vector<graph::VertexId> seed;
};

WarmStart perturbed_warm_start(const InfomapResult& base) {
  WarmStart w;
  w.partition = base.communities;
  auto next = static_cast<graph::VertexId>(base.num_communities);
  for (graph::VertexId v = 0; v < w.partition.size(); v += 97) {
    w.partition[v] = next++;
    w.seed.push_back(v);
  }
  return w;
}

TEST(ParallelMultiRound, ThreadCountInvariant) {
  const auto& g = multi_round_graph();
  ASSERT_GT(g.num_vertices(), 16u * 1024u);
  const InfomapResult t1 = core::run_infomap_parallel(g, {}, 1);
  const InfomapResult t2 = core::run_infomap_parallel(g, {}, 2);
  const InfomapResult t4 = core::run_infomap_parallel(g, {}, 4);
  EXPECT_EQ(t1.communities, t2.communities);
  EXPECT_EQ(t1.communities, t4.communities);
  EXPECT_EQ(t1.codelength, t2.codelength);
  EXPECT_EQ(t1.codelength, t4.codelength);
  EXPECT_EQ(t1.trace.size(), t4.trace.size());
  EXPECT_GT(t1.num_communities, 1u);
}

TEST(ParallelMultiRound, SeededWarmStartInvariant) {
  const auto& g = multi_round_graph();
  const WarmStart w =
      perturbed_warm_start(core::run_infomap_parallel(g, {}, 2));
  InfomapOptions opts;
  opts.warm_start = &w.partition;
  opts.active_seed = &w.seed;
  const InfomapResult t1 = core::run_infomap_parallel(g, opts, 1);
  const InfomapResult t2 = core::run_infomap_parallel(g, opts, 2);
  const InfomapResult t4 = core::run_infomap_parallel(g, opts, 4);
  EXPECT_EQ(t1.communities, t2.communities);
  EXPECT_EQ(t1.communities, t4.communities);
  EXPECT_EQ(t1.codelength, t2.codelength);
  EXPECT_EQ(t1.codelength, t4.codelength);
  // The re-sweep repairs the perturbation.
  EXPECT_LT(t1.codelength, t1.initial_codelength);
}

TEST(ParallelMultiRound, EveryProposalIsReplayedOrRevalidated) {
  const auto& g = multi_round_graph();
  obs::MetricRegistry reg;
  InfomapOptions opts;
  opts.metrics = &reg;
  const InfomapResult r = core::run_infomap_parallel(g, opts, 4);
  const std::uint64_t proposals =
      reg.counter_total("asamap_parallel_proposals_total");
  const std::uint64_t replays =
      reg.counter_total("asamap_parallel_replays_total");
  const std::uint64_t revalidations =
      reg.counter_total("asamap_parallel_revalidations_total");
  // Proposals are counted by the parallel phase, replays and revalidations
  // by the serial verify: a dropped or doubly-verified proposal breaks the
  // balance.
  EXPECT_EQ(proposals, replays + revalidations);
  EXPECT_GT(replays, 0u);
  EXPECT_GT(revalidations, 0u);
  EXPECT_EQ(proposals, r.breakdown.proposals);
  EXPECT_EQ(revalidations, r.breakdown.revalidations);
}

TEST(ParallelMultiRound, OneThreadQualityMatchesSerialDriver) {
  // Rounds make the parallel driver close to a Gauss-Seidel sweep: later
  // rounds see earlier moves.  Its codelength must not trail the serial
  // driver's by more than 0.1%.
  const auto& g = multi_round_graph();
  const InfomapResult serial =
      core::run_infomap(g, {}, AccumulatorKind::kFlat);
  const InfomapResult par = core::run_infomap_parallel(g, {}, 1);
  EXPECT_LE(par.codelength, serial.codelength * (1.0 + 1e-3));
}

// --- Cooperative cancellation.  A cancel flag set before the run starts
// stops each executor at its first cancel check: the serial executor checks
// before every sweep, the propose/verify executor after every sweep.  Either
// way the run must stop at level 0 and return a consistent partition no
// worse than the start state.

void expect_cancelled_at_level_zero(const graph::CsrGraph& g,
                                    const InfomapResult& r) {
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.levels, 1);
  ASSERT_EQ(r.communities.size(), g.num_vertices());
  for (const graph::VertexId c : r.communities) {
    EXPECT_LT(c, r.num_communities);
  }
  EXPECT_LE(r.codelength, r.initial_codelength);
}

TEST(ParallelCancel, PresetFlagStopsSerialExecutorBeforeFirstSweep) {
  const auto pp = gen::planted_partition(1200, 12, 0.2, 0.005, 1327);
  const std::atomic<bool> cancel{true};
  InfomapOptions opts;
  opts.cancel = &cancel;
  const InfomapResult r = core::run_infomap(pp.graph, opts);
  expect_cancelled_at_level_zero(pp.graph, r);
  // No sweep ran: every vertex is still its own module.
  EXPECT_TRUE(r.trace.empty());
  EXPECT_EQ(r.num_communities, pp.graph.num_vertices());
  EXPECT_EQ(r.codelength, r.initial_codelength);
}

TEST(ParallelCancel, PresetFlagStopsProposeVerifyExecutorAfterFirstSweep) {
  const auto pp = gen::planted_partition(1200, 12, 0.2, 0.005, 1327);
  const std::atomic<bool> cancel{true};
  InfomapOptions opts;
  opts.cancel = &cancel;
  for (const int threads : {1, 2}) {
    const InfomapResult r = core::run_infomap_parallel(pp.graph, opts, threads);
    expect_cancelled_at_level_zero(pp.graph, r);
    EXPECT_EQ(r.trace.size(), 1u) << threads << " threads";
  }
}

}  // namespace
