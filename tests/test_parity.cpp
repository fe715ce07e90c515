// Accumulator parity: chained (instrumented model) and flat (the native
// engine) must be *observationally identical* engines — same codelength,
// same communities, same per-sweep move sequence — on both structured
// (planted-partition) and power-law (Chung-Lu) inputs.
//
// The two engines emit their pairs in different orders; the kernel's
// tie-breaking makes the decisions order-insensitive, so chained is held to
// exact codelength equality with flat — any drift is a correctness bug, not
// noise.
//
// This file is part of the TSAN CI job: the parallel-driver tests below
// exercise the propose/verify apply path with >1 thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/dist/distributed.hpp"
#include "asamap/dyn/delta_log.hpp"
#include "asamap/dyn/incremental.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/gen/lfr.hpp"
#include "asamap/hashdb/flat_accumulator.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using core::AccumulatorKind;
using core::InfomapResult;

/// Asserts the full per-sweep move sequence matches: same levels, same
/// sweep counts, same move totals, same codelength trajectory.
void expect_same_moves(const InfomapResult& a, const InfomapResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].level, b.trace[i].level) << "sweep " << i;
    EXPECT_EQ(a.trace[i].sweep, b.trace[i].sweep) << "sweep " << i;
    EXPECT_EQ(a.trace[i].moves, b.trace[i].moves) << "sweep " << i;
    EXPECT_EQ(a.trace[i].codelength, b.trace[i].codelength) << "sweep " << i;
  }
}

void expect_engine_parity(const graph::CsrGraph& g) {
  const InfomapResult chained =
      core::run_infomap(g, {}, AccumulatorKind::kChained);
  const InfomapResult flat = core::run_infomap(g, {}, AccumulatorKind::kFlat);

  // Exact, not approximate: the engines must take identical decisions.
  EXPECT_EQ(chained.codelength, flat.codelength);
  EXPECT_EQ(chained.communities, flat.communities);
  EXPECT_EQ(chained.num_communities, flat.num_communities);
  expect_same_moves(chained, flat);
}

TEST(AccumulatorParity, ThreeWayOnPlantedPartition) {
  const auto pp = gen::planted_partition(1500, 15, 0.2, 0.004, 2401);
  expect_engine_parity(pp.graph);
}

TEST(AccumulatorParity, ThreeWayOnChungLu) {
  gen::ChungLuParams params;
  params.n = 4000;
  params.target_edges = 30000;
  params.gamma = 2.5;
  params.min_deg = 2;
  expect_engine_parity(gen::chung_lu(params, 2403));
}

TEST(AccumulatorParity, ThreeWayOnDenseChungLu) {
  // Higher average degree: large neighborhoods grow the flat table mid-cycle
  // and give the tie-breaking many more candidates per vertex.
  gen::ChungLuParams params;
  params.n = 1500;
  params.target_edges = 40000;
  params.gamma = 2.2;
  params.min_deg = 4;
  expect_engine_parity(gen::chung_lu(params, 2407));
}

TEST(AccumulatorParity, ThreeWayUnderWarmStart) {
  // Warm-started runs (incremental reclustering, DESIGN.md §4f) go through
  // the same sweep kernels from a non-singleton start state — the engines
  // must still take identical decisions, active-set seeding included.
  const auto pp = gen::planted_partition(1200, 12, 0.22, 0.005, 2417);
  std::vector<graph::VertexId> seed;
  for (graph::VertexId v = 0; v < 100; ++v) seed.push_back(v * 7 % 1200);
  core::InfomapOptions opts;
  opts.warm_start = &pp.ground_truth;
  opts.active_seed = &seed;
  const InfomapResult chained =
      core::run_infomap(pp.graph, opts, AccumulatorKind::kChained);
  const InfomapResult flat =
      core::run_infomap(pp.graph, opts, AccumulatorKind::kFlat);
  EXPECT_EQ(chained.codelength, flat.codelength);
  EXPECT_EQ(chained.communities, flat.communities);
  expect_same_moves(chained, flat);
  // Both report the warm partition's codelength as the start state.
  EXPECT_EQ(chained.initial_codelength, flat.initial_codelength);
  EXPECT_LE(chained.codelength, chained.initial_codelength + 1e-12);
}

/// Replays `batches` rounds of random edge churn over `g`, re-clustering
/// each merged graph twice — incrementally (warm-started from the previous
/// round's partition, active set seeded from the batch) and from scratch —
/// and asserts the incremental codelength stays within `tolerance` of the
/// from-scratch answer every round (the ISSUE's <= 0.5% quality gate).
void expect_incremental_quality(const graph::CsrGraph& g, std::uint64_t seed,
                                int batches, std::size_t batch_size,
                                double tolerance = 0.005) {
  support::Xoshiro256 rng(seed);
  graph::CsrGraph current = g;
  core::InfomapResult prev = core::run_infomap_parallel(current, {}, 2);
  for (int round = 0; round < batches; ++round) {
    const graph::VertexId n = current.num_vertices();
    std::vector<dyn::DeltaRecord> batch;
    while (batch.size() < batch_size) {
      dyn::DeltaRecord rec;
      if (rng.next_double() < 0.5) {
        // Delete a real arc so communities actually lose internal edges.
        const auto u = static_cast<graph::VertexId>(rng.next_below(n));
        const auto nbrs = current.out_neighbors(u);
        if (nbrs.empty()) continue;
        rec.u = u;
        rec.v = nbrs[rng.next_below(nbrs.size())].dst;
        rec.op = dyn::DeltaOp::kDelEdge;
      } else {
        rec.u = static_cast<graph::VertexId>(rng.next_below(n));
        rec.v = static_cast<graph::VertexId>(rng.next_below(n));
        rec.op = dyn::DeltaOp::kAddEdge;
        rec.weight = 1.0;
      }
      if (rec.u == rec.v) continue;
      batch.push_back(rec);
    }
    const dyn::DeltaView view(current, batch);
    current = view.materialize();

    const dyn::WarmStart plan = dyn::plan_warm_start(
        prev.communities, current.num_vertices(), view.touched());
    core::InfomapOptions warm_opts;
    warm_opts.warm_start = &plan.init;
    warm_opts.active_seed = &plan.active_seed;
    const core::InfomapResult incr =
        core::run_infomap_parallel(current, warm_opts, 2);
    const core::InfomapResult scratch =
        core::run_infomap_parallel(current, {}, 2);
    EXPECT_LE(incr.codelength, scratch.codelength * (1.0 + tolerance))
        << "round " << round;
    prev = incr;
  }
}

TEST(IncrementalQuality, WithinHalfPercentOnPlantedPartitionChurn) {
  const auto pp = gen::planted_partition(1500, 15, 0.2, 0.004, 2421);
  expect_incremental_quality(pp.graph, 2423, /*batches=*/4,
                             /*batch_size=*/60);
}

TEST(IncrementalQuality, WithinHalfPercentOnLfrChurn) {
  gen::LfrParams params;
  params.n = 1200;
  params.mu = 0.25;
  const auto lfr = gen::lfr_benchmark(params, 2427);
  expect_incremental_quality(lfr.graph, 2429, /*batches=*/3,
                             /*batch_size=*/50);
}

// --- Refactor pin -----------------------------------------------------------
//
// Exact outcomes of every driver configuration, recorded from the drivers as
// they stood before the serial, propose/verify and superstep level loops were
// folded into one loop behind a sweep executor (the pre-refactor drivers).
// The sweep bodies were moved, not rewritten, so every value must still match
// bitwise: the codelength as a hex float, the partition as an FNV-1a hash.

/// FNV-1a over the community ids, little-endian 32-bit words.
std::uint64_t fnv1a(const core::Partition& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const graph::VertexId c : p) {
    for (int b = 0; b < 4; ++b) {
      h ^= (c >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void expect_pinned(const char* what, double codelength,
                   const core::Partition& communities, double want_codelength,
                   std::uint64_t want_hash) {
  EXPECT_EQ(codelength, want_codelength)
      << what << ": codelength " << hex(codelength) << " want "
      << hex(want_codelength);
  EXPECT_EQ(fnv1a(communities), want_hash)
      << what << ": hash 0x" << std::hex << fnv1a(communities) << " want 0x"
      << want_hash;
}

/// 20k vertices: enough module rows that multi-thread runs split
/// Convert2SuperNode across the team.
const graph::CsrGraph& pin_graph() {
  static const graph::CsrGraph g = [] {
    gen::ChungLuParams params;
    params.n = 20000;
    params.target_edges = 120000;
    params.gamma = 2.5;
    params.min_deg = 2;
    return gen::chung_lu(params, 2431);
  }();
  return g;
}

graph::CsrGraph small_chung_lu(std::uint64_t seed) {
  gen::ChungLuParams params;
  params.n = 4000;
  params.target_edges = 30000;
  params.gamma = 2.5;
  params.min_deg = 2;
  return gen::chung_lu(params, seed);
}

TEST(RefactorPin, SerialEngines) {
  const graph::CsrGraph g = small_chung_lu(2433);
  const InfomapResult chained =
      core::run_infomap(g, {}, AccumulatorKind::kChained);
  const InfomapResult flat = core::run_infomap(g, {}, AccumulatorKind::kFlat);
  expect_pinned("chained", chained.codelength, chained.communities,
                0x1.5d04121ee90c6p+3, 0xba828b8c0ded194fULL);
  expect_pinned("flat", flat.codelength, flat.communities,
                0x1.5d04121ee90c6p+3, 0xba828b8c0ded194fULL);
}

TEST(RefactorPin, TwoWorkerMultilevelWithRefinement) {
  const graph::CsrGraph g = small_chung_lu(2437);
  hashdb::FlatAccumulator acc0, acc1;
  sim::NullSink sink0, sink1;
  using W = core::Worker<hashdb::FlatAccumulator, sim::NullSink>;
  W workers[2] = {W{&acc0, &sink0}, W{&acc1, &sink1}};
  core::InfomapOptions opts;
  opts.refine_sweeps = 2;
  opts.interleave_block = 256;
  const InfomapResult r =
      core::run_multilevel(g, opts, std::span<W>(workers, 2));
  EXPECT_GT(r.levels, 1);
  expect_pinned("2-worker", r.codelength, r.communities, 0x1.4bd1a24c3da6ep+3,
                0xd8054cd7e9a0cc8fULL);
}

TEST(RefactorPin, ParallelThreadCounts) {
  const double want_codelength = 0x1.96360459d3a28p+3;
  const std::uint64_t want_hash = 0x5d3556c4498ee976ULL;
  for (const int threads : {1, 2, 4}) {
    const InfomapResult r =
        core::run_infomap_parallel(pin_graph(), {}, threads);
    expect_pinned(threads == 1   ? "parallel 1t"
                  : threads == 2 ? "parallel 2t"
                                 : "parallel 4t",
                  r.codelength, r.communities, want_codelength, want_hash);
  }
}

TEST(RefactorPin, ParallelVerifyCounts) {
  // How the serial verify settles each proposal — an O(1) replay, or a
  // revalidation because a neighbor moved earlier in the round — depends
  // only on which vertices the round's moves touched, never on the thread
  // count or on how the conflict detector records it.
  for (const int threads : {1, 2, 4}) {
    const InfomapResult r =
        core::run_infomap_parallel(pin_graph(), {}, threads);
    SCOPED_TRACE(threads);
    EXPECT_EQ(r.breakdown.proposals, 32852u);
    EXPECT_EQ(r.breakdown.replays, 26001u);
    EXPECT_EQ(r.breakdown.revalidations, 6851u);
    EXPECT_EQ(r.breakdown.moves, 31076u);
    EXPECT_EQ(r.breakdown.accumulate_calls, 4597230u);
  }
}

TEST(RefactorPin, WarmSeededBelowAndAboveLocalRepair) {
  const graph::CsrGraph& g = pin_graph();
  const InfomapResult base = core::run_infomap_parallel(g, {}, 2);
  // Perturb the warm partition so the seeded re-sweep has work to do.
  core::Partition warm = base.communities;
  std::vector<graph::VertexId> small_seed, large_seed;
  for (graph::VertexId v = 0; v < 200; ++v) small_seed.push_back(v * 97 % 20000);
  for (graph::VertexId v = 0; v < 2000; ++v) large_seed.push_back(v * 7 % 20000);
  for (const graph::VertexId v : small_seed) warm[v] = warm[(v + 1) % 20000];
  core::InfomapOptions opts;
  opts.warm_start = &warm;

  opts.active_seed = &small_seed;  // 1% <= 5%: local repair
  const InfomapResult below = core::run_infomap_parallel(g, opts, 2);
  EXPECT_EQ(below.levels, 1);
  expect_pinned("warm below", below.codelength, below.communities,
                0x1.96377accc4d9ap+3, 0x355a5c670b5fccefULL);

  opts.active_seed = &large_seed;  // 10% > 5%: full hierarchy rebuild
  const InfomapResult above = core::run_infomap_parallel(g, opts, 2);
  EXPECT_GT(above.levels, 1);
  expect_pinned("warm above", above.codelength, above.communities,
                0x1.966345209a621p+3, 0xe0fbc756fd0aa277ULL);
}

TEST(RefactorPin, DistributedRanks) {
  const graph::CsrGraph g = small_chung_lu(2439);
  dist::DistOptions opts;
  opts.num_ranks = 1;
  const dist::DistResult one = dist::run_distributed_infomap(g, opts);
  expect_pinned("dist 1 rank", one.codelength, one.communities,
                0x1.556cf0441e7aap+3, 0x12a2f16d6d530f11ULL);
  EXPECT_EQ(one.total_messages, 0u);
  opts.num_ranks = 4;
  const dist::DistResult four = dist::run_distributed_infomap(g, opts);
  expect_pinned("dist 4 ranks", four.codelength, four.communities,
                0x1.556cf0441e7aap+3, 0x12a2f16d6d530f11ULL);
  // Message accounting is part of the superstep executor, pin it too.
  EXPECT_EQ(four.levels, 4);
  EXPECT_EQ(four.trace.size(), 29u);
  EXPECT_EQ(four.total_messages, 245u);
  EXPECT_EQ(four.total_bytes, 585776u);
}

/// FNV-1a over every out-arc then every in-arc: dst as a little-endian
/// 32-bit word, weight as its 64-bit pattern.
std::uint64_t fnv1a_arcs(const graph::CsrGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_arcs = [&mix](std::span<const graph::Arc> arcs) {
    for (const graph::Arc& a : arcs) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &a.weight, sizeof(bits));
      mix(a.dst, 4);
      mix(bits, 8);
    }
  };
  mix(g.num_vertices(), 4);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    mix_arcs(g.out_neighbors(u));
  }
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    mix_arcs(g.in_neighbors(u));
  }
  return h;
}

TEST(RefactorPin, ServedIncrementalApplyRounds) {
  // Five rounds of mutations, each folded and re-clustered by an
  // incremental APPLY: pins the served graph the folds produce and the
  // partition the warm-started runs reach on it.  Recorded with the
  // edge-list fold (edge vector -> from_edges), before materialize spliced
  // rows straight into the CSR arrays.
  serve::SessionConfig config;
  config.cluster_threads = 1;
  config.scheduler.workers = 1;
  serve::ServeSession session(config);
  ASSERT_TRUE(session.gen_chung_lu("g", 20000, 120000, 2441).ok());
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");
  support::Xoshiro256 rng(2443);
  for (int round = 0; round < 5; ++round) {
    const auto current = session.registry().get("g");
    ASSERT_NE(current, nullptr);
    const graph::VertexId n = current->num_vertices();
    for (int i = 0; i < 300; ++i) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const auto nbrs = current->out_neighbors(u);
      if (i % 3 == 0 && !nbrs.empty()) {
        const graph::VertexId v = nbrs[rng.next_below(nbrs.size())].dst;
        ASSERT_TRUE(session.del_edge("g", u, v).ok());
        if (i % 9 == 0) {
          ASSERT_TRUE(session.add_edge("g", u, v, 0.5).ok());
        }
        continue;
      }
      // One endpoint per round lands past n, so the graph grows.
      const auto v = i == 1 ? n : static_cast<graph::VertexId>(rng.next_below(n));
      if (u == v) continue;
      ASSERT_TRUE(session.add_edge("g", u, v, 0.25 + rng.next_double()).ok());
    }
    const std::string resp = session.handle_line("APPLY g recluster=incr sync");
    ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
    ASSERT_NE(resp.find("state=done"), std::string::npos) << resp;
    EXPECT_NE(resp.find("mode=incr"), std::string::npos) << resp;
  }
  const auto snap = session.snapshot("g");
  ASSERT_NE(snap, nullptr);
  const auto served = session.registry().get("g");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->num_vertices(), 20005u);
  expect_pinned("served incr", snap->codelength, snap->communities,
                0x1.8fbfae8dd1c98p+3, 0x1cc5ce3e8b9bfeb2ULL);
  EXPECT_EQ(fnv1a_arcs(*served), 0x6175ad77953241daULL)
      << "arcs hash 0x" << std::hex << fnv1a_arcs(*served);
}

}  // namespace
