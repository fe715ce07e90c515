// Tests for the FindBestCommunity kernel: move quality, accumulator
// equivalence (Algorithm 1 vs Algorithm 2 must make identical decisions),
// and instrumentation attribution.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "asamap/asa/accumulator.hpp"
#include "asamap/core/dense_accumulator.hpp"
#include "asamap/core/kernel.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/graph/edge_list.hpp"
#include "asamap/hashdb/flat_accumulator.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/sim/core_model.hpp"

namespace {

using namespace asamap;
using core::FlowNetwork;
using core::KernelBreakdown;
using core::KernelCosts;
using core::LevelAddresses;
using core::ModuleState;
using graph::CsrGraph;
using graph::EdgeList;
using graph::VertexId;
using sim::NullSink;

CsrGraph two_triangles_bridge() {
  EdgeList e;
  e.add_undirected(0, 1);
  e.add_undirected(1, 2);
  e.add_undirected(0, 2);
  e.add_undirected(3, 4);
  e.add_undirected(4, 5);
  e.add_undirected(3, 5);
  e.add_undirected(2, 3);
  e.coalesce();
  return CsrGraph::from_edges(e);
}

TEST(Kernel, SweepMergesTriangles) {
  const CsrGraph g = two_triangles_bridge();
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn);
  const double initial = state.codelength();

  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  const KernelCosts costs;
  KernelBreakdown bd;

  // A few sweeps must merge each triangle into one module.
  for (int s = 0; s < 5; ++s) {
    core::sweep_range(state, fn, 0, g.num_vertices(), acc, sink, la, costs,
                      bd);
    state.recompute();
  }
  EXPECT_LT(state.codelength(), initial);
  EXPECT_EQ(state.module_of(0), state.module_of(1));
  EXPECT_EQ(state.module_of(1), state.module_of(2));
  EXPECT_EQ(state.module_of(3), state.module_of(4));
  EXPECT_EQ(state.module_of(4), state.module_of(5));
  EXPECT_LE(state.live_modules(), 2u);
}

TEST(Kernel, EveryAppliedMoveImprovesCodelength) {
  const auto pp = gen::planted_partition(300, 6, 0.2, 0.01, 3);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);

  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  const KernelCosts costs;
  KernelBreakdown bd;

  double prev = state.codelength();
  for (VertexId v = 0; v < fn.num_nodes(); ++v) {
    const bool moved =
        core::find_best_community(state, fn, v, acc, sink, la, costs, bd);
    if (moved) {
      EXPECT_LT(state.codelength(), prev + 1e-12) << "vertex " << v;
    } else {
      EXPECT_NEAR(state.codelength(), prev, 1e-12);
    }
    prev = state.codelength();
  }
  EXPECT_GT(bd.moves, 0u);
}

template <typename MakeAcc>
core::Partition run_two_sweeps(const FlowNetwork& fn, MakeAcc&& make) {
  NullSink sink;
  hashdb::AddressSpace addrs;
  auto acc = make(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  const KernelCosts costs;
  KernelBreakdown bd;
  ModuleState state(fn);
  for (int s = 0; s < 2; ++s) {
    core::sweep_range(state, fn, 0, fn.num_nodes(), *acc, sink, la, costs, bd);
    state.recompute();
  }
  return state.assignment();
}

TEST(Kernel, AllAccumulatorsProduceIdenticalDecisions) {
  // The central functional claim: swapping the accumulation engine changes
  // performance, never results.  Identical partitions after identical
  // sweeps, on a graph large enough to exercise CAM overflow.
  gen::ChungLuParams params;
  params.n = 2000;
  params.target_edges = 12000;
  params.gamma = 2.3;
  params.max_deg = 300;
  const CsrGraph g = gen::chung_lu(params, 41);
  const FlowNetwork fn = core::build_flow(g);

  const auto chained = run_two_sweeps(fn, [](auto& sink, auto& addrs) {
    return std::make_unique<hashdb::ChainedAccumulator<NullSink>>(sink,
                                                                  addrs);
  });
  const auto open = run_two_sweeps(fn, [](auto& sink, auto& addrs) {
    return std::make_unique<hashdb::OpenAccumulator<NullSink>>(sink, addrs);
  });
  const auto dense = run_two_sweeps(fn, [&](auto& sink, auto& addrs) {
    return std::make_unique<core::DenseAccumulator<NullSink>>(
        sink, addrs, g.num_vertices());
  });

  asa::Cam cam(asa::CamConfig{});  // 512 entries; overflow on big hubs
  const auto asa_part = run_two_sweeps(fn, [&](auto& sink, auto& addrs) {
    return std::make_unique<asa::AsaAccumulator<NullSink>>(sink, cam, addrs);
  });

  EXPECT_EQ(chained, open);
  EXPECT_EQ(chained, dense);
  EXPECT_EQ(chained, asa_part);
}

TEST(Kernel, TinyCamStillProducesIdenticalDecisions) {
  // Even a pathologically small CAM (heavy overflow, constant
  // sort_and_merge) must not change any decision.
  const auto pp = gen::planted_partition(500, 10, 0.15, 0.01, 43);
  const FlowNetwork fn = core::build_flow(pp.graph);

  const auto chained = run_two_sweeps(fn, [](auto& sink, auto& addrs) {
    return std::make_unique<hashdb::ChainedAccumulator<NullSink>>(sink,
                                                                  addrs);
  });
  asa::CamConfig cfg;
  cfg.capacity_entries = 8;
  cfg.ways = 2;
  asa::Cam cam(cfg);
  const auto asa_part = run_two_sweeps(fn, [&](auto& sink, auto& addrs) {
    return std::make_unique<asa::AsaAccumulator<NullSink>>(sink, cam, addrs);
  });
  EXPECT_EQ(chained, asa_part);
}

TEST(Kernel, BreakdownAttributesCycles) {
  const auto pp = gen::planted_partition(400, 8, 0.1, 0.01, 47);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);

  sim::CoreModel core_model;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<sim::CoreModel> acc(core_model, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  const KernelCosts costs;
  KernelBreakdown bd;

  core::sweep_range(state, fn, 0, fn.num_nodes(), acc, core_model, la, costs,
                    bd);
  EXPECT_GT(bd.hash_cycles, 0.0);
  EXPECT_GT(bd.other_cycles, 0.0);
  // Total attribution must equal the core's cycle count (everything the
  // sweep charged went to one of the two buckets).
  EXPECT_NEAR(bd.hash_cycles + bd.other_cycles, core_model.cycles(),
              core_model.cycles() * 1e-9 + 1.0);
  EXPECT_EQ(bd.vertices, fn.num_nodes());
  EXPECT_GT(bd.accumulate_calls, 0u);
}

TEST(Kernel, HashPhaseDominatesWithSoftwareHash) {
  // The paper's Fig. 2b: hash operations are ~50-65% of FindBestCommunity.
  // On the simulated core the chained accumulator must take a large share.
  gen::ChungLuParams params;
  params.n = 3000;
  params.target_edges = 30000;
  params.gamma = 2.3;
  params.max_deg = 400;
  const CsrGraph g = gen::chung_lu(params, 53);
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn);

  sim::CoreModel core_model;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<sim::CoreModel> acc(core_model, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  KernelBreakdown bd;
  core::sweep_range(state, fn, 0, fn.num_nodes(), acc, core_model, la,
                    KernelCosts{}, bd);
  const double share = bd.hash_cycles / (bd.hash_cycles + bd.other_cycles);
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.9);
}

TEST(Kernel, WallTimingPopulatedWhenRequested) {
  const auto pp = gen::planted_partition(200, 4, 0.1, 0.02, 59);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  KernelBreakdown bd;
  core::sweep_range(state, fn, 0, fn.num_nodes(), acc, sink, la,
                    KernelCosts{}, bd, /*time_wall=*/true);
  EXPECT_GT(bd.hash_seconds, 0.0);
  EXPECT_GT(bd.other_seconds, 0.0);
}

TEST(Kernel, EvaluateMoveMatchesBruteForceDeltaMove) {
  // evaluate_move hoists the source-module terms out of its candidate loop
  // and reads the target's cached terms; a plain loop over the same
  // candidates calling delta_move must pick the same target with the same
  // delta and flows, bit for bit, while the state evolves under the moves.
  gen::ChungLuParams params;
  params.n = 2000;
  params.target_edges = 12000;
  params.gamma = 2.3;
  params.max_deg = 300;
  const CsrGraph g = gen::chung_lu(params, 61);
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn);

  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::FlatAccumulator acc;
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  const KernelCosts costs;
  KernelBreakdown bd;

  std::uint64_t candidates = 0;
  std::uint64_t moves = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (VertexId v = 0; v < fn.num_nodes(); ++v) {
      const core::MoveProposal p =
          core::evaluate_move(state, fn, v, acc, sink, la, costs, bd);

      // The same accumulation, replayed to list the candidates.
      acc.begin();
      const auto outs = g.out_neighbors(v);
      for (std::size_t i = 0; i < outs.size(); ++i) {
        acc.accumulate(state.module_of(outs[i].dst),
                       fn.out_flow[g.out_offset(v) + i]);
      }
      const auto ins = g.in_neighbors(v);
      for (std::size_t i = 0; i < ins.size(); ++i) {
        acc.accumulate(state.module_of(ins[i].dst),
                       fn.in_flow()[g.in_offset(v) + i]);
      }
      const auto pairs = acc.finalize();

      const VertexId current = state.module_of(v);
      double flow_current = 0.0;
      for (const hashdb::KeyValue& kv : pairs) {
        if (kv.key == current) flow_current = kv.value;
      }
      ModuleState::MoveFlows best_flows;
      best_flows.out_to_current = flow_current / 2.0;
      best_flows.in_from_current = flow_current / 2.0;
      constexpr double kTieBits = 1e-12;
      double best_delta = 0.0;
      VertexId best_module = current;
      for (const hashdb::KeyValue& kv : pairs) {
        if (kv.key == current) continue;
        ++candidates;
        ModuleState::MoveFlows f = best_flows;
        f.out_to_target = kv.value / 2.0;
        f.in_from_target = kv.value / 2.0;
        const double delta = state.delta_move(v, kv.key, f);
        const bool better = delta < best_delta - kTieBits;
        const bool tie = !better && delta < best_delta + kTieBits &&
                         best_module != current && kv.key < best_module;
        if (better || tie) {
          best_delta = std::min(best_delta, delta);
          best_module = kv.key;
          best_flows = f;
        }
      }

      ASSERT_EQ(p.target, best_module) << "vertex " << v;
      ASSERT_EQ(p.delta, best_delta) << "vertex " << v;
      ASSERT_EQ(p.flows.out_to_target, best_flows.out_to_target);
      ASSERT_EQ(p.flows.in_from_target, best_flows.in_from_target);
      ASSERT_EQ(p.flows.out_to_current, best_flows.out_to_current);
      ASSERT_EQ(p.flows.in_from_current, best_flows.in_from_current);
      if (p.improving(current)) {
        state.apply_move(v, p.target, p.flows);
        ++moves;
      }
    }
  }
  EXPECT_GT(candidates, fn.num_nodes());
  EXPECT_GT(moves, 0u);
}

TEST(Kernel, MirroredPassMatchesTwoSidedPass) {
  // On a mirrored network evaluate_move hashes each row once and replays
  // the in side; the same network given a two-sided graph and a copied
  // distinct_in_flow takes the two hashed passes.  Every proposal, the
  // accumulate count and the evolving state must agree bit for bit.
  gen::ChungLuParams params;
  params.n = 2000;
  params.target_edges = 12000;
  params.gamma = 2.3;
  params.max_deg = 300;
  const CsrGraph g = gen::chung_lu(params, 67);
  const FlowNetwork mirrored = core::build_flow(g);
  ASSERT_TRUE(mirrored.mirrored());

  graph::CsrRows rows;
  rows.out_offsets.push_back(0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto arcs = g.out_neighbors(u);
    rows.out_arcs.insert(rows.out_arcs.end(), arcs.begin(), arcs.end());
    rows.out_offsets.push_back(rows.out_arcs.size());
  }
  rows.derive_in_side();
  const std::vector<VertexId> no_changed_rows;
  const CsrGraph two_sided_g =
      CsrGraph::from_rows(std::move(rows), &no_changed_rows);
  ASSERT_FALSE(two_sided_g.one_sided());
  FlowNetwork two_sided = mirrored;
  two_sided.borrow(two_sided_g);
  two_sided.distinct_in_flow = mirrored.out_flow;
  ASSERT_FALSE(two_sided.mirrored());

  ModuleState a(mirrored);
  ModuleState b(two_sided);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(bits(a.codelength()), bits(b.codelength()));

  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::FlatAccumulator acc_a, acc_b;
  const LevelAddresses la = LevelAddresses::for_network(mirrored, addrs);
  const KernelCosts costs;
  KernelBreakdown bd_a, bd_b;
  std::uint64_t moves = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const core::MoveProposal p =
          core::evaluate_move(a, mirrored, v, acc_a, sink, la, costs, bd_a);
      const core::MoveProposal q =
          core::evaluate_move(b, two_sided, v, acc_b, sink, la, costs, bd_b);
      ASSERT_EQ(p.target, q.target) << "vertex " << v;
      ASSERT_EQ(bits(p.delta), bits(q.delta)) << "vertex " << v;
      ASSERT_EQ(bits(p.flows.out_to_target), bits(q.flows.out_to_target));
      ASSERT_EQ(bits(p.flows.in_from_target), bits(q.flows.in_from_target));
      ASSERT_EQ(bits(p.flows.out_to_current), bits(q.flows.out_to_current));
      ASSERT_EQ(bits(p.flows.in_from_current),
                bits(q.flows.in_from_current));
      ASSERT_EQ(bd_a.accumulate_calls, bd_b.accumulate_calls);
      if (p.improving(a.module_of(v))) {
        a.apply_move(v, p.target, p.flows);
        b.apply_move(v, q.target, q.flows);
        ++moves;
      }
    }
  }
  EXPECT_GT(moves, 0u);
  EXPECT_EQ(bd_a.accumulate_calls, 2 * 3 * std::uint64_t{g.num_arcs()});
  EXPECT_EQ(bits(a.codelength()), bits(b.codelength()));
}

TEST(Kernel, IsolatedVertexNeverMoves) {
  EdgeList e;
  e.add_undirected(0, 1);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e, /*n_hint=*/3);  // vertex 2 alone
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn);
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  KernelBreakdown bd;
  EXPECT_FALSE(core::find_best_community(state, fn, 2, acc, sink, la,
                                         KernelCosts{}, bd));
  EXPECT_EQ(state.module_of(2), 2u);
}

}  // namespace

namespace {

TEST(Pruning, InactiveVerticesAreSkipped) {
  const auto pp = gen::planted_partition(300, 6, 0.2, 0.01, 107);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  KernelBreakdown bd;

  std::vector<std::uint8_t> active(fn.num_nodes(), 0);
  std::vector<std::uint8_t> next(fn.num_nodes(), 0);
  const std::uint64_t moves =
      core::sweep_range(state, fn, 0, fn.num_nodes(), acc, sink, la,
                        KernelCosts{}, bd, false, active.data(), next.data());
  EXPECT_EQ(moves, 0u);
  EXPECT_EQ(bd.vertices, 0u);  // nothing evaluated
}

TEST(Pruning, MoversMarkTheirNeighborhood) {
  const CsrGraph g = two_triangles_bridge();
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn);
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  KernelBreakdown bd;

  std::vector<std::uint8_t> active(fn.num_nodes(), 1);
  std::vector<std::uint8_t> next(fn.num_nodes(), 0);
  const std::uint64_t moves =
      core::sweep_range(state, fn, 0, fn.num_nodes(), acc, sink, la,
                        KernelCosts{}, bd, false, active.data(), next.data());
  ASSERT_GT(moves, 0u);
  // Every mover's neighbors (and itself) must be flagged for re-evaluation.
  bool any_marked = false;
  for (VertexId v = 0; v < fn.num_nodes(); ++v) any_marked |= next[v] != 0;
  EXPECT_TRUE(any_marked);
}

TEST(Pruning, PrunedRunMatchesUnprunedQuality) {
  // Pruning may skip re-evaluations whose delta changed only through global
  // terms, so partitions can differ in principle — but on planted structure
  // the results must agree almost perfectly and codelengths must match
  // closely.  (run_infomap uses pruning internally; this exercises the
  // unpruned path via raw sweeps.)
  const auto pp = gen::planted_partition(800, 8, 0.2, 0.008, 109);
  const FlowNetwork fn = core::build_flow(pp.graph);

  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);
  KernelBreakdown bd;

  ModuleState unpruned(fn);
  for (int s = 0; s < 10; ++s) {
    if (core::sweep_range(unpruned, fn, 0, fn.num_nodes(), acc, sink, la,
                          KernelCosts{}, bd) == 0) {
      break;
    }
    unpruned.recompute();
  }

  ModuleState pruned(fn);
  std::vector<std::uint8_t> active(fn.num_nodes(), 1);
  std::vector<std::uint8_t> next(fn.num_nodes(), 0);
  for (int s = 0; s < 10; ++s) {
    const std::uint64_t moves =
        core::sweep_range(pruned, fn, 0, fn.num_nodes(), acc, sink, la,
                          KernelCosts{}, bd, false, active.data(),
                          next.data());
    pruned.recompute();
    if (moves == 0) break;
    active.swap(next);
    std::fill(next.begin(), next.end(), 0);
  }

  EXPECT_NEAR(pruned.codelength(), unpruned.codelength(),
              0.02 * std::abs(unpruned.codelength()));
}

TEST(Pruning, SecondSweepEvaluatesFewerVertices) {
  const auto pp = gen::planted_partition(1000, 10, 0.2, 0.005, 113);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  const LevelAddresses la = LevelAddresses::for_network(fn, addrs);

  std::vector<std::uint8_t> active(fn.num_nodes(), 1);
  std::vector<std::uint8_t> next(fn.num_nodes(), 0);
  std::uint64_t first_sweep_evals = 0;
  std::uint64_t last_sweep_evals = 0;
  for (int s = 0; s < 10; ++s) {
    KernelBreakdown bd;
    const std::uint64_t moves =
        core::sweep_range(state, fn, 0, fn.num_nodes(), acc, sink, la,
                          KernelCosts{}, bd, false, active.data(),
                          next.data());
    state.recompute();
    if (s == 0) first_sweep_evals = bd.vertices;
    last_sweep_evals = bd.vertices;
    if (moves == 0) break;
    active.swap(next);
    std::fill(next.begin(), next.end(), 0);
  }
  EXPECT_EQ(first_sweep_evals, fn.num_nodes());
  // By the time the greedy loop settles, the active set has collapsed.
  EXPECT_LT(last_sweep_evals, first_sweep_evals / 2);
}

}  // namespace
