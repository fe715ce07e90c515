// Tests for the map equation: closed-form values on small networks,
// delta/apply consistency, and agreement with full recomputation.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "asamap/core/flow.hpp"
#include "asamap/core/map_equation.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/graph/edge_list.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using core::FlowNetwork;
using core::ModuleState;
using core::Partition;
using core::plogp;
using graph::CsrGraph;
using graph::EdgeList;
using graph::VertexId;

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

TEST(Plogp, BasicValues) {
  EXPECT_DOUBLE_EQ(plogp(0.0), 0.0);
  EXPECT_DOUBLE_EQ(plogp(1.0), 0.0);
  EXPECT_DOUBLE_EQ(plogp(0.5), -0.5);
  EXPECT_DOUBLE_EQ(plogp(0.25), 0.25 * std::log2(0.25));
}

TEST(MapEquation, OneModuleIsNodeEntropy) {
  // All nodes in one module: no index codebook, module codelength equals
  // the entropy of the visit-rate distribution.
  const CsrGraph g = two_triangles_bridge();
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn, Partition(6, 0), 1);
  double entropy = 0.0;
  for (double p : fn.node_flow) entropy -= plogp(p);
  EXPECT_NEAR(state.codelength(), entropy, 1e-12);
  EXPECT_NEAR(state.index_codelength(), 0.0, 1e-12);
}

TEST(MapEquation, KnownTwoModuleValue) {
  // Closed form for the two-triangle graph under {012},{345}:
  //   q_i = 1/14 each, S = 2/14
  //   flow_i = 7/14 each
  //   L = plogp(2/14) - 2*plogp(1/14) - 2*plogp(1/14)
  //       + 2*plogp(1/14 + 7/14) - sum plogp(p_alpha)
  const CsrGraph g = two_triangles_bridge();
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn, Partition{0, 0, 0, 1, 1, 1}, 2);

  double node_term = 0.0;
  for (double p : fn.node_flow) node_term += plogp(p);
  const double q = 1.0 / 14.0;
  const double expected = plogp(2 * q) - 2 * plogp(q) - 2 * plogp(q) +
                          2 * plogp(q + 7.0 / 14.0) - node_term;
  EXPECT_NEAR(state.codelength(), expected, 1e-12);
}

TEST(MapEquation, GoodPartitionBeatsSingletonsAndTrivial) {
  const auto pp = gen::planted_partition(400, 8, 0.2, 0.005, 5);
  const FlowNetwork fn = core::build_flow(pp.graph);

  ModuleState singletons(fn);
  Partition truth(pp.ground_truth.begin(), pp.ground_truth.end());
  ModuleState planted(fn, truth, 8);
  ModuleState trivial(fn, Partition(400, 0), 1);

  EXPECT_LT(planted.codelength(), singletons.codelength());
  EXPECT_LT(planted.codelength(), trivial.codelength());
}

TEST(MapEquation, LiveModulesTracksOccupancy) {
  const CsrGraph g = two_triangles_bridge();
  const FlowNetwork fn = core::build_flow(g);
  ModuleState state(fn);
  EXPECT_EQ(state.live_modules(), 6u);
}

TEST(MapEquation, DeltaMatchesRecomputedCodelength) {
  // Property: for random moves, delta_move must equal the difference of
  // codelengths computed from scratch.
  const auto pp = gen::planted_partition(120, 6, 0.25, 0.02, 7);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);

  support::Xoshiro256 rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const auto v = static_cast<VertexId>(rng.next_below(fn.num_nodes()));
    // Pick the module of a random neighbor as target (realistic moves).
    const auto nbrs = fn.graph().out_neighbors(v);
    if (nbrs.empty()) continue;
    const VertexId u = nbrs[rng.next_below(nbrs.size())].dst;
    const VertexId target = state.module_of(u);
    if (target == state.module_of(v)) continue;

    // Compute link flows between v and the two modules directly.
    ModuleState::MoveFlows f;
    const std::size_t base = static_cast<std::size_t>(fn.graph().out_offset(v));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId m = state.module_of(nbrs[i].dst);
      if (m == target) {
        f.out_to_target += fn.out_flow[base + i];
        f.in_from_target += fn.out_flow[base + i];  // symmetric
      } else if (m == state.module_of(v)) {
        f.out_to_current += fn.out_flow[base + i];
        f.in_from_current += fn.out_flow[base + i];
      }
    }

    const double predicted = state.delta_move(v, target, f);
    const double before = state.codelength();
    state.apply_move(v, target, f);

    // Recompute from scratch via a fresh ModuleState on the same partition.
    Partition current = state.assignment();
    VertexId max_id = 0;
    for (VertexId c : current) max_id = std::max(max_id, c);
    ModuleState fresh(fn, current, std::size_t{max_id} + 1);

    EXPECT_NEAR(state.codelength(), before + predicted, 1e-9)
        << "incremental vs delta, trial " << trial;
    EXPECT_NEAR(state.codelength(), fresh.codelength(), 1e-9)
        << "incremental vs scratch, trial " << trial;
  }
}

TEST(MapEquation, RecomputeIsNoOpUpToTolerance) {
  const auto pp = gen::planted_partition(200, 5, 0.2, 0.02, 13);
  const FlowNetwork fn = core::build_flow(pp.graph);
  ModuleState state(fn);

  // Apply a bunch of moves, then recompute; codelength must not jump.
  support::Xoshiro256 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto v = static_cast<VertexId>(rng.next_below(fn.num_nodes()));
    const auto nbrs = fn.graph().out_neighbors(v);
    if (nbrs.empty()) continue;
    const VertexId target =
        state.module_of(nbrs[rng.next_below(nbrs.size())].dst);
    if (target == state.module_of(v)) continue;
    ModuleState::MoveFlows f;
    const std::size_t base = static_cast<std::size_t>(fn.graph().out_offset(v));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId m = state.module_of(nbrs[i].dst);
      if (m == target) {
        f.out_to_target += fn.out_flow[base + i];
        f.in_from_target += fn.out_flow[base + i];
      } else if (m == state.module_of(v)) {
        f.out_to_current += fn.out_flow[base + i];
        f.in_from_current += fn.out_flow[base + i];
      }
    }
    state.apply_move(v, target, f);
  }
  const double incremental = state.codelength();
  state.recompute();
  EXPECT_NEAR(state.codelength(), incremental, 1e-9);
}

TEST(MapEquation, DirectedTeleportTermsFinite) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  e.add(0, 3);
  e.add(3, 0);
  e.coalesce();
  core::FlowOptions opts;
  opts.model = core::FlowModel::kDirected;
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g, opts);
  ModuleState state(fn);
  EXPECT_TRUE(std::isfinite(state.codelength()));
  EXPECT_GT(state.codelength(), 0.0);
  ModuleState merged(fn, Partition{0, 0, 0, 1}, 2);
  EXPECT_TRUE(std::isfinite(merged.codelength()));
}

// The pre-split move evaluation, kept verbatim as an oracle: every term
// recomputed from the raw aggregates, 14 plogp calls per move.  The split
// source/target evaluation with cached terms must reproduce it bit for bit.
class ReferenceDelta {
 public:
  explicit ReferenceDelta(const FlowNetwork& fn)
      : fn_(fn), node_out_(fn.num_nodes(), 0.0),
        node_in_(fn.num_nodes(), 0.0) {
    // Same accumulation order as ModuleState, so the totals are bitwise equal.
    std::size_t e = 0;
    for (VertexId u = 0; u < fn.num_nodes(); ++u) {
      for (std::size_t i = 0; i < fn.graph().out_neighbors(u).size(); ++i) {
        node_out_[u] += fn.out_flow[e++];
      }
    }
    e = 0;
    for (VertexId u = 0; u < fn.num_nodes(); ++u) {
      for (std::size_t i = 0; i < fn.graph().in_neighbors(u).size(); ++i) {
        node_in_[u] += fn.in_flow()[e++];
      }
    }
    for (VertexId u = 0; u < fn.num_nodes(); ++u) {
      total_tp_ += fn.teleport_flow[u];
    }
  }

  /// The new enter and exit flows of both modules of a move.
  struct NewTerms {
    double enter_o = 0.0, exit_o = 0.0, enter_t = 0.0, exit_t = 0.0;
  };

  double operator()(const ModuleState& s, VertexId v, VertexId target,
                    const ModuleState::MoveFlows& f,
                    NewTerms* terms = nullptr) const {
    const VertexId o = s.module_of(v);
    if (o == target) return 0.0;
    const ModuleState::ModuleAgg& om = s.module_agg(o);
    const ModuleState::ModuleAgg& tm = s.module_agg(target);

    const double o_out = om.out_link - (node_out_[v] - f.out_to_current) +
                         f.in_from_current;
    const double o_in = om.in_link - (node_in_[v] - f.in_from_current) +
                        f.out_to_current;
    const double o_flow = om.flow - fn_.node_flow[v];
    const double o_tp = om.tp - fn_.teleport_flow[v];
    const std::uint64_t o_cnt = om.cnt - fn_.orig_count[v];

    const double t_out = tm.out_link + (node_out_[v] - f.out_to_target) -
                         f.in_from_target;
    const double t_in = tm.in_link + (node_in_[v] - f.in_from_target) -
                        f.out_to_target;
    const double t_flow = tm.flow + fn_.node_flow[v];
    const double t_tp = tm.tp + fn_.teleport_flow[v];
    const std::uint64_t t_cnt = tm.cnt + fn_.orig_count[v];

    const double old_exit_o = exit_from(om.out_link, om.tp, om.cnt);
    const double old_exit_t = exit_from(tm.out_link, tm.tp, tm.cnt);
    const double old_enter_o = enter_from(om.in_link, om.tp, om.cnt);
    const double old_enter_t = enter_from(tm.in_link, tm.tp, tm.cnt);
    const double new_exit_o = exit_from(o_out, o_tp, o_cnt);
    const double new_exit_t = exit_from(t_out, t_tp, t_cnt);
    const double new_enter_o = enter_from(o_in, o_tp, o_cnt);
    const double new_enter_t = enter_from(t_in, t_tp, t_cnt);

    if (terms != nullptr) {
      *terms = {new_enter_o, new_exit_o, new_enter_t, new_exit_t};
    }

    const double enter_sum = s.enter_sum();
    const double new_enter_sum =
        enter_sum - old_enter_o - old_enter_t + new_enter_o + new_enter_t;

    double delta = plogp(new_enter_sum) - plogp(enter_sum);
    delta -= plogp(new_enter_o) + plogp(new_enter_t) - plogp(old_enter_o) -
             plogp(old_enter_t);
    delta -= plogp(new_exit_o) + plogp(new_exit_t) - plogp(old_exit_o) -
             plogp(old_exit_t);
    delta += plogp(new_exit_o + o_flow) + plogp(new_exit_t + t_flow) -
             plogp(old_exit_o + om.flow) - plogp(old_exit_t + tm.flow);
    return delta;
  }

 private:
  double exit_from(double out_link, double tp, std::uint64_t cnt) const {
    const double N = static_cast<double>(fn_.total_orig);
    return out_link + tp * (N - static_cast<double>(cnt)) / N;
  }
  double enter_from(double in_link, double tp, std::uint64_t cnt) const {
    const double N = static_cast<double>(fn_.total_orig);
    return in_link + (static_cast<double>(cnt) / N) * (total_tp_ - tp);
  }

  const FlowNetwork& fn_;
  std::vector<double> node_out_;
  std::vector<double> node_in_;
  double total_tp_ = 0.0;
};

/// Exact link flows between v and the target / its own module, from both
/// arc directions (so directed networks get their true in/out split).
ModuleState::MoveFlows exact_flows(const FlowNetwork& fn,
                                   const ModuleState& s, VertexId v,
                                   VertexId target) {
  ModuleState::MoveFlows f;
  const VertexId current = s.module_of(v);
  const auto outs = fn.graph().out_neighbors(v);
  const auto out_base = static_cast<std::size_t>(fn.graph().out_offset(v));
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const VertexId m = s.module_of(outs[i].dst);
    if (m == target) f.out_to_target += fn.out_flow[out_base + i];
    if (m == current && outs[i].dst != v) {
      f.out_to_current += fn.out_flow[out_base + i];
    }
  }
  const auto ins = fn.graph().in_neighbors(v);
  const auto in_base = static_cast<std::size_t>(fn.graph().in_offset(v));
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const VertexId m = s.module_of(ins[i].dst);
    if (m == target) f.in_from_target += fn.in_flow()[in_base + i];
    if (m == current && ins[i].dst != v) {
      f.in_from_current += fn.in_flow()[in_base + i];
    }
  }
  return f;
}

/// Every module's cached plogp terms must equal what recompute() derives
/// from the live aggregates.
void expect_cache_fresh(const ModuleState& state, int move) {
  ModuleState fresh = state;
  fresh.recompute();
  for (VertexId m = 0; m < fresh.assignment().size(); ++m) {
    const ModuleState::ModuleAgg& a = state.module_agg(m);
    const ModuleState::ModuleAgg& b = fresh.module_agg(m);
    ASSERT_EQ(a.plogp_exit, b.plogp_exit) << "module " << m << " move " << move;
    ASSERT_EQ(a.plogp_enter, b.plogp_enter)
        << "module " << m << " move " << move;
    ASSERT_EQ(a.plogp_exit_flow, b.plogp_exit_flow)
        << "module " << m << " move " << move;
  }
}

/// Drives >= `moves` random neighbor-module moves through the state,
/// checking delta_move against the reference formula bitwise before each
/// one and the term cache periodically.
void check_split_delta_bitwise(const FlowNetwork& fn, int moves,
                               std::uint64_t seed) {
  ModuleState state(fn);
  const ReferenceDelta reference(fn);
  support::Xoshiro256 rng(seed);
  int applied = 0;
  for (int attempt = 0; applied < moves && attempt < 50 * moves; ++attempt) {
    const auto v = static_cast<VertexId>(rng.next_below(fn.num_nodes()));
    const auto nbrs = fn.graph().out_neighbors(v);
    if (nbrs.empty()) continue;
    const VertexId target =
        state.module_of(nbrs[rng.next_below(nbrs.size())].dst);
    const ModuleState::MoveFlows f = exact_flows(fn, state, v, target);
    ASSERT_EQ(state.delta_move(v, target, f), reference(state, v, target, f))
        << "move " << applied;
    if (target == state.module_of(v)) continue;
    state.apply_move(v, target, f);
    ++applied;
    if (applied % 500 == 0) {
      expect_cache_fresh(state, applied);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_GE(applied, moves);
  expect_cache_fresh(state, applied);
}

TEST(MapEquation, SplitDeltaIsBitwiseTheFullFormulaUndirected) {
  const auto pp = gen::planted_partition(400, 8, 0.1, 0.01, 21);
  const FlowNetwork fn = core::build_flow(pp.graph);
  check_split_delta_bitwise(fn, 10000, 23);
}

TEST(MapEquation, SplitDeltaIsBitwiseTheFullFormulaDirectedTeleport) {
  // A random directed graph under the PageRank flow model: nonzero teleport
  // flow makes exit != enter, exercising every term of the formula.
  support::Xoshiro256 rng(29);
  EdgeList e;
  for (int i = 0; i < 4000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(400));
    const auto w = static_cast<VertexId>(rng.next_below(400));
    if (u != w) e.add(u, w);
  }
  e.coalesce();
  core::FlowOptions opts;
  opts.model = core::FlowModel::kDirected;
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g, opts);
  ASSERT_GT(fn.teleport_flow[0], 0.0);
  check_split_delta_bitwise(fn, 10000, 31);
}

TEST(MapEquation, DirectedDeltaTakesEveryPlogp) {
  // The delta reuses plogp(x) for an argument equal to one already taken,
  // which under the undirected model skips enter' whenever it equals exit'.
  // Under the directed model teleportation makes enter != exit on both
  // sides of nearly every move that leaves its source module non-empty, so
  // every term must be evaluated; a reuse keyed on anything but equality
  // of the argument would show up here.
  support::Xoshiro256 rng(37);
  EdgeList e;
  for (int i = 0; i < 3000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(300));
    const auto w = static_cast<VertexId>(rng.next_below(300));
    if (u != w) e.add(u, w);
  }
  e.coalesce();
  core::FlowOptions opts;
  opts.model = core::FlowModel::kDirected;
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g, opts);
  ASSERT_FALSE(fn.mirrored());

  ModuleState state(fn);
  const ReferenceDelta reference(fn);
  int applied = 0;
  int kept = 0;
  int both_distinct = 0;
  for (int attempt = 0; applied < 3000 && attempt < 100000; ++attempt) {
    const auto v = static_cast<VertexId>(rng.next_below(fn.num_nodes()));
    const auto nbrs = fn.graph().out_neighbors(v);
    if (nbrs.empty()) continue;
    const VertexId target =
        state.module_of(nbrs[rng.next_below(nbrs.size())].dst);
    if (target == state.module_of(v)) continue;
    const ModuleState::MoveFlows f = exact_flows(fn, state, v, target);
    ReferenceDelta::NewTerms t;
    const double want = reference(state, v, target, f, &t);
    ASSERT_EQ(state.delta_move(v, target, f), want) << "move " << applied;
    // A source module the move empties has enter' == exit' == 0.
    if (state.module_agg(state.module_of(v)).cnt > 1) {
      ++kept;
      if (t.enter_o != t.exit_o && t.enter_t != t.exit_t) ++both_distinct;
    }
    state.apply_move(v, target, f);
    ++applied;
  }
  ASSERT_EQ(applied, 3000);
  EXPECT_GT(kept, applied / 2);
  EXPECT_GE(both_distinct, kept * 99 / 100);
  expect_cache_fresh(state, applied);
}

}  // namespace
