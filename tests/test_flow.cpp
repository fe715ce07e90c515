// Unit tests for flow computation: PageRank power iteration, the undirected
// closed form, and supernode contraction (Convert2SuperNode) invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "asamap/core/flow.hpp"
#include "asamap/core/infomap.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/graph/edge_list.hpp"

namespace {

using namespace asamap;
using core::FlowModel;
using core::FlowNetwork;
using core::FlowOptions;
using graph::CsrGraph;
using graph::EdgeList;
using graph::VertexId;

CsrGraph path_graph(VertexId n) {
  EdgeList e;
  for (VertexId v = 0; v + 1 < n; ++v) e.add_undirected(v, v + 1);
  e.coalesce();
  return CsrGraph::from_edges(e);
}

double sum(std::span<const double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<double> to_vector(std::span<const double> v) {
  return {v.begin(), v.end()};
}

TEST(UndirectedFlow, NodeFlowIsDegreeProportional) {
  const CsrGraph g = path_graph(4);  // degrees 1,2,2,1; total arc weight 6
  const FlowNetwork fn = core::build_flow(g);
  EXPECT_EQ(fn.pagerank_iterations, 0);  // closed form used
  EXPECT_NEAR(fn.node_flow[0], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(fn.node_flow[1], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(sum(fn.node_flow), 1.0, 1e-12);
  EXPECT_NEAR(sum(fn.out_flow), 1.0, 1e-12);
  EXPECT_NEAR(sum(fn.in_flow()), 1.0, 1e-12);
  for (double tp : fn.teleport_flow) EXPECT_DOUBLE_EQ(tp, 0.0);
}

TEST(UndirectedFlow, ArcFlowsSymmetric) {
  const CsrGraph g = gen::erdos_renyi(200, 0.05, 3);
  const FlowNetwork fn = core::build_flow(g);
  // For every arc u->v, the reverse arc carries the same flow.
  std::size_t e = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const graph::Arc& arc : g.out_neighbors(u)) {
      EXPECT_NEAR(fn.out_flow[e], arc.weight / g.total_arc_weight(), 1e-15);
      ++e;
    }
  }
}

TEST(DirectedFlow, PageRankSumsToOne) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  e.add(2, 3);
  e.add(3, 0);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  ASSERT_FALSE(g.is_symmetric());
  const FlowNetwork fn = core::build_flow(g);
  EXPECT_GT(fn.pagerank_iterations, 1);
  EXPECT_NEAR(sum(fn.node_flow), 1.0, 1e-9);
  // Teleport flow is tau of total.
  EXPECT_NEAR(sum(fn.teleport_flow), 0.15, 1e-9);
  // Link flow + teleport flow account for everything.
  EXPECT_NEAR(sum(fn.out_flow) + sum(fn.teleport_flow), 1.0, 1e-9);
}

TEST(DirectedFlow, UniformCycleIsUniform) {
  EdgeList e;
  const VertexId n = 10;
  for (VertexId v = 0; v < n; ++v) e.add(v, (v + 1) % n);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_NEAR(fn.node_flow[v], 1.0 / n, 1e-9);
  }
}

TEST(DirectedFlow, DanglingMassRedistributed) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);  // 2 is dangling
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e, /*n_hint=*/3);
  const FlowNetwork fn = core::build_flow(g);
  EXPECT_NEAR(sum(fn.node_flow), 1.0, 1e-9);
  EXPECT_GT(fn.node_flow[2], 0.0);
}

TEST(DirectedFlow, HubAttractsFlow) {
  // Star pointing at the hub: the hub's visit rate dominates.
  EdgeList e;
  for (VertexId v = 1; v <= 20; ++v) e.add(v, 0);
  e.add(0, 1);  // hub points somewhere so it is not dangling
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g);
  for (VertexId v = 2; v <= 20; ++v) {
    EXPECT_GT(fn.node_flow[0], 5.0 * fn.node_flow[v]);
  }
}

TEST(FlowModelSelection, ForcedUndirectedOnDirectedThrows) {
  EdgeList e;
  e.add(0, 1);
  e.coalesce();
  FlowOptions opts;
  opts.model = FlowModel::kUndirected;
  const CsrGraph g = CsrGraph::from_edges(e);
  EXPECT_THROW(core::build_flow(g, opts), std::logic_error);
}

TEST(FlowModelSelection, ForcedDirectedOnUndirectedWorks) {
  const CsrGraph g = path_graph(5);
  FlowOptions opts;
  opts.model = FlowModel::kDirected;
  const FlowNetwork fn = core::build_flow(g, opts);
  EXPECT_GT(fn.pagerank_iterations, 1);
  EXPECT_NEAR(sum(fn.node_flow), 1.0, 1e-9);
}

// ------------------------------------------------- borrowed, one-sided level 0

/// build_flow and MultilevelRun bind only graphs that outlive the call: a
/// temporary would leave the network pointing at freed adjacency.
template <typename G>
concept FlowBuildableFrom =
    requires(G&& g) { core::build_flow(std::forward<G>(g)); };
static_assert(FlowBuildableFrom<const CsrGraph&>);
static_assert(FlowBuildableFrom<CsrGraph&>);
static_assert(!FlowBuildableFrom<CsrGraph>);
static_assert(!FlowBuildableFrom<const CsrGraph>);
static_assert(std::is_constructible_v<core::MultilevelRun, const CsrGraph&,
                                      const core::InfomapOptions&>);
static_assert(!std::is_constructible_v<core::MultilevelRun, CsrGraph,
                                       const core::InfomapOptions&>);

TEST(FlowNetwork, Level0BorrowsItsGraph) {
  const CsrGraph g = path_graph(6);
  const FlowNetwork fn = core::build_flow(g);
  EXPECT_EQ(&fn.graph(), &g);
  const FlowNetwork copy = fn;
  EXPECT_EQ(&copy.graph(), &g);
}

TEST(UndirectedFlow, OneSidedGraphAliasesInFlow) {
  const CsrGraph g = gen::erdos_renyi(200, 0.05, 3);
  ASSERT_TRUE(g.one_sided());
  const FlowNetwork fn = core::build_flow(g);
  EXPECT_TRUE(fn.distinct_in_flow.empty());
  EXPECT_EQ(fn.in_flow().data(), fn.out_flow.data());
  EXPECT_EQ(fn.in_flow().size(), g.num_arcs());
}

TEST(FlowModelSelection, ForcedDirectedOnOneSidedGraphKeepsDistinctInFlow) {
  // PageRank flow runs source to target, so an in-arc carries its source's
  // out-arc flow, not the flow of the out-arc stored at the same index.
  const CsrGraph g = path_graph(5);
  ASSERT_TRUE(g.one_sided());
  FlowOptions opts;
  opts.model = FlowModel::kDirected;
  const FlowNetwork fn = core::build_flow(g, opts);
  ASSERT_EQ(fn.distinct_in_flow.size(), g.num_arcs());
  const auto out_flow_of = [&](VertexId u, VertexId v) {
    const auto arcs = g.out_neighbors(u);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (arcs[i].dst == v) return fn.out_flow[g.out_offset(u) + i];
    }
    return -1.0;
  };
  bool differs = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto arcs = g.in_neighbors(v);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const std::size_t e = g.in_offset(v) + i;
      EXPECT_EQ(fn.in_flow()[e], out_flow_of(arcs[i].dst, v));
      differs = differs || fn.in_flow()[e] != fn.out_flow[e];
    }
  }
  EXPECT_TRUE(differs);
}

// -------------------------------------------------------------- contraction

TEST(Contract, BitwiseSymmetricLevelIsOneSidedAndOwned) {
  // Two modules joined by one undirected bridge: both super-arcs sum the
  // same single arc flow, so the contraction is bitwise symmetric.
  EdgeList e;
  e.add_undirected(0, 1);
  e.add_undirected(1, 2);
  e.add_undirected(2, 3);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g);
  const FlowNetwork c = core::contract_network(fn, {0, 0, 1, 1}, 2);
  ASSERT_EQ(c.graph().num_arcs(), 2u);
  EXPECT_TRUE(c.graph().one_sided());
  EXPECT_TRUE(c.distinct_in_flow.empty());
  EXPECT_EQ(c.in_flow().data(), c.out_flow.data());
  EXPECT_NE(&c.graph(), &g);
  // Copies share the owned contraction instead of copying it.
  const FlowNetwork copy = c;
  EXPECT_EQ(&copy.graph(), &c.graph());
}

TEST(Contract, PreservesTotalNodeFlow) {
  const CsrGraph g = gen::erdos_renyi(300, 0.03, 9);
  const FlowNetwork fn = core::build_flow(g);
  core::Partition modules(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) modules[v] = v % 10;
  const FlowNetwork contracted = core::contract_network(fn, modules, 10);

  EXPECT_EQ(contracted.num_nodes(), 10u);
  EXPECT_NEAR(sum(contracted.node_flow), 1.0, 1e-9);
  EXPECT_EQ(contracted.total_orig, fn.total_orig);
  std::uint64_t total_cnt = 0;
  for (auto c : contracted.orig_count) total_cnt += c;
  EXPECT_EQ(total_cnt, g.num_vertices());
}

TEST(Contract, SuperArcFlowEqualsBoundaryFlow) {
  // Two triangles with one bridge: contracting by the natural partition
  // leaves exactly the bridge flow between the two supernodes.
  EdgeList e;
  e.add_undirected(0, 1);
  e.add_undirected(1, 2);
  e.add_undirected(0, 2);
  e.add_undirected(3, 4);
  e.add_undirected(4, 5);
  e.add_undirected(3, 5);
  e.add_undirected(2, 3);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g);
  const core::Partition modules = {0, 0, 0, 1, 1, 1};
  const FlowNetwork c = core::contract_network(fn, modules, 2);

  ASSERT_EQ(c.num_nodes(), 2u);
  ASSERT_EQ(c.graph().num_arcs(), 2u);  // one super edge, both directions
  // Bridge edge weight 1 of total 14 -> flow 1/14 each direction.
  EXPECT_NEAR(c.out_flow[0], 1.0 / 14.0, 1e-12);
  EXPECT_NEAR(c.node_flow[0], 7.0 / 14.0, 1e-12);
}

TEST(Contract, IntraModuleFlowVanishes) {
  const CsrGraph g = gen::erdos_renyi(100, 0.1, 21);
  const FlowNetwork fn = core::build_flow(g);
  const core::Partition one_module(g.num_vertices(), 0);
  const FlowNetwork c = core::contract_network(fn, one_module, 1);
  EXPECT_EQ(c.num_nodes(), 1u);
  EXPECT_EQ(c.graph().num_arcs(), 0u);
  EXPECT_NEAR(c.node_flow[0], 1.0, 1e-9);
}

TEST(Contract, IdentityPartitionKeepsArcFlows) {
  const CsrGraph g = gen::erdos_renyi(50, 0.1, 23);
  const FlowNetwork fn = core::build_flow(g);
  core::Partition identity(g.num_vertices());
  std::iota(identity.begin(), identity.end(), 0);
  const FlowNetwork c =
      core::contract_network(fn, identity, g.num_vertices());
  ASSERT_EQ(c.graph().num_arcs(), g.num_arcs());
  for (std::size_t e = 0; e < fn.out_flow.size(); ++e) {
    EXPECT_NEAR(c.out_flow[e], fn.out_flow[e], 1e-15);
  }
}

TEST(Contract, TeleportFlowAggregates) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 0);
  e.add(1, 2);
  e.add(2, 0);
  e.coalesce();
  FlowOptions opts;
  opts.model = FlowModel::kDirected;
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g, opts);
  const core::Partition modules = {0, 0, 1};
  const FlowNetwork c = core::contract_network(fn, modules, 2);
  EXPECT_NEAR(c.teleport_flow[0],
              fn.teleport_flow[0] + fn.teleport_flow[1], 1e-12);
  EXPECT_NEAR(sum(c.teleport_flow), 0.15, 1e-9);
}


// ------------------------------------------- contraction: order and threads

/// A hubby power-law graph above 2^14 vertices.
const CsrGraph& hubby_graph() {
  static const CsrGraph g = [] {
    gen::ChungLuParams params;
    params.n = 20000;
    params.target_edges = 120000;
    params.gamma = 2.1;
    params.min_deg = 2;
    return gen::chung_lu(params, 77);
  }();
  return g;
}

/// The hubby graph with a third of its downward arcs dropped, so the
/// flow model is directed and every vertex carries teleport flow.
const CsrGraph& directed_graph() {
  static const CsrGraph g = [] {
    const CsrGraph& base = hubby_graph();
    EdgeList e;
    for (VertexId u = 0; u < base.num_vertices(); ++u) {
      for (const graph::Arc& arc : base.out_neighbors(u)) {
        if (u < arc.dst || (u + arc.dst) % 3 != 0) {
          e.add(u, arc.dst, arc.weight);
        }
      }
    }
    e.coalesce();
    return CsrGraph::from_edges(e, base.num_vertices());
  }();
  return g;
}

/// Every vertex in one of n / 32 scattered modules, so most modules reach
/// the same neighbor module through several members.
core::Partition scattered_modules(VertexId n, std::size_t* k) {
  *k = n / 32;
  core::Partition modules(n);
  for (VertexId v = 0; v < n; ++v) {
    modules[v] = static_cast<VertexId>((std::uint64_t{v} * 2654435761u) % *k);
  }
  return modules;
}

void expect_same_network(const FlowNetwork& a, const FlowNetwork& b,
                         const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.graph().num_arcs(), b.graph().num_arcs()) << what;
  for (VertexId u = 0; u < a.num_nodes(); ++u) {
    const auto ao = a.graph().out_neighbors(u);
    const auto bo = b.graph().out_neighbors(u);
    ASSERT_EQ(ao.size(), bo.size()) << what << " out row " << u;
    for (std::size_t i = 0; i < ao.size(); ++i) {
      EXPECT_EQ(ao[i].dst, bo[i].dst) << what;
      EXPECT_EQ(ao[i].weight, bo[i].weight) << what;
    }
    const auto ai = a.graph().in_neighbors(u);
    const auto bi = b.graph().in_neighbors(u);
    ASSERT_EQ(ai.size(), bi.size()) << what << " in row " << u;
    for (std::size_t i = 0; i < ai.size(); ++i) {
      EXPECT_EQ(ai[i].dst, bi[i].dst) << what;
      EXPECT_EQ(ai[i].weight, bi[i].weight) << what;
    }
    EXPECT_EQ(a.graph().out_weight(u), b.graph().out_weight(u)) << what;
    EXPECT_EQ(a.graph().in_weight(u), b.graph().in_weight(u)) << what;
  }
  EXPECT_EQ(a.graph().total_arc_weight(), b.graph().total_arc_weight()) << what;
  EXPECT_EQ(a.graph().is_symmetric(), b.graph().is_symmetric()) << what;
  EXPECT_EQ(a.node_flow, b.node_flow) << what;
  EXPECT_EQ(a.teleport_flow, b.teleport_flow) << what;
  EXPECT_EQ(a.out_flow, b.out_flow) << what;
  EXPECT_EQ(to_vector(a.in_flow()), to_vector(b.in_flow())) << what;
  EXPECT_EQ(a.orig_count, b.orig_count) << what;
  EXPECT_EQ(a.total_orig, b.total_orig) << what;
  EXPECT_EQ(a.pagerank_iterations, b.pagerank_iterations) << what;
}

/// The contraction order the pin fixes: every sum is a left fold over
/// members in ascending id order, each member's arcs in row order.
void expect_left_fold(const FlowNetwork& fn, const core::Partition& modules,
                      std::size_t k, const FlowNetwork& c) {
  std::vector<double> node_flow(k, 0.0);
  std::vector<double> teleport_flow(k, 0.0);
  std::map<std::pair<VertexId, VertexId>, double> super_arcs;
  for (VertexId u = 0; u < fn.num_nodes(); ++u) {
    const VertexId mu = modules[u];
    node_flow[mu] += fn.node_flow[u];
    teleport_flow[mu] += fn.teleport_flow[u];
    const auto arcs = fn.graph().out_neighbors(u);
    const auto base = static_cast<std::size_t>(fn.graph().out_offset(u));
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const VertexId mv = modules[arcs[i].dst];
      if (mv != mu) super_arcs[{mu, mv}] += fn.out_flow[base + i];
    }
  }
  EXPECT_EQ(c.node_flow, node_flow);
  EXPECT_EQ(c.teleport_flow, teleport_flow);
  ASSERT_EQ(c.graph().num_arcs(), super_arcs.size());
  auto it = super_arcs.begin();
  std::size_t e = 0;
  for (VertexId m = 0; m < c.num_nodes(); ++m) {
    for (const graph::Arc& arc : c.graph().out_neighbors(m)) {
      EXPECT_EQ(m, it->first.first);
      EXPECT_EQ(arc.dst, it->first.second);
      EXPECT_EQ(arc.weight, it->second);
      EXPECT_EQ(c.out_flow[e], it->second);
      ++it;
      ++e;
    }
  }
  std::size_t in = 0;
  for (VertexId m = 0; m < c.num_nodes(); ++m) {
    for (const graph::Arc& arc : c.graph().in_neighbors(m)) {
      const double want = super_arcs.at({arc.dst, m});
      EXPECT_EQ(arc.weight, want);
      EXPECT_EQ(c.in_flow()[in++], want);
    }
  }
}

TEST(Contract, SumsAreLeftFoldsInMemberOrder) {
  for (const CsrGraph* g : {&hubby_graph(), &directed_graph()}) {
    const FlowNetwork fn = core::build_flow(*g);
    std::size_t k = 0;
    const core::Partition modules = scattered_modules(g->num_vertices(), &k);
    for (int threads : {1, 2}) {
      SCOPED_TRACE(threads);
      expect_left_fold(fn, modules, k,
                       core::contract_network(fn, modules, k, threads));
    }
  }
}

TEST(Contract, ThreadCountInvariant) {
  ASSERT_GE(hubby_graph().num_vertices(), 1u << 14);
  for (const CsrGraph* g : {&hubby_graph(), &directed_graph()}) {
    const FlowNetwork fn = core::build_flow(*g);
    std::size_t k = 0;
    const core::Partition modules = scattered_modules(g->num_vertices(), &k);
    const FlowNetwork one = core::contract_network(fn, modules, k, 1);
    EXPECT_GT(one.graph().num_arcs(), 0u);
    if (g == &directed_graph()) {
      EXPECT_FALSE(one.graph().is_symmetric());
      EXPECT_GT(sum(one.teleport_flow), 0.1);
    }
    expect_same_network(one, core::contract_network(fn, modules, k, 2), "2");
    expect_same_network(one, core::contract_network(fn, modules, k, 4), "4");
  }
}

/// The partition-centric bucket/merge contraction this file's function
/// replaced, run serially: `scanners` vertex ranges scatter cross-module
/// arcs into buckets by source-module owner, each owner stable-sorts and
/// merges its slice, and the per-scanner aggregate partials are folded.
FlowNetwork bucket_merge_contract(const FlowNetwork& fn,
                                  const core::Partition& modules,
                                  std::size_t k, int scanners) {
  const VertexId n = fn.num_nodes();
  const auto owner_of = [k, scanners](VertexId m) {
    return static_cast<int>(std::uint64_t{m} *
                            static_cast<unsigned>(scanners) / k);
  };
  std::vector<std::vector<std::vector<graph::Edge>>> buckets(
      scanners, std::vector<std::vector<graph::Edge>>(scanners));
  std::vector<std::vector<double>> nf(scanners, std::vector<double>(k, 0.0));
  std::vector<std::vector<double>> tp(scanners, std::vector<double>(k, 0.0));
  std::vector<std::vector<std::uint64_t>> cnt(
      scanners, std::vector<std::uint64_t>(k, 0));
  for (int s = 0; s < scanners; ++s) {
    const auto first = static_cast<VertexId>(std::uint64_t{n} * s / scanners);
    const auto last =
        static_cast<VertexId>(std::uint64_t{n} * (s + 1) / scanners);
    for (VertexId u = first; u < last; ++u) {
      const VertexId mu = modules[u];
      nf[s][mu] += fn.node_flow[u];
      tp[s][mu] += fn.teleport_flow[u];
      cnt[s][mu] += fn.orig_count[u];
      const auto base = static_cast<std::size_t>(fn.graph().out_offset(u));
      const auto arcs = fn.graph().out_neighbors(u);
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        const VertexId mv = modules[arcs[i].dst];
        if (mu != mv) {
          buckets[s][owner_of(mu)].push_back(
              graph::Edge{mu, mv, fn.out_flow[base + i]});
        }
      }
    }
  }
  FlowNetwork out;
  out.total_orig = fn.total_orig;
  out.node_flow.assign(k, 0.0);
  out.teleport_flow.assign(k, 0.0);
  out.orig_count.assign(k, 0);
  for (std::size_t m = 0; m < k; ++m) {
    for (int s = 0; s < scanners; ++s) {
      out.node_flow[m] += nf[s][m];
      out.teleport_flow[m] += tp[s][m];
      out.orig_count[m] += cnt[s][m];
    }
  }
  std::vector<graph::Edge> edges;
  for (int t = 0; t < scanners; ++t) {
    std::vector<graph::Edge> mine;
    for (int s = 0; s < scanners; ++s) {
      mine.insert(mine.end(), buckets[s][t].begin(), buckets[s][t].end());
    }
    std::stable_sort(mine.begin(), mine.end(),
                     [](const graph::Edge& a, const graph::Edge& b) {
                       return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                     });
    for (std::size_t i = 0; i < mine.size();) {
      graph::Edge e = mine[i];
      std::size_t j = i + 1;
      for (; j < mine.size() && mine[j].src == e.src && mine[j].dst == e.dst;
           ++j) {
        e.weight += mine[j].weight;
      }
      edges.push_back(e);
      i = j;
    }
  }
  out.own(CsrGraph::from_edges(
      EdgeList::from_coalesced(std::move(edges), static_cast<VertexId>(k)),
      static_cast<VertexId>(k)));
  for (VertexId u = 0; u < out.num_nodes(); ++u) {
    for (const graph::Arc& a : out.graph().out_neighbors(u)) {
      out.out_flow.push_back(a.weight);
    }
  }
  for (VertexId u = 0; u < out.num_nodes(); ++u) {
    for (const graph::Arc& a : out.graph().in_neighbors(u)) {
      out.distinct_in_flow.push_back(a.weight);
    }
  }
  return out;
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i] - b[i]),
              1e-15 * std::max(std::abs(a[i]), std::abs(b[i])))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

TEST(Contract, MatchesBucketMergeContraction) {
  for (const CsrGraph* g : {&hubby_graph(), &directed_graph()}) {
    const FlowNetwork fn = core::build_flow(*g);
    std::size_t k = 0;
    const core::Partition modules = scattered_modules(g->num_vertices(), &k);
    const FlowNetwork c = core::contract_network(fn, modules, k, 2);
    for (int scanners : {1, 2, 4}) {
      SCOPED_TRACE(scanners);
      const FlowNetwork ref = bucket_merge_contract(fn, modules, k, scanners);
      ASSERT_EQ(c.num_nodes(), ref.num_nodes());
      ASSERT_EQ(c.graph().num_arcs(), ref.graph().num_arcs());
      for (VertexId m = 0; m < c.num_nodes(); ++m) {
        const auto a = c.graph().out_neighbors(m);
        const auto b = ref.graph().out_neighbors(m);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].dst, b[i].dst);
        }
        const auto ai = c.graph().in_neighbors(m);
        const auto bi = ref.graph().in_neighbors(m);
        ASSERT_EQ(ai.size(), bi.size());
        for (std::size_t i = 0; i < ai.size(); ++i) {
          EXPECT_EQ(ai[i].dst, bi[i].dst);
        }
      }
      EXPECT_EQ(c.graph().is_symmetric(), ref.graph().is_symmetric());
      EXPECT_EQ(c.orig_count, ref.orig_count);
      // The per-scanner partials reorder the node-flow sums; super-arcs
      // are summed in member order on both paths, so they match bitwise.
      expect_close(c.node_flow, ref.node_flow, "node_flow");
      expect_close(c.teleport_flow, ref.teleport_flow, "teleport_flow");
      EXPECT_EQ(c.out_flow, ref.out_flow);
      EXPECT_EQ(to_vector(c.in_flow()), to_vector(ref.in_flow()));
    }
  }
}

TEST(Contract, ModuleWithoutCrossArcsGetsEmptyRow) {
  // Module 0 = a triangle with no arc leaving it; modules 1 and 2 share
  // a bridge.
  EdgeList e;
  e.add_undirected(0, 1);
  e.add_undirected(1, 2);
  e.add_undirected(0, 2);
  e.add_undirected(3, 4);
  e.add_undirected(4, 5);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const FlowNetwork fn = core::build_flow(g);
  const core::Partition modules = {0, 0, 0, 1, 1, 2};
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const FlowNetwork c = core::contract_network(fn, modules, 3, threads);
    ASSERT_EQ(c.num_nodes(), 3u);
    EXPECT_EQ(c.graph().out_degree(0), 0u);
    EXPECT_EQ(c.graph().in_degree(0), 0u);
    EXPECT_EQ(c.graph().num_arcs(), 2u);  // 1 -> 2 and 2 -> 1
    EXPECT_EQ(c.node_flow[0], fn.node_flow[0] + fn.node_flow[1] +
                                  fn.node_flow[2]);
    EXPECT_EQ(c.orig_count, (std::vector<std::uint64_t>{3, 2, 1}));
    EXPECT_TRUE(c.graph().is_symmetric());
    expect_left_fold(fn, modules, 3, c);
  }
}

TEST(Contract, SingleModuleAtEveryThreadCount) {
  const FlowNetwork fn = core::build_flow(hubby_graph());
  const core::Partition one_module(fn.num_nodes(), 0);
  const FlowNetwork serial = core::contract_network(fn, one_module, 1, 1);
  ASSERT_EQ(serial.num_nodes(), 1u);
  EXPECT_EQ(serial.graph().num_arcs(), 0u);
  EXPECT_EQ(serial.orig_count[0], fn.num_nodes());
  EXPECT_NEAR(serial.node_flow[0], 1.0, 1e-9);
  for (int threads : {2, 4}) {
    expect_same_network(serial,
                        core::contract_network(fn, one_module, 1, threads),
                        std::to_string(threads));
  }
}

}  // namespace
