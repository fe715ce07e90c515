// Tests for asamap::dyn — the delta-log overlay on the immutable CSR and
// incremental warm-start planning — plus the session's dynamic-graph
// surface (ADD_EDGE / DEL_EDGE / APPLY / DELTA STATUS) and the registry
// pinning that keeps a graph with pending mutations resident.
//
// The DeltaLog/DeltaView semantics are checked two ways: small hand-built
// cases for each rule (accumulate, tombstone, resurrect, mirroring, new
// vertices), and a fuzz harness that replays random mutation streams
// against a naive map-based reference model, including interleaved folds
// (compaction must be invisible to the final merged graph).
//
// This file is part of the TSAN CI job: the stress tests below race
// appends, folds, APPLY jobs, and protocol readers on one session.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/dyn/delta_log.hpp"
#include "asamap/dyn/incremental.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/graph/csr_graph.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using dyn::DeltaLog;
using dyn::DeltaOp;
using dyn::DeltaRecord;
using dyn::DeltaView;
using graph::VertexId;
using graph::Weight;

graph::CsrGraph triangle() {
  graph::EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(1, 2);
  el.add_undirected(2, 0);
  return graph::CsrGraph::from_edges(el, 3);
}

std::vector<graph::Arc> out_arcs(const graph::CsrGraph& g, VertexId u) {
  const auto span = g.out_neighbors(u);
  return {span.begin(), span.end()};
}

// --- naive reference model ------------------------------------------------

/// The specification, executably: a sorted map of (src, dst) -> weight with
/// the record semantics applied literally.  DEL erases the arc (tombstones
/// the base *and* voids prior adds); ADD accumulates from whatever is
/// there.  Undirected streams patch both directions.
struct NaiveGraph {
  std::map<std::pair<VertexId, VertexId>, Weight> arcs;
  VertexId n = 0;
  bool undirected = true;

  explicit NaiveGraph(const graph::CsrGraph& g) {
    n = g.num_vertices();
    undirected = g.is_symmetric();
    for (VertexId u = 0; u < n; ++u) {
      for (const graph::Arc& a : g.out_neighbors(u)) {
        arcs[{u, a.dst}] = a.weight;
      }
    }
  }

  void apply(const DeltaRecord& rec) {
    if (rec.u == rec.v) return;
    const auto one = [&](VertexId s, VertexId d) {
      if (rec.op == DeltaOp::kAddEdge) {
        arcs[{s, d}] += rec.weight;
      } else {
        arcs.erase({s, d});
      }
    };
    one(rec.u, rec.v);
    if (undirected) one(rec.v, rec.u);
    n = std::max({n, rec.u + 1, rec.v + 1});
  }

  void expect_equals(const graph::CsrGraph& got, const char* label) const {
    ASSERT_EQ(got.num_vertices(), n) << label;
    std::size_t seen = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (const graph::Arc& a : got.out_neighbors(u)) {
        const auto it = arcs.find({u, a.dst});
        ASSERT_NE(it, arcs.end())
            << label << ": unexpected arc " << u << "->" << a.dst;
        EXPECT_DOUBLE_EQ(a.weight, it->second)
            << label << ": arc " << u << "->" << a.dst;
        ++seen;
      }
    }
    EXPECT_EQ(seen, arcs.size()) << label << ": arc count";
  }
};

// --- DeltaLog -------------------------------------------------------------

TEST(DeltaLog, AppendsAndCounts) {
  DeltaLog log;
  EXPECT_TRUE(log.empty());
  log.add_edge(0, 1, 2.0);
  log.add_edge(1, 2);
  log.del_edge(2, 0);
  EXPECT_EQ(log.pending(), 3u);
  const auto stats = log.stats();
  EXPECT_EQ(stats.adds, 2u);
  EXPECT_EQ(stats.dels, 1u);
  const auto batch = log.snapshot();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], (DeltaRecord{0, 1, 2.0, DeltaOp::kAddEdge}));
  EXPECT_EQ(batch[2].op, DeltaOp::kDelEdge);
}

TEST(DeltaLog, SnapshotDoesNotDrainAndTruncateConsumesOldest) {
  DeltaLog log;
  log.add_edge(0, 1);
  log.add_edge(1, 2);
  log.add_edge(2, 3);
  EXPECT_EQ(log.snapshot().size(), 3u);
  EXPECT_EQ(log.pending(), 3u);  // snapshot is a copy, not a drain
  log.truncate(2);
  const auto rest = log.snapshot();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].u, 2u);  // oldest two consumed, newest kept
  EXPECT_EQ(log.stats().truncations, 1u);
}

TEST(DeltaLog, ConcurrentAppendsAndReaders) {
  DeltaLog log;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto batch = log.snapshot();  // must always see a clean prefix
      if (!batch.empty()) {
        EXPECT_LE(batch.size(), log.stats().adds);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.add_edge(static_cast<VertexId>(w), static_cast<VertexId>(i + 10));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(log.pending(), std::size_t{kWriters} * kPerWriter);
}

// --- DeltaView semantics --------------------------------------------------

TEST(DeltaView, AddCreatesArcBothDirectionsOnSymmetricBase) {
  const auto base = triangle();
  const std::vector<DeltaRecord> batch = {{0, 2, 1.0, DeltaOp::kDelEdge},
                                          {1, 2, 3.0, DeltaOp::kAddEdge}};
  const DeltaView view(base, batch);
  // 1-2 existed with weight 1; the ADD accumulates on both directions.
  const auto out1 = view.out_arcs(1);
  ASSERT_EQ(out1.size(), 2u);
  EXPECT_EQ(out1[0].dst, 0u);
  EXPECT_EQ(out1[1].dst, 2u);
  EXPECT_DOUBLE_EQ(out1[1].weight, 4.0);
  const auto out2 = view.out_arcs(2);
  ASSERT_EQ(out2.size(), 1u);  // 2-0 tombstoned, 2-1 survives
  EXPECT_EQ(out2[0].dst, 1u);
  EXPECT_DOUBLE_EQ(out2[0].weight, 4.0);
}

TEST(DeltaView, DelVoidsPriorAddsAndLaterAddResurrects) {
  const auto base = triangle();
  const std::vector<DeltaRecord> batch = {
      {0, 1, 5.0, DeltaOp::kAddEdge},   // base 1 + 5
      {0, 1, 0.0, DeltaOp::kDelEdge},   // gone, including the add
      {0, 1, 2.5, DeltaOp::kAddEdge}};  // back with only the new weight
  const DeltaView view(base, batch);
  const auto out0 = view.out_arcs(0);
  ASSERT_EQ(out0.size(), 2u);
  EXPECT_DOUBLE_EQ(out0[0].weight, 2.5);  // 0->1
  EXPECT_DOUBLE_EQ(out0[1].weight, 1.0);  // 0->2 untouched
}

TEST(DeltaView, PureTombstoneLeavesNoArc) {
  const auto base = triangle();
  const std::vector<DeltaRecord> batch = {{0, 1, 0.0, DeltaOp::kDelEdge}};
  const DeltaView view(base, batch);
  EXPECT_EQ(view.out_degree(0), 1u);
  EXPECT_EQ(view.out_degree(1), 1u);  // the mirror is tombstoned too
  EXPECT_EQ(view.out_degree(2), 2u);
}

TEST(DeltaView, NewVerticesGrowTheMergedGraph) {
  const auto base = triangle();
  const std::vector<DeltaRecord> batch = {{2, 5, 1.5, DeltaOp::kAddEdge}};
  const DeltaView view(base, batch);
  EXPECT_EQ(view.num_vertices(), 6u);
  EXPECT_EQ(view.out_degree(5), 1u);
  EXPECT_EQ(view.out_degree(4), 0u);  // gap vertices exist but are isolated
  const auto merged = view.materialize();
  EXPECT_EQ(merged.num_vertices(), 6u);
  const auto out5 = out_arcs(merged, 5);
  ASSERT_EQ(out5.size(), 1u);
  EXPECT_EQ(out5[0].dst, 2u);
  EXPECT_DOUBLE_EQ(out5[0].weight, 1.5);
  EXPECT_TRUE(merged.is_symmetric());
  EXPECT_EQ(view.touched(), (std::vector<VertexId>{2, 5}));
}

TEST(DeltaView, SelfLoopsAreSkipped) {
  const auto base = triangle();
  const std::vector<DeltaRecord> batch = {{1, 1, 9.0, DeltaOp::kAddEdge}};
  const DeltaView view(base, batch);
  EXPECT_EQ(view.out_degree(1), 2u);
  EXPECT_TRUE(view.touched().empty());
}

TEST(DeltaView, EmptyBatchMaterializesTheBase) {
  const auto base = triangle();
  const DeltaView view(base, {});
  NaiveGraph ref(base);
  ref.expect_equals(view.materialize(), "empty batch");
}

TEST(DeltaView, MergedAdjacencyStaysSortedByDst) {
  const auto base = gen::erdos_renyi(64, 0.1, 99);
  support::Xoshiro256 rng(17);
  std::vector<DeltaRecord> batch;
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(70));
    const auto v = static_cast<VertexId>(rng.next_below(70));
    batch.push_back({u, v, 1.0 + rng.next_double(),
                     rng.next_double() < 0.3 ? DeltaOp::kDelEdge
                                             : DeltaOp::kAddEdge});
  }
  const DeltaView view(base, batch);
  for (VertexId u = 0; u < view.num_vertices(); ++u) {
    VertexId prev = 0;
    bool first = true;
    view.for_each_out(u, [&](const graph::Arc& a) {
      if (!first) {
        EXPECT_LT(prev, a.dst) << "vertex " << u;
      }
      prev = a.dst;
      first = false;
      EXPECT_GT(a.weight, 0.0);
    });
  }
}

// --- fuzz vs the naive reference -----------------------------------------

std::vector<DeltaRecord> random_stream(support::Xoshiro256& rng,
                                       const graph::CsrGraph& base,
                                       std::size_t count) {
  // Mix of: deletions of real base edges, re-adds, and fresh endpoints a
  // little past the base vertex count (new-vertex arrivals).
  const VertexId n = base.num_vertices();
  std::vector<DeltaRecord> out;
  out.reserve(count);
  while (out.size() < count) {
    const double roll = rng.next_double();
    DeltaRecord rec;
    if (roll < 0.35 && base.num_arcs() > 0) {
      // Target an existing arc so tombstones actually hit base adjacency.
      const VertexId u = static_cast<VertexId>(rng.next_below(n));
      const auto nbrs = base.out_neighbors(u);
      if (nbrs.empty()) continue;
      rec.u = u;
      rec.v = nbrs[rng.next_below(nbrs.size())].dst;
      rec.op = rng.next_double() < 0.7 ? DeltaOp::kDelEdge : DeltaOp::kAddEdge;
    } else {
      rec.u = static_cast<VertexId>(rng.next_below(n + 8));
      rec.v = static_cast<VertexId>(rng.next_below(n + 8));
      rec.op = rng.next_double() < 0.25 ? DeltaOp::kDelEdge : DeltaOp::kAddEdge;
    }
    if (rec.u == rec.v) continue;
    rec.weight = 0.25 + rng.next_double();
    out.push_back(rec);
  }
  return out;
}

TEST(DeltaFuzz, MatchesNaiveReferenceAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    support::Xoshiro256 rng(seed);
    const auto base = gen::erdos_renyi(48, 0.12, 1000 + seed);
    const auto stream = random_stream(rng, base, 400);
    NaiveGraph ref(base);
    for (const DeltaRecord& rec : stream) ref.apply(rec);
    const DeltaView view(base, stream);
    ref.expect_equals(view.materialize(), "one-shot fold");
  }
}

TEST(DeltaFuzz, InterleavedFoldsAreInvisible) {
  // Folding mid-stream (compaction) must commute with replaying the whole
  // stream at once: chunk the stream, materialize after each chunk, feed
  // the merged CSR back in as the next chunk's base.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    support::Xoshiro256 rng(seed);
    const auto base = gen::erdos_renyi(40, 0.15, 2000 + seed);
    const auto stream = random_stream(rng, base, 300);
    NaiveGraph ref(base);
    for (const DeltaRecord& rec : stream) ref.apply(rec);

    graph::CsrGraph rolling = base;
    std::size_t i = 0;
    while (i < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.next_below(60), stream.size() - i);
      const std::vector<DeltaRecord> batch(stream.begin() + i,
                                           stream.begin() + i + chunk);
      rolling = DeltaView(rolling, batch).materialize();
      i += chunk;
    }
    ref.expect_equals(rolling, "interleaved folds");

    const DeltaView once(base, stream);
    ref.expect_equals(once.materialize(), "one-shot control");
  }
}

// --- row splice vs the edge-list fold --------------------------------------

/// The fold materialize() replaced, kept as its oracle: every merged arc
/// into an edge vector in (src, dst) order, adopted as coalesced, then the
/// generic edge-list builder.
graph::CsrGraph edge_list_fold(const DeltaView& view) {
  std::vector<graph::Edge> edges;
  for (VertexId u = 0; u < view.num_vertices(); ++u) {
    view.for_each_out(u, [&edges, u](const graph::Arc& a) {
      edges.push_back(graph::Edge{u, a.dst, a.weight});
    });
  }
  const graph::EdgeList el =
      graph::EdgeList::from_coalesced(std::move(edges), view.num_vertices());
  return graph::CsrGraph::from_edges(el, view.num_vertices());
}

std::uint64_t bits(Weight w) { return std::bit_cast<std::uint64_t>(w); }

/// Field by field (Arc has padding, so no memcmp), weights as bit patterns.
/// The per-vertex weights and the total are also checked against sums in
/// edge-list order, the order the edge-list builder always summed in.
void expect_bitwise_fold(const DeltaView& view, const std::string& label) {
  const graph::CsrGraph got = view.materialize();
  const graph::CsrGraph want = edge_list_fold(view);
  const VertexId n = want.num_vertices();
  ASSERT_EQ(got.num_vertices(), n) << label;
  ASSERT_EQ(got.num_arcs(), want.num_arcs()) << label;
  EXPECT_EQ(got.out_offset(n), want.out_offset(n)) << label;
  EXPECT_EQ(got.in_offset(n), want.in_offset(n)) << label;
  std::vector<Weight> out_sum(n, 0.0), in_sum(n, 0.0);
  Weight total = 0.0;
  const auto expect_row = [&](std::span<const graph::Arc> g,
                              std::span<const graph::Arc> w, VertexId u,
                              const char* side) {
    ASSERT_EQ(g.size(), w.size()) << label << ": " << side << " row " << u;
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].dst, w[i].dst) << label << ": " << side << " row " << u;
      EXPECT_EQ(bits(g[i].weight), bits(w[i].weight))
          << label << ": " << side << " row " << u;
    }
  };
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(got.out_offset(u), want.out_offset(u)) << label << " " << u;
    EXPECT_EQ(got.in_offset(u), want.in_offset(u)) << label << " " << u;
    expect_row(got.out_neighbors(u), want.out_neighbors(u), u, "out");
    expect_row(got.in_neighbors(u), want.in_neighbors(u), u, "in");
    for (const graph::Arc& a : want.out_neighbors(u)) {
      out_sum[u] += a.weight;
      in_sum[a.dst] += a.weight;
      total += a.weight;
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(bits(got.out_weight(u)), bits(want.out_weight(u))) << label;
    EXPECT_EQ(bits(got.in_weight(u)), bits(want.in_weight(u))) << label;
    EXPECT_EQ(bits(got.out_weight(u)), bits(out_sum[u])) << label;
    EXPECT_EQ(bits(got.in_weight(u)), bits(in_sum[u])) << label;
  }
  EXPECT_EQ(bits(got.total_arc_weight()), bits(want.total_arc_weight()))
      << label;
  EXPECT_EQ(bits(got.total_arc_weight()), bits(total)) << label;
  EXPECT_EQ(got.is_symmetric(), want.is_symmetric()) << label;
}

/// Every batch shape the splice has a branch for, over one base.
void expect_bitwise_batches(const graph::CsrGraph& base, std::uint64_t seed,
                            const std::string& label) {
  const VertexId n = base.num_vertices();
  expect_bitwise_fold(DeltaView(base, {}), label + ": empty batch");

  support::Xoshiro256 rng(seed);
  std::vector<DeltaRecord> dels;
  while (dels.size() < 40) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto nbrs = base.out_neighbors(u);
    if (nbrs.empty()) continue;
    dels.push_back({u, nbrs[rng.next_below(nbrs.size())].dst, 0.0,
                    DeltaOp::kDelEdge});
  }
  dels.push_back({0, n - 1, 0.0, DeltaOp::kDelEdge});  // may miss: no-op
  expect_bitwise_fold(DeltaView(base, dels), label + ": delete-only");

  // DEL then ADD on a base arc: resurrected with only the new weight.
  std::vector<DeltaRecord> resurrect;
  for (std::size_t i = 0; i < 10; ++i) {
    resurrect.push_back(dels[i]);
    resurrect.push_back({dels[i].u, dels[i].v, 0.375, DeltaOp::kAddEdge});
  }
  expect_bitwise_fold(DeltaView(base, resurrect), label + ": resurrection");

  // First and last rows, and endpoints past n that grow the graph.
  const std::vector<DeltaRecord> edges_of_range = {
      {0, n - 1, 1.25, DeltaOp::kAddEdge},
      {n - 1, 1, 0.5, DeltaOp::kAddEdge},
      {0, n + 3, 2.0, DeltaOp::kAddEdge},
      {n + 1, n - 1, 0.75, DeltaOp::kAddEdge}};
  expect_bitwise_fold(DeltaView(base, edges_of_range),
                      label + ": rows 0, n-1, growth");

  for (int round = 0; round < 4; ++round) {
    const auto stream = random_stream(rng, base, 50 + 100 * round);
    expect_bitwise_fold(DeltaView(base, stream), label + ": random");
    // The same stream as directed records, whatever the base.
    expect_bitwise_fold(DeltaView(base, stream, false), label + ": directed");
  }
}

TEST(DeltaFuzz, SpliceIsBitwiseTheEdgeListFold) {
  const auto er = gen::erdos_renyi(300, 0.03, 4101);
  ASSERT_TRUE(er.is_symmetric());
  expect_bitwise_batches(er, 4103, "erdos-renyi");

  gen::ChungLuParams params;
  params.n = 2000;
  params.target_edges = 12000;
  params.gamma = 2.1;
  params.min_deg = 2;
  const auto cl = gen::chung_lu(params, 4107);
  ASSERT_TRUE(cl.is_symmetric());
  expect_bitwise_batches(cl, 4109, "chung-lu");

  // Directed base: random arcs with random weights, about half of them
  // reciprocated with a different weight.
  support::Xoshiro256 rng(4111);
  graph::EdgeList el;
  for (int i = 0; i < 1500; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(200));
    const auto v = static_cast<VertexId>(rng.next_below(200));
    if (u == v) continue;
    el.add(u, v, 0.5 + rng.next_double());
    if (rng.next_double() < 0.5) el.add(v, u, 0.5 + rng.next_double());
  }
  el.coalesce();
  const auto directed = graph::CsrGraph::from_edges(el, 200);
  ASSERT_FALSE(directed.is_symmetric());
  expect_bitwise_batches(directed, 4113, "directed");

  // A directed record on a symmetric base breaks symmetry; only its rows
  // are re-checked, and the check must still see it.
  const std::vector<DeltaRecord> one_way = {{3, 250, 1.0, DeltaOp::kAddEdge}};
  const DeltaView broken(er, one_way, /*undirected=*/false);
  expect_bitwise_fold(broken, "symmetry broken");
  EXPECT_FALSE(broken.materialize().is_symmetric());

  // A directed base one arc short of symmetric: the missing reverse arc
  // restores symmetry.
  graph::EdgeList almost;
  almost.add_undirected(0, 1, 2.0);
  almost.add_undirected(1, 2, 0.5);
  almost.add(2, 3, 1.5);
  almost.coalesce();
  const auto lopsided = graph::CsrGraph::from_edges(almost, 4);
  ASSERT_FALSE(lopsided.is_symmetric());
  const std::vector<DeltaRecord> reverse = {{3, 2, 1.5, DeltaOp::kAddEdge}};
  const DeltaView restored(lopsided, reverse);
  expect_bitwise_fold(restored, "symmetry restored");
  EXPECT_TRUE(restored.materialize().is_symmetric());
}

TEST(DeltaFuzz, UndirectedFoldOverOneSidedBaseStaysOneSided) {
  const auto base = gen::erdos_renyi(300, 0.03, 4201);
  ASSERT_TRUE(base.one_sided());
  support::Xoshiro256 rng(4203);
  const auto stream = random_stream(rng, base, 200);
  const DeltaView view(base, stream);
  const graph::CsrGraph merged = view.materialize();
  EXPECT_TRUE(merged.one_sided());
  EXPECT_TRUE(merged.is_symmetric());
  EXPECT_TRUE(edge_list_fold(view).one_sided());
  expect_bitwise_fold(view, "undirected over one-sided");
}

TEST(DeltaFuzz, OneDirectionAddOverOneSidedBaseGetsTwoSides) {
  const auto base = gen::erdos_renyi(300, 0.03, 4201);
  ASSERT_TRUE(base.one_sided());
  const std::vector<DeltaRecord> one_way = {{3, 250, 1.0, DeltaOp::kAddEdge}};
  const DeltaView view(base, one_way, /*undirected=*/false);
  const graph::CsrGraph merged = view.materialize();
  EXPECT_FALSE(merged.one_sided());
  EXPECT_FALSE(merged.is_symmetric());
  EXPECT_NE(merged.in_neighbors(3).data(), merged.out_neighbors(3).data());
  // Equal, row for row and bit for bit, to from_edges of the same arcs.
  expect_bitwise_fold(view, "one-direction add");
}

// --- incremental warm-start planning --------------------------------------

TEST(WarmStart, CarriesMembershipAndSeedsNewVertices) {
  // Non-compact previous ids on 4 vertices; merge grew the graph to 6.
  const core::Partition prev = {7, 7, 42, 42};
  const std::vector<VertexId> touched = {1, 3};
  const dyn::WarmStart plan = dyn::plan_warm_start(prev, 6, touched);
  ASSERT_EQ(plan.init.size(), 6u);
  EXPECT_EQ(plan.init[0], plan.init[1]);
  EXPECT_EQ(plan.init[2], plan.init[3]);
  EXPECT_NE(plan.init[0], plan.init[2]);
  // New vertices are fresh singletons, distinct from everything.
  EXPECT_NE(plan.init[4], plan.init[5]);
  EXPECT_NE(plan.init[4], plan.init[0]);
  EXPECT_NE(plan.init[4], plan.init[2]);
  EXPECT_EQ(plan.num_modules, 4u);
  for (const VertexId m : plan.init) EXPECT_LT(m, plan.num_modules);
  // Active seed = touched + new vertices, deduped ascending.
  EXPECT_EQ(plan.active_seed, (std::vector<VertexId>{1, 3, 4, 5}));
}

TEST(WarmStart, EvaluateCodelengthMatchesDriverResult) {
  const auto pp = gen::planted_partition(600, 6, 0.25, 0.01, 31);
  const auto result = core::run_infomap(pp.graph);
  EXPECT_NEAR(dyn::evaluate_codelength(pp.graph, result.communities),
              result.codelength, 1e-9);
}

TEST(WarmStart, DriverStartsFromWarmPartitionAndOnlyImproves) {
  const auto pp = gen::planted_partition(800, 8, 0.25, 0.01, 37);
  core::InfomapOptions opts;
  opts.warm_start = &pp.ground_truth;
  const auto result = core::run_infomap(pp.graph, opts);
  // initial_codelength is the warm partition's L, and greedy sweeps only
  // ever lower it.
  EXPECT_NEAR(result.initial_codelength,
              dyn::evaluate_codelength(pp.graph, pp.ground_truth), 1e-9);
  EXPECT_LE(result.codelength, result.initial_codelength + 1e-12);
}

TEST(WarmStart, SeededActiveSetConfinesTheResweep) {
  // Warm-start from the driver's own converged answer with an empty active
  // seed: nothing is active, so nothing can move.
  const auto pp = gen::planted_partition(600, 6, 0.3, 0.008, 41);
  const auto full = core::run_infomap_parallel(pp.graph, {}, 2);
  core::InfomapOptions opts;
  opts.warm_start = &full.communities;
  const std::vector<VertexId> no_seed;
  opts.active_seed = &no_seed;
  const auto warm = core::run_infomap_parallel(pp.graph, opts, 2);
  EXPECT_NEAR(warm.codelength, full.codelength, 1e-12);
  EXPECT_EQ(warm.communities, full.communities);
}

// --- registry pinning (eviction must not orphan pending deltas) -----------

TEST(RegistryPinning, PinnedGraphSurvivesBudgetPressure) {
  gen::ChungLuParams params;
  params.n = 300;
  params.target_edges = 1200;
  serve::RegistryConfig config;
  config.memory_budget_bytes =
      serve::GraphRegistry::approx_bytes(gen::chung_lu(params, 1)) * 3 / 2;
  serve::GraphRegistry reg(config);
  ASSERT_TRUE(reg.put_graph("pinned", gen::chung_lu(params, 1)).ok());
  ASSERT_TRUE(reg.set_pinned("pinned", true));
  EXPECT_TRUE(reg.pinned("pinned"));
  EXPECT_EQ(reg.stats().pinned, 1u);
  // Over budget now — but the pinned entry must not be the victim.
  ASSERT_TRUE(reg.put_graph("other", gen::chung_lu(params, 2)).ok());
  EXPECT_NE(reg.get("pinned"), nullptr);  // also makes it most-recently-used
  EXPECT_TRUE(reg.under_pressure());  // only evictable entry is the insert
  // Unpinning settles the budget: the LRU entry ("other" — the get above
  // refreshed "pinned") is evicted.
  ASSERT_TRUE(reg.set_pinned("pinned", false));
  EXPECT_EQ(reg.stats().pinned, 0u);
  EXPECT_NE(reg.get("pinned"), nullptr);
  EXPECT_EQ(reg.get("other"), nullptr);
  EXPECT_FALSE(reg.under_pressure());
  EXPECT_FALSE(reg.set_pinned("missing", true));  // absent name: no-op
}

TEST(RegistryPinning, SessionPinsGraphWithPendingDeltas) {
  // Regression: before pinning, budget pressure could evict a graph whose
  // delta log held un-folded records — the mutations patched *that* base
  // CSR and were silently lost.
  gen::ChungLuParams params;
  params.n = 300;
  params.target_edges = 1200;
  serve::SessionConfig config;
  config.cluster_threads = 1;
  config.registry.memory_budget_bytes =
      serve::GraphRegistry::approx_bytes(gen::chung_lu(params, 1)) * 3 / 2;
  serve::ServeSession session(config);
  ASSERT_TRUE(session.gen_chung_lu("dynamic", 300, 1200, 1).ok());
  ASSERT_TRUE(session.add_edge("dynamic", 0, 7, 2.0).ok());
  EXPECT_TRUE(session.registry().pinned("dynamic"));
  // Budget pressure from a second graph: the mutated graph must survive.
  ASSERT_TRUE(session.gen_chung_lu("bulk", 300, 1200, 2).ok());
  ASSERT_NE(session.registry().get("dynamic"), nullptr);
  const auto st = session.delta_status("dynamic");
  EXPECT_TRUE(st.known);
  EXPECT_EQ(st.pending, 1u);
  EXPECT_TRUE(st.pinned);
  // APPLY folds the log; with nothing pending the pin is released.
  const auto submitted = session.submit_apply("dynamic", false);
  ASSERT_TRUE(submitted.accepted());
  EXPECT_EQ(session.scheduler().wait(submitted.id), serve::JobState::kDone);
  EXPECT_EQ(session.delta_status("dynamic").pending, 0u);
  EXPECT_FALSE(session.registry().pinned("dynamic"));
}

// --- session surface ------------------------------------------------------

serve::SessionConfig session_config() {
  serve::SessionConfig config;
  config.cluster_threads = 1;
  config.scheduler.workers = 2;
  return config;
}

TEST(SessionDelta, MutateFoldApplyRoundTrip) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 400, 1600, 5).ok());
  EXPECT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");
  const auto before = session.snapshot("g");
  ASSERT_NE(before, nullptr);

  std::string resp = session.handle_line("ADD_EDGE g 1 2 0.5");
  EXPECT_NE(resp.find("OK graph=g op=add"), std::string::npos) << resp;
  EXPECT_NE(resp.find("pending=1"), std::string::npos) << resp;
  resp = session.handle_line("DEL_EDGE g 2 3");
  EXPECT_NE(resp.find("op=del"), std::string::npos) << resp;
  EXPECT_NE(resp.find("pending=2"), std::string::npos) << resp;

  resp = session.handle_line("DELTA STATUS g");
  EXPECT_NE(resp.find("pending=2"), std::string::npos) << resp;
  EXPECT_NE(resp.find("adds=1"), std::string::npos) << resp;
  EXPECT_NE(resp.find("dels=1"), std::string::npos) << resp;
  EXPECT_NE(resp.find("pinned=1"), std::string::npos) << resp;

  resp = session.handle_line("APPLY g recluster=full sync");
  ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
  EXPECT_NE(resp.find("mode=full"), std::string::npos) << resp;
  EXPECT_NE(resp.find("state=done"), std::string::npos) << resp;
  EXPECT_NE(resp.find("published=1"), std::string::npos) << resp;
  const auto after = session.snapshot("g");
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->version, before->version);
  // The mutations are in the served graph now.
  bool found = false;
  for (const graph::Arc& a : after->graph->out_neighbors(1)) {
    if (a.dst == 2) found = true;
  }
  EXPECT_TRUE(found);
  for (const graph::Arc& a : after->graph->out_neighbors(2)) {
    EXPECT_NE(a.dst, 3u);  // deleted
  }
  resp = session.handle_line("DELTA STATUS g");
  EXPECT_NE(resp.find("pending=0"), std::string::npos) << resp;
  EXPECT_NE(resp.find("applies_full=1"), std::string::npos) << resp;
  EXPECT_NE(resp.find("pinned=0"), std::string::npos) << resp;
}

TEST(SessionDelta, IncrementalApplyPublishesOnlyOnImprovement) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 500, 2000, 6).ok());
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");
  // No mutations at all: the warm re-sweep starts at the converged
  // partition, finds no improvement, and must not publish.
  const auto before = session.snapshot("g");
  std::string resp = session.handle_line("APPLY g recluster=incr sync");
  ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
  EXPECT_NE(resp.find("mode=incr"), std::string::npos) << resp;
  if (resp.find("published=0") != std::string::npos) {
    EXPECT_NE(resp.find("reason=no_improvement"), std::string::npos) << resp;
    EXPECT_EQ(session.snapshot("g")->version, before->version);
    const auto st = session.delta_status("g");
    EXPECT_EQ(st.incr_skipped, 1u);
    EXPECT_STREQ(st.last_skip, "no_improvement");
  }
  const auto st = session.delta_status("g");
  EXPECT_EQ(st.applies_incr, 1u);
}

TEST(SessionDelta, IncrementalApplyFallsBackToFullWhenNeverClustered) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 300, 1200, 7).ok());
  ASSERT_TRUE(session.add_edge("g", 0, 5).ok());
  const std::string resp = session.handle_line("APPLY g sync");
  ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
  EXPECT_NE(resp.find("published=1"), std::string::npos) << resp;
  // Without a previous snapshot the "incr" request ran the full path.
  EXPECT_EQ(session.delta_status("g").applies_full, 1u);
  ASSERT_NE(session.snapshot("g"), nullptr);
}

TEST(SessionDelta, SecondApplyWhileFirstInFlightIsRejected) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 300, 1200, 8).ok());
  // Park both workers so the APPLY stays queued (deterministically
  // in-flight) while we submit the second one.
  std::atomic<bool> release{false};
  const auto park = [&release](const serve::JobContext&) {
    while (!release.load()) std::this_thread::yield();
  };
  const auto p1 = session.scheduler().submit(park);
  const auto p2 = session.scheduler().submit(park);
  ASSERT_TRUE(p1.accepted());
  ASSERT_TRUE(p2.accepted());
  const auto first = session.submit_apply("g");
  ASSERT_TRUE(first.accepted());
  const auto second = session.submit_apply("g");
  EXPECT_FALSE(second.accepted());
  EXPECT_EQ(second.status.code, serve::ServeCode::kUnavailable);
  EXPECT_TRUE(session.delta_status("g").apply_inflight);
  release.store(true);
  session.scheduler().wait(first.id);
  // Terminal first job: a new APPLY is accepted again.
  const auto third = session.submit_apply("g");
  EXPECT_TRUE(third.accepted());
  session.scheduler().wait(third.id);
}

TEST(SessionDelta, ThresholdTriggersAutoFold) {
  serve::SessionConfig config = session_config();
  config.delta_compact_threshold = 4;
  serve::ServeSession session(config);
  ASSERT_TRUE(session.gen_chung_lu("g", 200, 800, 9).ok());
  const auto arcs_before = session.registry().get("g")->num_arcs();
  for (int i = 0; i < 3; ++i) {
    const auto resp = session.handle_line(
        "ADD_EDGE g " + std::to_string(i) + " " + std::to_string(i + 100));
    EXPECT_NE(resp.find("folded=0"), std::string::npos) << resp;
  }
  const auto resp = session.handle_line("ADD_EDGE g 3 103");
  EXPECT_NE(resp.find("folded=1"), std::string::npos) << resp;
  EXPECT_NE(resp.find("pending=0"), std::string::npos) << resp;
  // The served CSR already holds the folded edges (no APPLY yet).
  EXPECT_GT(session.registry().get("g")->num_arcs(), arcs_before);
  const auto st = session.delta_status("g");
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(st.last_batch, 4u);
  EXPECT_FALSE(st.pinned);  // nothing pending after the fold
}

TEST(SessionDelta, ValidationErrors) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 100, 400, 10).ok());
  EXPECT_EQ(session.add_edge("missing", 0, 1).code, serve::ServeCode::kNotFound);
  EXPECT_EQ(session.add_edge("g", 3, 3).code,
            serve::ServeCode::kInvalidArgument);  // self-loop
  EXPECT_EQ(session.add_edge("g", 0, 1, -1.0).code,
            serve::ServeCode::kInvalidArgument);  // non-positive weight
  EXPECT_EQ(session.add_edge("g", 0, 100 + 70000).code,
            serve::ServeCode::kTooLarge);  // beyond new-vertex headroom
  EXPECT_EQ(session.handle_line("ADD_EDGE g 0").substr(0, 3), "ERR");
  EXPECT_EQ(session.handle_line("DEL_EDGE g 0 1 2").substr(0, 3), "ERR");
  EXPECT_EQ(session.handle_line("APPLY g recluster=banana").substr(0, 3),
            "ERR");
  EXPECT_EQ(session.handle_line("DELTA STATUS missing").substr(0, 3), "ERR");
  EXPECT_EQ(session.handle_line("DELTA BOGUS g").substr(0, 3), "ERR");
}

TEST(SessionDelta, ReingestAndDropDiscardPendingDeltas) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 200, 800, 11).ok());
  ASSERT_TRUE(session.add_edge("g", 0, 9).ok());
  EXPECT_EQ(session.delta_status("g").pending, 1u);
  // Replacing the graph discards deltas (they patched the old base).
  ASSERT_TRUE(session.gen_chung_lu("g", 200, 800, 12).ok());
  EXPECT_EQ(session.delta_status("g").pending, 0u);
  EXPECT_FALSE(session.registry().pinned("g"));
  ASSERT_TRUE(session.add_edge("g", 0, 9).ok());
  EXPECT_TRUE(session.drop("g"));
  EXPECT_EQ(session.handle_line("DELTA STATUS g").substr(0, 3), "ERR");
}

TEST(SessionDelta, DeltaMetricsAreRegisteredAndMove) {
  serve::ServeSession session(session_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 200, 800, 13).ok());
  ASSERT_TRUE(session.add_edge("g", 0, 5).ok());
  ASSERT_TRUE(session.del_edge("g", 0, 1).ok());
  const auto submitted = session.submit_apply("g", false);
  ASSERT_TRUE(submitted.accepted());
  session.scheduler().wait(submitted.id);
  const std::string prom = session.handle_line("METRICS prom");
  for (const char* name :
       {"asamap_delta_records_total", "asamap_delta_pending",
        "asamap_delta_compactions_total", "asamap_delta_folded_records_total",
        "asamap_delta_applies_total", "asamap_delta_apply_seconds",
        "asamap_incr_publishes_total", "asamap_incr_skipped_total",
        "asamap_incr_active_vertices", "asamap_registry_pinned"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  EXPECT_NE(prom.find("asamap_delta_records_total{op=\"add\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("asamap_delta_records_total{op=\"del\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("asamap_delta_applies_total{mode=\"full\"} 1"),
            std::string::npos);
}

// --- concurrent read-while-apply stress (TSAN) ----------------------------

TEST(SessionDeltaStress, ReadersRaceMutationsAndApplies) {
  serve::SessionConfig config = session_config();
  config.delta_compact_threshold = 64;  // force folds during the run
  serve::ServeSession session(config);
  ASSERT_TRUE(session.gen_chung_lu("g", 400, 1600, 21).ok());
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Readers: protocol queries against whatever snapshot is current.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&session, &stop, r] {
      support::Xoshiro256 rng(100 + r);
      while (!stop.load()) {
        const auto v = rng.next_below(400);
        session.handle_line("MEMBER g " + std::to_string(v));
        session.handle_line("SUMMARY g");
        session.handle_line("DELTA STATUS g");
      }
    });
  }
  // Mutators: a stream of adds/deletes (threshold folds fire mid-stream).
  for (int m = 0; m < 2; ++m) {
    threads.emplace_back([&session, &stop, m] {
      support::Xoshiro256 rng(200 + m);
      while (!stop.load()) {
        const auto u = static_cast<VertexId>(rng.next_below(400));
        const auto v = static_cast<VertexId>(rng.next_below(410));
        if (u == v) continue;
        if (rng.next_double() < 0.8) {
          session.add_edge("g", u, v, 0.5 + rng.next_double());
        } else {
          session.del_edge("g", u, v);
        }
      }
    });
  }
  // Applier: incremental re-clusters racing everything above.
  threads.emplace_back([&session, &stop] {
    while (!stop.load()) {
      const auto submitted = session.submit_apply("g", true);
      if (submitted.accepted()) session.scheduler().wait(submitted.id);
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& t : threads) t.join();
  // The session is still coherent: a final full APPLY lands cleanly.
  const std::string resp = session.handle_line("APPLY g recluster=full sync");
  EXPECT_EQ(resp.substr(0, 2), "OK") << resp;
  EXPECT_NE(session.snapshot("g"), nullptr);
}

}  // namespace
