// Unit tests for the graph library: edge-list staging, CSR construction,
// SNAP I/O round trips, and degree statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "asamap/graph/csr_graph.hpp"
#include "asamap/graph/edge_list.hpp"
#include "asamap/graph/io.hpp"
#include "asamap/graph/stats.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap::graph;

EdgeList triangle() {
  EdgeList e;
  e.add_undirected(0, 1);
  e.add_undirected(1, 2);
  e.add_undirected(0, 2);
  e.coalesce();
  return e;
}

TEST(EdgeList, AddTracksVertexCount) {
  EdgeList e;
  EXPECT_EQ(e.vertex_count(), 0u);
  e.add(3, 7);
  EXPECT_EQ(e.vertex_count(), 8u);
  e.ensure_vertex_count(20);
  EXPECT_EQ(e.vertex_count(), 20u);
}

TEST(EdgeList, CoalesceMergesParallelEdges) {
  EdgeList e;
  e.add(0, 1, 1.0);
  e.add(0, 1, 2.5);
  e.add(1, 0, 1.0);
  e.coalesce();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e.edges()[0].src, 0u);
  EXPECT_EQ(e.edges()[0].dst, 1u);
  EXPECT_DOUBLE_EQ(e.edges()[0].weight, 3.5);
  EXPECT_DOUBLE_EQ(e.edges()[1].weight, 1.0);
}

TEST(EdgeList, CoalesceDropsSelfLoopsByDefault) {
  EdgeList e;
  e.add(2, 2);
  e.add(0, 1);
  e.coalesce();
  EXPECT_EQ(e.size(), 1u);
}

TEST(EdgeList, CoalesceKeepsSelfLoopsOnRequest) {
  EdgeList e;
  e.add(2, 2, 4.0);
  e.add(2, 2, 1.0);
  e.coalesce(/*keep_self_loops=*/true);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_DOUBLE_EQ(e.edges()[0].weight, 5.0);
}

TEST(EdgeList, SymmetrizeAddsReverseArcs) {
  EdgeList e;
  e.add(0, 1, 2.0);
  e.add(1, 2, 3.0);
  e.symmetrize();
  e.coalesce();
  EXPECT_EQ(e.size(), 4u);
}

TEST(CsrGraph, TriangleBasics) {
  const CsrGraph g = CsrGraph::from_edges(triangle());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(0), 2u);
  EXPECT_DOUBLE_EQ(g.out_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(g.total_arc_weight(), 6.0);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(CsrGraph, NeighborsSortedById) {
  EdgeList e;
  e.add(0, 5);
  e.add(0, 2);
  e.add(0, 9);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const auto nb = g.out_neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0].dst, 2u);
  EXPECT_EQ(nb[1].dst, 5u);
  EXPECT_EQ(nb[2].dst, 9u);
}

TEST(CsrGraph, DirectedGraphIsNotSymmetric) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  EXPECT_FALSE(g.is_symmetric());
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(CsrGraph, InNeighborsHoldSources) {
  EdgeList e;
  e.add(0, 2, 1.5);
  e.add(1, 2, 2.5);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const auto in = g.in_neighbors(2);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].dst, 0u);
  EXPECT_DOUBLE_EQ(in[0].weight, 1.5);
  EXPECT_EQ(in[1].dst, 1u);
  EXPECT_DOUBLE_EQ(in[1].weight, 2.5);
}

TEST(CsrGraph, IsolatedVerticesViaHint) {
  const CsrGraph g = CsrGraph::from_edges(triangle(), /*n_hint=*/6);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.out_degree(5), 0u);
  EXPECT_TRUE(g.out_neighbors(5).empty());
}

TEST(CsrGraph, OffsetsMatchDegrees) {
  const CsrGraph g = CsrGraph::from_edges(triangle());
  EXPECT_EQ(g.out_offset(0), 0u);
  EXPECT_EQ(g.out_offset(1), 2u);
  EXPECT_EQ(g.out_offset(2), 4u);
}

TEST(CsrGraph, RowsGivenOutOfOrderComeOutAscending) {
  // Not coalesced, so nothing has sorted the edges: both sides' rows are
  // scattered out of order and must be sorted by the builder.
  EdgeList e;
  const std::vector<Edge> shuffled = {{2, 0, 0.5}, {0, 5, 1.5}, {1, 3, 2.0},
                                      {0, 2, 0.25}, {3, 1, 1.0}, {0, 9, 4.0},
                                      {5, 0, 0.75}, {9, 2, 3.0}, {1, 0, 2.5}};
  for (const Edge& x : shuffled) e.add(x.src, x.dst, x.weight);
  const CsrGraph g = CsrGraph::from_edges(e);
  EdgeList sorted = e;
  sorted.coalesce();
  const CsrGraph want = CsrGraph::from_edges(sorted);
  ASSERT_EQ(g.num_vertices(), want.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto out = g.out_neighbors(u);
    const auto in = g.in_neighbors(u);
    const auto by_dst = [](const Arc& a, const Arc& b) { return a.dst < b.dst; };
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), by_dst)) << u;
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end(), by_dst)) << u;
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           want.out_neighbors(u).begin(),
                           want.out_neighbors(u).end()))
        << u;
    EXPECT_TRUE(std::equal(in.begin(), in.end(), want.in_neighbors(u).begin(),
                           want.in_neighbors(u).end()))
        << u;
    // Dyadic weights: every summation order gives the same sums.
    EXPECT_EQ(g.out_weight(u), want.out_weight(u)) << u;
    EXPECT_EQ(g.in_weight(u), want.in_weight(u)) << u;
  }
  EXPECT_EQ(g.total_arc_weight(), 15.5);
  EXPECT_FALSE(g.is_symmetric());
}

TEST(CsrGraph, SortedInputBuildsTheSameGraphAsSortingEveryRow) {
  // Coalesced input skips the per-row sort.  The result must be bitwise
  // what the builder made when it sorted every row and summed weights in
  // edge-list order, recomputed here from the edges.
  asamap::support::Xoshiro256 rng(71);
  EdgeList e;
  for (int i = 0; i < 3000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(400));
    const auto v = static_cast<VertexId>(rng.next_below(400));
    e.add_undirected(u, v, 0.1 + rng.next_double());
  }
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e, 410);
  ASSERT_EQ(g.num_vertices(), 410u);
  ASSERT_EQ(g.num_arcs(), e.size());
  std::vector<std::vector<Arc>> out(410), in(410);
  std::vector<Weight> out_w(410, 0.0), in_w(410, 0.0);
  Weight total = 0.0;
  for (const Edge& x : e.edges()) {
    out[x.src].push_back(Arc{x.dst, x.weight});
    in[x.dst].push_back(Arc{x.src, x.weight});
    out_w[x.src] += x.weight;
    in_w[x.dst] += x.weight;
    total += x.weight;
  }
  const auto bits = [](Weight w) { return std::bit_cast<std::uint64_t>(w); };
  for (VertexId u = 0; u < 410; ++u) {
    const auto by_dst = [](const Arc& a, const Arc& b) { return a.dst < b.dst; };
    std::sort(out[u].begin(), out[u].end(), by_dst);
    std::sort(in[u].begin(), in[u].end(), by_dst);
    const auto go = g.out_neighbors(u);
    const auto gi = g.in_neighbors(u);
    ASSERT_EQ(go.size(), out[u].size()) << u;
    ASSERT_EQ(gi.size(), in[u].size()) << u;
    for (std::size_t i = 0; i < go.size(); ++i) {
      EXPECT_EQ(go[i].dst, out[u][i].dst) << u;
      EXPECT_EQ(bits(go[i].weight), bits(out[u][i].weight)) << u;
    }
    for (std::size_t i = 0; i < gi.size(); ++i) {
      EXPECT_EQ(gi[i].dst, in[u][i].dst) << u;
      EXPECT_EQ(bits(gi[i].weight), bits(in[u][i].weight)) << u;
    }
    EXPECT_EQ(bits(g.out_weight(u)), bits(out_w[u])) << u;
    EXPECT_EQ(bits(g.in_weight(u)), bits(in_w[u])) << u;
  }
  EXPECT_EQ(bits(g.total_arc_weight()), bits(total));
  EXPECT_TRUE(g.is_symmetric());
}

TEST(CsrGraph, FromRowsChecksOnlyTheNamedRows) {
  // Vertex 2 has an out-arc without its reverse: a full scan sees it, and
  // so does a check naming row 2; naming only rows that match does not.
  CsrRows rows;
  rows.out_offsets = {0, 1, 2, 3};
  rows.out_arcs = {{1, 1.0}, {0, 1.0}, {0, 2.0}};
  rows.in_offsets = {0, 2, 3, 3};
  rows.in_arcs = {{1, 1.0}, {2, 2.0}, {0, 1.0}};
  EXPECT_FALSE(CsrGraph::from_rows(rows).is_symmetric());
  const std::vector<VertexId> with_two = {1, 2};
  EXPECT_FALSE(CsrGraph::from_rows(rows, &with_two).is_symmetric());
  const std::vector<VertexId> without = {1};
  const CsrGraph trusted = CsrGraph::from_rows(rows, &without);
  EXPECT_TRUE(trusted.is_symmetric());
  EXPECT_EQ(trusted.out_weight(2), 2.0);
  EXPECT_EQ(trusted.in_weight(0), 3.0);
  EXPECT_EQ(trusted.total_arc_weight(), 4.0);
}

// --- one-sided storage ------------------------------------------------------

TEST(CsrGraph, BitwiseSymmetricGraphIsOneSided) {
  const CsrGraph g = CsrGraph::from_edges(triangle());
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_TRUE(g.one_sided());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(g.in_neighbors(u).data(), g.out_neighbors(u).data());
    EXPECT_EQ(g.in_neighbors(u).size(), g.out_neighbors(u).size());
    EXPECT_EQ(g.in_offset(u), g.out_offset(u));
    EXPECT_EQ(g.in_degree(u), g.out_degree(u));
    EXPECT_EQ(g.in_weight(u), g.out_weight(u));
  }
}

TEST(CsrGraph, SymmetricWithinToleranceKeepsBothSides) {
  // 0 <-> 1 whose reverse weight differs in the last bits: symmetric
  // within 1e-12, not bitwise.
  const double w = 1.0;
  const double w_close = std::nextafter(w, 2.0);
  CsrRows rows;
  rows.out_offsets = {0, 1, 2};
  rows.out_arcs = {{1, w}, {0, w_close}};
  rows.in_offsets = {0, 1, 2};
  rows.in_arcs = {{1, w_close}, {0, w}};
  const CsrGraph g = CsrGraph::from_rows(rows);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_FALSE(g.one_sided());
  EXPECT_NE(g.in_neighbors(0).data(), g.out_neighbors(0).data());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.in_neighbors(0)[0].weight),
            std::bit_cast<std::uint64_t>(w_close));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.in_weight(1)),
            std::bit_cast<std::uint64_t>(w));
}

TEST(CsrGraph, DirectedGraphKeepsBothSides) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  EXPECT_FALSE(g.one_sided());
  EXPECT_NE(g.in_neighbors(0).data(), g.out_neighbors(0).data());
  EXPECT_EQ(g.in_neighbors(0)[0].dst, 2u);
  EXPECT_EQ(g.out_neighbors(0)[0].dst, 1u);
}

TEST(CsrGraph, FromRowsAdoptsAnEmptyInSideAsTheOutSide) {
  CsrRows rows;
  rows.out_offsets = {0, 1, 2};
  rows.out_arcs = {{1, 0.5}, {0, 0.5}};
  const CsrGraph g = CsrGraph::from_rows(rows);
  EXPECT_TRUE(g.one_sided());
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.in_neighbors(1).data(), g.out_neighbors(1).data());
  EXPECT_EQ(g.in_weight(1), 0.5);
  EXPECT_EQ(g.total_arc_weight(), 1.0);
  // Named rows vouch only for tolerance, so the graph keeps both sides
  // even when every row matches bitwise.
  rows.in_offsets = rows.out_offsets;
  rows.in_arcs = rows.out_arcs;
  const std::vector<VertexId> named = {0};
  EXPECT_FALSE(CsrGraph::from_rows(rows, &named).one_sided());
  EXPECT_TRUE(CsrGraph::from_rows(rows).one_sided());
}

TEST(SnapIo, ParsesCommentsAndEdges) {
  std::istringstream in(
      "# comment line\n"
      "0\t1\n"
      "\n"
      "1 2\n"
      "% another comment\n"
      "2\t0\n");
  EdgeList e = read_snap_stream(in);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);  // undirected default doubles arcs
  EXPECT_TRUE(g.is_symmetric());
}

TEST(SnapIo, ParsesWeightedThirdColumn) {
  std::istringstream in("0 1 2.5\n");
  EdgeList e = read_snap_stream(in, {.undirected = false});
  ASSERT_EQ(e.size(), 1u);
  EXPECT_DOUBLE_EQ(e.edges()[0].weight, 2.5);
}

TEST(SnapIo, ThrowsOnGarbage) {
  std::istringstream in("0 banana\n");
  EXPECT_THROW(read_snap_stream(in), std::runtime_error);
}

TEST(SnapIo, ThrowMessageCarriesLineNumber) {
  std::istringstream in("# header\n0 1\n0 banana\n");
  try {
    read_snap_stream(in);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// Structured-parser negative cases: every malformed input names the line
// and the offending token instead of throwing from deep inside the reader.
SnapParseError parse_error(const std::string& text,
                           const SnapReadOptions& opts = {}) {
  std::istringstream in(text);
  const SnapParseResult result = parse_snap_stream(in, opts);
  EXPECT_FALSE(result.ok()) << "expected rejection of: " << text;
  return result.error.value_or(SnapParseError{});
}

TEST(SnapParse, AcceptsValidInputWithComments) {
  std::istringstream in("# c\n0 1\n\n1 2 0.5\n");
  const SnapParseResult result = parse_snap_stream(in);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.edges.size(), 4u);  // two undirected edges
  EXPECT_EQ(result.lines_read, 4u);
}

TEST(SnapParse, NonNumericSourceToken) {
  const auto e = parse_error("0 1\nfoo 2\n");
  EXPECT_EQ(e.line, 2u);
  EXPECT_NE(e.message.find("'foo'"), std::string::npos);
  EXPECT_NE(e.message.find("source vertex"), std::string::npos);
}

TEST(SnapParse, NonNumericDestinationToken) {
  const auto e = parse_error("0 banana\n");
  EXPECT_EQ(e.line, 1u);
  EXPECT_NE(e.message.find("'banana'"), std::string::npos);
}

TEST(SnapParse, OverflowingVertexId) {
  // 5e9 overflows the uint32 id space even before any configured cap.
  const auto e = parse_error("0 5000000000\n");
  EXPECT_EQ(e.line, 1u);
  EXPECT_NE(e.message.find("maximum vertex id"), std::string::npos);
}

TEST(SnapParse, SentinelVertexIdRejected) {
  // kInvalidVertex (uint32 max) parses numerically but is reserved.
  const auto e = parse_error("0 4294967295\n");
  EXPECT_EQ(e.line, 1u);
  EXPECT_NE(e.message.find("maximum vertex id"), std::string::npos);
}

TEST(SnapParse, ConfiguredVertexCapEnforced) {
  SnapReadOptions opts;
  opts.max_vertex_id = 10;
  const auto e = parse_error("0 11\n", opts);
  EXPECT_NE(e.message.find("maximum vertex id"), std::string::npos);
  std::istringstream ok_in("0 10\n");
  EXPECT_TRUE(parse_snap_stream(ok_in, opts).ok());
}

TEST(SnapParse, TruncatedLineMissingDestination) {
  const auto e = parse_error("0 1\n7\n");
  EXPECT_EQ(e.line, 2u);
  EXPECT_NE(e.message.find("truncated"), std::string::npos);
}

TEST(SnapParse, TrailingGarbageAfterWeight) {
  const auto e = parse_error("0 1 2.5 zebra\n");
  EXPECT_EQ(e.line, 1u);
  EXPECT_NE(e.message.find("trailing"), std::string::npos);
}

TEST(SnapParse, NegativeWeightRejected) {
  const auto e = parse_error("0 1 -2.0\n");
  EXPECT_EQ(e.line, 1u);
  EXPECT_NE(e.message.find("-2.0"), std::string::npos);
}

TEST(SnapParse, NonFiniteWeightRejected) {
  EXPECT_EQ(parse_error("0 1 nan\n").line, 1u);
  EXPECT_EQ(parse_error("0 1 inf\n").line, 1u);
}

TEST(SnapParse, StopsAtFirstBadLine) {
  std::istringstream in("0 1\nbad line here\n2 3\n");
  const SnapParseResult result = parse_snap_stream(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line, 2u);
  EXPECT_EQ(result.lines_read, 2u);  // did not consume past the failure
}

TEST(SnapIo, DropsSelfLoopsByDefault) {
  std::istringstream in("3 3\n0 1\n");
  EdgeList e = read_snap_stream(in);
  e.coalesce();
  EXPECT_EQ(e.size(), 2u);  // just the undirected 0-1 pair
}

TEST(SnapIo, RoundTripPreservesGraph) {
  const CsrGraph g = CsrGraph::from_edges(triangle());
  std::ostringstream out;
  write_snap_stream(out, g);
  std::istringstream in(out.str());
  EdgeList e = read_snap_stream(in, {.undirected = false});
  e.coalesce();
  const CsrGraph g2 = CsrGraph::from_edges(e);
  ASSERT_EQ(g2.num_vertices(), g.num_vertices());
  ASSERT_EQ(g2.num_arcs(), g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.out_neighbors(v);
    const auto b = g2.out_neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Stats, DegreeHistogramOfStar) {
  EdgeList e;
  for (VertexId leaf = 1; leaf <= 5; ++leaf) e.add_undirected(0, leaf);
  e.coalesce();
  const CsrGraph g = CsrGraph::from_edges(e);
  const DegreeHistogram h = degree_histogram(g);
  EXPECT_EQ(h.max_degree, 5u);
  EXPECT_EQ(h.at(1), 5u);  // leaves
  EXPECT_EQ(h.at(5), 1u);  // hub
  EXPECT_EQ(h.at(0), 0u);
  EXPECT_EQ(h.at(99), 0u);
  EXPECT_NEAR(h.mean_degree, 10.0 / 6.0, 1e-12);
}

TEST(Stats, CoverageCdfIsMonotonic) {
  EdgeList e;
  for (VertexId leaf = 1; leaf <= 5; ++leaf) e.add_undirected(0, leaf);
  e.coalesce();
  const DegreeHistogram h = degree_histogram(CsrGraph::from_edges(e));
  const auto cdf = coverage_cdf(h, {0, 1, 4, 5, 100});
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_NEAR(cdf[1], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(cdf[2], 5.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
  EXPECT_DOUBLE_EQ(cdf[4], 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(Stats, EmptyGraphHistogram) {
  const CsrGraph g;
  const DegreeHistogram h = degree_histogram(g);
  EXPECT_EQ(h.max_degree, 0u);
  EXPECT_DOUBLE_EQ(coverage_at_capacity(h, 10), 1.0);
}

}  // namespace
