#include "asamap/graph/csr_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "asamap/support/check.hpp"

namespace asamap::graph {

void CsrRows::derive_in_side() {
  const std::size_t n = out_offsets.size() - 1;
  in_offsets.assign(n + 1, 0);
  for (const Arc& a : out_arcs) ++in_offsets[a.dst + 1];
  for (std::size_t v = 0; v < n; ++v) in_offsets[v + 1] += in_offsets[v];
  in_arcs.resize(out_arcs.size());
  std::vector<EdgeId> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (std::size_t u = 0; u < n; ++u) {
    for (EdgeId e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
      const Arc& a = out_arcs[e];
      in_arcs[cursor[a.dst]++] = Arc{static_cast<VertexId>(u), a.weight};
    }
  }
}

CsrGraph CsrGraph::from_edges(const EdgeList& edges, VertexId n_hint) {
  const std::size_t n = std::max(edges.vertex_count(), n_hint);
  const auto& es = edges.edges();

  // Counting-sort construction of the out side; the in side is its
  // transpose.
  CsrRows rows;
  rows.out_offsets.assign(n + 1, 0);
  for (const Edge& e : es) {
    ASAMAP_CHECK(e.src < n && e.dst < n, "edge endpoint out of range");
    ++rows.out_offsets[e.src + 1];
  }
  for (std::size_t u = 0; u < n; ++u) {
    rows.out_offsets[u + 1] += rows.out_offsets[u];
  }
  rows.out_arcs.resize(es.size());
  std::vector<EdgeId> cursor(rows.out_offsets.begin(),
                             rows.out_offsets.end() - 1);
  for (const Edge& e : es) {
    rows.out_arcs[cursor[e.src]++] = Arc{e.dst, e.weight};
  }
  // Keep adjacency sorted by neighbor id for deterministic iteration and
  // binary-search lookups.  Input sorted by (src, dst) — everything
  // coalesce() returns — scatters into rows that are already ascending, so
  // only rows that arrive out of order pay for a sort.
  const auto cmp = [](const Arc& a, const Arc& b) { return a.dst < b.dst; };
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = rows.out_arcs.begin() +
                       static_cast<std::ptrdiff_t>(rows.out_offsets[u]);
    const auto last = rows.out_arcs.begin() +
                      static_cast<std::ptrdiff_t>(rows.out_offsets[u + 1]);
    if (!std::is_sorted(first, last, cmp)) std::sort(first, last, cmp);
  }
  rows.derive_in_side();
  return from_rows(std::move(rows));
}

CsrGraph CsrGraph::from_rows(CsrRows rows,
                             const std::vector<VertexId>* changed_rows) {
  ASAMAP_CHECK(!rows.out_offsets.empty(), "CSR rows need n + 1 offsets");
  CsrGraph g;
  g.n_ = static_cast<VertexId>(rows.out_offsets.size() - 1);
  g.one_sided_ = rows.in_offsets.empty();
  ASAMAP_CHECK(rows.out_arcs.size() == rows.out_offsets.back() &&
                   (g.one_sided_ ||
                    (rows.in_offsets.size() == rows.out_offsets.size() &&
                     rows.in_arcs.size() == rows.in_offsets.back())),
               "CSR rows are inconsistent");
  g.out_offsets_ = std::move(rows.out_offsets);
  g.out_arcs_ = std::move(rows.out_arcs);
  if (!g.one_sided_) {
    g.in_offsets_ = std::move(rows.in_offsets);
    g.in_arcs_ = std::move(rows.in_arcs);
  }

  // Whether u's in row matches its out row under `same`: within the
  // symmetry tolerance, or bit for bit.
  const auto rows_match = [&g](VertexId u, auto same) {
    return std::ranges::equal(g.out_neighbors(u), g.in_neighbors(u), same);
  };
  const auto close = [](const Arc& a, const Arc& b) {
    return a.dst == b.dst && std::abs(a.weight - b.weight) <= 1e-12;
  };
  const auto identical = [](const Arc& a, const Arc& b) {
    return a.dst == b.dst && std::bit_cast<std::uint64_t>(a.weight) ==
                                 std::bit_cast<std::uint64_t>(b.weight);
  };

  // One pass: row order is (src, dst) order on the out side and (dst, src)
  // order on the in side, so each weight sum runs in the order a sorted
  // edge list lists it; a full scan also compares each row pair until the
  // first mismatch.
  const std::size_t n = g.n_;
  const bool full_scan = !g.one_sided_ && changed_rows == nullptr;
  bool bitwise = full_scan;  // every row compared so far matches bitwise
  g.out_weight_.assign(n, 0.0);
  if (!g.one_sided_) g.in_weight_.assign(n, 0.0);
  for (VertexId u = 0; u < g.n_; ++u) {
    Weight out_w = 0.0;
    for (const Arc& a : g.out_neighbors(u)) {
      out_w += a.weight;
      g.total_weight_ += a.weight;
    }
    g.out_weight_[u] = out_w;
    if (g.one_sided_) continue;
    Weight in_w = 0.0;
    for (const Arc& a : g.in_neighbors(u)) in_w += a.weight;
    g.in_weight_[u] = in_w;
    if (full_scan && g.symmetric_) {
      bitwise = bitwise && rows_match(u, identical);
      g.symmetric_ = bitwise || rows_match(u, close);
    }
  }
  if (changed_rows != nullptr && !g.one_sided_) {
    g.symmetric_ = std::all_of(
        changed_rows->begin(), changed_rows->end(),
        [&](VertexId u) { return rows_match(u, close); });
  }
  if (bitwise) {
    g.in_offsets_ = std::vector<EdgeId>();
    g.in_arcs_ = std::vector<Arc>();
    g.in_weight_ = std::vector<Weight>();
    g.one_sided_ = true;
  }
  return g;
}

}  // namespace asamap::graph
