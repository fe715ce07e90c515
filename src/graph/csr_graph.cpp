#include "asamap/graph/csr_graph.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "asamap/support/check.hpp"

namespace asamap::graph {

CsrGraph CsrGraph::from_edges(const EdgeList& edges, VertexId n_hint) {
  const std::size_t n = std::max(edges.vertex_count(), n_hint);
  const auto& es = edges.edges();

  // Counting-sort style CSR construction for both directions.
  std::vector<EdgeId> out_count(n, 0);
  std::vector<EdgeId> in_count(n, 0);
  for (const Edge& e : es) {
    ASAMAP_CHECK(e.src < n && e.dst < n, "edge endpoint out of range");
    ++out_count[e.src];
    ++in_count[e.dst];
  }

  CsrRows rows;
  rows.out_offsets.assign(n + 1, 0);
  rows.in_offsets.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    rows.out_offsets[u + 1] = rows.out_offsets[u] + out_count[u];
    rows.in_offsets[u + 1] = rows.in_offsets[u] + in_count[u];
  }

  rows.out_arcs.resize(es.size());
  rows.in_arcs.resize(es.size());
  std::vector<EdgeId> out_cursor(rows.out_offsets.begin(),
                                 rows.out_offsets.end() - 1);
  std::vector<EdgeId> in_cursor(rows.in_offsets.begin(),
                                rows.in_offsets.end() - 1);
  for (const Edge& e : es) {
    rows.out_arcs[out_cursor[e.src]++] = Arc{e.dst, e.weight};
    rows.in_arcs[in_cursor[e.dst]++] = Arc{e.src, e.weight};
  }
  // Keep adjacency sorted by neighbor id for deterministic iteration and
  // binary-search lookups.  Input sorted by (src, dst) — everything
  // coalesce() returns — scatters into rows that are already ascending on
  // both sides, so only rows that arrive out of order pay for a sort.
  const auto sort_rows = [n](const std::vector<EdgeId>& offsets,
                             std::vector<Arc>& arcs) {
    const auto cmp = [](const Arc& a, const Arc& b) { return a.dst < b.dst; };
    for (std::size_t u = 0; u < n; ++u) {
      const auto first =
          arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
      const auto last =
          arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
      if (!std::is_sorted(first, last, cmp)) std::sort(first, last, cmp);
    }
  };
  sort_rows(rows.out_offsets, rows.out_arcs);
  sort_rows(rows.in_offsets, rows.in_arcs);
  return from_rows(std::move(rows));
}

CsrGraph CsrGraph::from_rows(CsrRows rows,
                             const std::vector<VertexId>* changed_rows) {
  ASAMAP_CHECK(!rows.out_offsets.empty(), "CSR rows need n + 1 offsets");
  CsrGraph g;
  g.n_ = static_cast<VertexId>(rows.out_offsets.size() - 1);
  g.out_offsets_ = std::move(rows.out_offsets);
  g.out_arcs_ = std::move(rows.out_arcs);
  g.in_offsets_ = std::move(rows.in_offsets);
  g.in_arcs_ = std::move(rows.in_arcs);
  ASAMAP_CHECK(g.in_offsets_.size() == g.out_offsets_.size() &&
                   g.out_arcs_.size() == g.out_offsets_.back() &&
                   g.in_arcs_.size() == g.in_offsets_.back(),
               "CSR rows are inconsistent");

  // Row order is (src, dst) order on the out side and (dst, src) order on
  // the in side, so each sum runs in the order a sorted edge list lists it.
  const std::size_t n = g.n_;
  g.out_weight_.assign(n, 0.0);
  g.in_weight_.assign(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    Weight out_w = 0.0;
    for (const Arc& a : g.out_neighbors(static_cast<VertexId>(u))) {
      out_w += a.weight;
      g.total_weight_ += a.weight;
    }
    Weight in_w = 0.0;
    for (const Arc& a : g.in_neighbors(static_cast<VertexId>(u))) {
      in_w += a.weight;
    }
    g.out_weight_[u] = out_w;
    g.in_weight_[u] = in_w;
  }

  // Symmetry: for every vertex the sorted out and in adjacency must match
  // arc-for-arc.
  const auto row_symmetric = [&g](VertexId u) {
    const auto out = g.out_neighbors(u);
    const auto in = g.in_neighbors(u);
    if (out.size() != in.size()) return false;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].dst != in[i].dst ||
          std::abs(out[i].weight - in[i].weight) > 1e-12) {
        return false;
      }
    }
    return true;
  };
  if (changed_rows != nullptr) {
    g.symmetric_ = std::all_of(changed_rows->begin(), changed_rows->end(),
                               row_symmetric);
  } else {
    g.symmetric_ = true;
    for (VertexId u = 0; u < g.n_ && g.symmetric_; ++u) {
      g.symmetric_ = row_symmetric(u);
    }
  }
  return g;
}

}  // namespace asamap::graph
