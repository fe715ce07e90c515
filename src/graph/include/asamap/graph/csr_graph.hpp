#pragma once

/// \file csr_graph.hpp
/// Immutable compressed-sparse-row graph.  Stores both out-adjacency and
/// in-adjacency because Infomap needs outgoing *and* incoming flow per vertex
/// (Algorithm 1 accumulates `outFlowtoModules` and `inFlowFromModules`).
/// A graph whose every in row equals its out row bitwise — anything built
/// from an undirected edge list — is stored *one-sided*: the in arrays are
/// not kept, and the in-side accessors serve the out side.

#include <span>
#include <vector>

#include "asamap/graph/edge_list.hpp"
#include "asamap/graph/types.hpp"

namespace asamap::graph {

/// Finished adjacency of both sides: `*_offsets` has n + 1 entries starting
/// at 0, each row of `*_arcs` is ascending by neighbor with parallel arcs
/// merged, and the in side holds exactly the reverse of the out side.
/// Empty `in_offsets` mean the in side *is* the out side: the caller vouches
/// that every in row would equal its out row bitwise.
struct CsrRows {
  std::vector<EdgeId> out_offsets;
  std::vector<Arc> out_arcs;
  std::vector<EdgeId> in_offsets;
  std::vector<Arc> in_arcs;

  /// Fills the in side as the counting transpose of the out side.  Sources
  /// are scanned in ascending order, so every in row comes out ascending.
  void derive_in_side();
};

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Freezes a coalesced edge list (call EdgeList::coalesce first — duplicate
  /// arcs are not merged here).  `n_hint` lets callers include trailing
  /// isolated vertices.  Rows the input already lists in ascending order
  /// are not re-sorted.
  static CsrGraph from_edges(const EdgeList& edges, VertexId n_hint = 0);

  /// Adopts finished rows — the one step every builder ends in.  Derives
  /// each vertex's out/in weight and the total by summing rows in order
  /// (the order a coalesced edge list lists the arcs in), and, in the same
  /// pass, the symmetry flag by comparing each vertex's out row with its in
  /// row.  When every row pair matches bitwise the in arrays are dropped
  /// and the graph is one-sided.  `changed_rows`, when given, lists every
  /// row whose two sides may differ: the caller vouches that all other rows
  /// match within is_symmetric()'s tolerance, so only the listed rows are
  /// compared and the graph keeps both sides.
  static CsrGraph from_rows(CsrRows rows,
                            const std::vector<VertexId>* changed_rows = nullptr);

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_arcs() const noexcept {
    return static_cast<EdgeId>(out_arcs_.size());
  }

  /// Outgoing arcs of u.
  [[nodiscard]] std::span<const Arc> out_neighbors(VertexId u) const noexcept {
    return {out_arcs_.data() + out_offsets_[u],
            out_arcs_.data() + out_offsets_[u + 1]};
  }

  /// Incoming arcs of u (Arc::dst is the *source* vertex of the arc).  On
  /// a one-sided graph this is the out row itself.
  [[nodiscard]] std::span<const Arc> in_neighbors(VertexId u) const noexcept {
    const Arc* arcs = one_sided_ ? out_arcs_.data() : in_arcs_.data();
    return {arcs + in_offset(u), arcs + in_offset(u + 1)};
  }

  /// Index of u's first out-arc in global arc order (matches the order of
  /// FlowNetwork::out_flow and the simulated arc-array addresses).
  [[nodiscard]] EdgeId out_offset(VertexId u) const noexcept {
    return out_offsets_[u];
  }
  [[nodiscard]] EdgeId in_offset(VertexId u) const noexcept {
    return one_sided_ ? out_offsets_[u] : in_offsets_[u];
  }

  [[nodiscard]] std::size_t out_degree(VertexId u) const noexcept {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  [[nodiscard]] std::size_t in_degree(VertexId u) const noexcept {
    return in_offset(u + 1) - in_offset(u);
  }

  /// Sum of weights of outgoing arcs of u.
  [[nodiscard]] Weight out_weight(VertexId u) const noexcept {
    return out_weight_[u];
  }
  [[nodiscard]] Weight in_weight(VertexId u) const noexcept {
    return one_sided_ ? out_weight_[u] : in_weight_[u];
  }

  /// Total weight over all arcs.
  [[nodiscard]] Weight total_arc_weight() const noexcept {
    return total_weight_;
  }

  /// True when for every arc u->v there is v->u with the same weight —
  /// detected at build time; lets Infomap use the cheaper undirected flow
  /// model.
  [[nodiscard]] bool is_symmetric() const noexcept { return symmetric_; }

  /// True when the in side is stored as the out side (every in row equals
  /// its out row bitwise).  Implies is_symmetric().
  [[nodiscard]] bool one_sided() const noexcept { return one_sided_; }

 private:
  VertexId n_ = 0;
  std::vector<EdgeId> out_offsets_{0};
  std::vector<Arc> out_arcs_;
  std::vector<EdgeId> in_offsets_;  ///< empty when one-sided
  std::vector<Arc> in_arcs_;        ///< empty when one-sided
  std::vector<Weight> out_weight_;
  std::vector<Weight> in_weight_;   ///< empty when one-sided
  Weight total_weight_ = 0.0;
  bool symmetric_ = true;
  bool one_sided_ = true;
};

}  // namespace asamap::graph
