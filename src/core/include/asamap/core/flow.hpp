#pragma once

/// \file flow.hpp
/// Random-walk flow on a network: the PageRank kernel of HyPC-Map and the
/// flow bookkeeping that the map equation consumes.
///
/// At level 0 the ergodic vertex visit rates p_v come from power iteration
/// with teleportation probability tau (Section II-C of the paper: "This
/// kernel computes the ergodic vertex visit probability (PageRank) for all
/// of the vertices taking teleportation into account").  Arc flows are
///   f(u->v) = (1 - tau) * p_u * w(u,v) / s_u
/// with s_u the total outgoing weight of u.  Teleportation flow is tracked
/// separately per vertex (tp_v = tau * p_v) because a module's teleport exit
/// depends on how many *original* vertices it contains.
///
/// At supernode levels (Convert2SuperNode) flows are aggregated, not
/// recomputed: a super-arc's flow is the sum of member-arc flows, a
/// supernode's visit rate is the sum of member visit rates.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asamap/graph/csr_graph.hpp"

namespace asamap::core {

using graph::CsrGraph;
using graph::VertexId;

/// A vertex-community assignment at one level.
using Partition = std::vector<VertexId>;

enum class FlowModel {
  kAuto,        ///< undirected when the graph is symmetric, else directed
  kUndirected,  ///< p_v = s_v / 2W, f_e = w_e / 2W, no teleportation terms
  kDirected,    ///< PageRank visit rates with recorded teleportation
};

struct FlowOptions {
  FlowModel model = FlowModel::kAuto;
  double tau = 0.15;          ///< teleportation probability (directed model)
  int max_iterations = 100;   ///< power-iteration cap
  double tolerance = 1e-12;   ///< L1 convergence threshold
};

/// A graph annotated with random-walk flow.  Level 0 borrows its graph: the
/// caller of build_flow keeps it alive for the network's lifetime.  Levels
/// above 0 own their contracted graph through `owned_`, so copies and moves
/// of a FlowNetwork never copy adjacency.
struct FlowNetwork {
  std::vector<double> node_flow;      ///< p_v, sums to 1
  std::vector<double> teleport_flow;  ///< tau * p_v aggregated over members
  std::vector<double> out_flow;       ///< per CSR out-arc flow, arc order
  /// Per CSR in-arc flow, arc order — left empty when it would equal
  /// out_flow element for element (a one-sided graph under a symmetric
  /// flow).  Read it through in_flow().
  std::vector<double> distinct_in_flow;
  std::vector<std::uint64_t> orig_count;  ///< original vertices per node
  std::uint64_t total_orig = 0;       ///< vertex count at level 0
  int pagerank_iterations = 0;        ///< iterations the power method used

  [[nodiscard]] const CsrGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] VertexId num_nodes() const noexcept {
    return graph_->num_vertices();
  }
  /// Per CSR in-arc flow, arc order.
  [[nodiscard]] std::span<const double> in_flow() const noexcept {
    return distinct_in_flow.empty() ? out_flow : distinct_in_flow;
  }
  /// True when every in row and its flows are the out row and its flows:
  /// the graph is one-sided and in_flow() aliases out_flow.  Per-vertex
  /// in-side sums then equal the out-side sums bit for bit, so the kernel
  /// and ModuleState derive them from one pass.
  [[nodiscard]] bool mirrored() const noexcept {
    return graph_->one_sided() && distinct_in_flow.empty();
  }

  /// Points the network at `g`, which must outlive it.
  void borrow(const CsrGraph& g) noexcept {
    owned_.reset();
    graph_ = &g;
  }
  void borrow(const CsrGraph&&) = delete;
  /// Makes the network the owner of `g`.
  void own(CsrGraph g) {
    owned_ = std::make_shared<const CsrGraph>(std::move(g));
    graph_ = owned_.get();
  }

 private:
  const CsrGraph* graph_ = nullptr;
  std::shared_ptr<const CsrGraph> owned_;  ///< set at contracted levels
};

/// Builds the level-0 flow network over `g`, which it borrows: runs the
/// PageRank kernel and derives arc flows.  Works for directed and
/// undirected graphs alike.  A temporary graph would dangle, so rvalues do
/// not bind.
FlowNetwork build_flow(const CsrGraph& g, const FlowOptions& options = {});
FlowNetwork build_flow(const CsrGraph&& g,
                       const FlowOptions& options = {}) = delete;

/// Convert2SuperNode: contracts a flow network by a partition (community id
/// per node, already compacted to 0..k-1).  Member vertices of one module
/// become one supernode; parallel super-arcs are merged with accumulated
/// flow ("If multiple vertices of one super node are connected to another
/// super node, a single super edge is created with accumulated edge
/// weights").  Intra-module flow disappears into the supernode.
///
/// Computed as the SpGEMM P^T * A * P, Gustavson style, on the kernel's
/// FlatAccumulator: vertices are counting-sorted by module, and each
/// module's row of neighbor-module flows is accumulated over its members
/// and sorted by neighbor; the in side is one counting transpose.  Threads
/// take contiguous module ranges of about equal member-arc work.  Every
/// super-arc flow, node flow and teleport flow is a left fold over members
/// in ascending id order (arcs in row order), so the result is bitwise the
/// same for every `threads`.
FlowNetwork contract_network(const FlowNetwork& fn, const Partition& modules,
                             std::size_t num_modules, int threads = 1);

}  // namespace asamap::core
