#pragma once

/// \file delta_log.hpp
/// asamap::dyn — streaming edge mutations over the immutable CSR.
///
/// The serving layer's CsrGraph is frozen by design (readers and clustering
/// jobs share it lock-free), so mutation is layered on top instead of in
/// place, the way LSM storage layers writes over immutable runs:
///
///   DeltaLog    append-only, thread-safe per-graph log of ADD_EDGE /
///               DEL_EDGE records.  Appends are O(1) under a mutex; nothing
///               about the base graph changes until a batch is *folded*.
///   DeltaView   one batch of records grouped into per-vertex patch runs
///               (sorted by neighbor, tombstones for deletions) and merged
///               with the base adjacency by a two-pointer iterator — the
///               merged-view adjacency both Infomap drivers consume, either
///               arc-by-arc (for_each_out/in, arcs()) or all at once via
///               materialize(), which folds base + patches into a fresh
///               CsrGraph for republication through GraphRegistry.
///
/// Record semantics, applied in arrival order per (u, v):
///   ADD u v w   adds w to the arc's weight (creating it if absent; repeated
///               adds accumulate, matching EdgeList::coalesce).
///   DEL u v     tombstones the base arc *and* discards adds logged so far;
///               a later ADD resurrects the arc with only the new weight.
/// On a symmetric base graph records are treated as undirected edges (both
/// directions patched) so the merged view stays symmetric; on a directed
/// base they are directed arcs.  Endpoints past the base vertex count grow
/// the merged graph (new vertices arrive with their first edge).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "asamap/graph/csr_graph.hpp"
#include "asamap/graph/types.hpp"

namespace asamap::dyn {

enum class DeltaOp : std::uint8_t { kAddEdge, kDelEdge };

[[nodiscard]] constexpr const char* to_string(DeltaOp op) noexcept {
  return op == DeltaOp::kAddEdge ? "add" : "del";
}

struct DeltaRecord {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  graph::Weight weight = 1.0;  ///< ignored for kDelEdge
  DeltaOp op = DeltaOp::kAddEdge;

  friend bool operator==(const DeltaRecord&, const DeltaRecord&) = default;
};

struct DeltaLogStats {
  std::size_t pending = 0;      ///< records not yet folded into a CSR
  std::uint64_t adds = 0;       ///< lifetime ADD records
  std::uint64_t dels = 0;       ///< lifetime DEL records
  std::uint64_t truncations = 0;  ///< fold/compaction batches consumed
};

/// Append-only mutation log for one named graph.  All methods are
/// thread-safe; appends race freely with snapshot() (readers see a prefix).
class DeltaLog {
 public:
  void add_edge(graph::VertexId u, graph::VertexId v,
                graph::Weight w = 1.0);
  void del_edge(graph::VertexId u, graph::VertexId v);

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] DeltaLogStats stats() const;

  /// Copy of the currently pending records, oldest first.  The log is NOT
  /// drained: the caller folds the batch and then truncate()s exactly the
  /// records it consumed, so a fold that aborts (cancellation, eviction
  /// race) never loses mutations.
  [[nodiscard]] std::vector<DeltaRecord> snapshot() const;

  /// Drops the oldest `n` records (the batch a completed fold consumed).
  void truncate(std::size_t n);

 private:
  mutable std::mutex mu_;
  std::vector<DeltaRecord> records_;
  DeltaLogStats stats_;
};

/// One folded batch: per-vertex patch runs merged on the fly with a base
/// CSR.  Build is O(batch · log batch); iteration is a linear two-pointer
/// merge of the (sorted) base adjacency with the (sorted) patch run, so the
/// merged view costs O(degree + patches(u)) per vertex — the base graph is
/// never copied.  Read-only and safe to share across threads once built.
class DeltaView {
 public:
  /// Patch state for one (vertex, neighbor) pair after replaying the batch.
  struct Patch {
    graph::VertexId dst = 0;
    graph::Weight add = 0.0;  ///< weight accumulated by ADDs after last DEL
    bool drop_base = false;   ///< a DEL tombstoned the base arc
  };

  /// `undirected` defaults to the base graph's symmetry: records patch both
  /// directions of a symmetric base so it stays symmetric.
  DeltaView(const graph::CsrGraph& base, std::span<const DeltaRecord> batch);
  DeltaView(const graph::CsrGraph& base, std::span<const DeltaRecord> batch,
            bool undirected);

  [[nodiscard]] const graph::CsrGraph& base() const noexcept { return *base_; }
  /// Merged vertex count: max of the base count and 1 + highest endpoint.
  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }

  /// Distinct endpoints named by the batch, ascending — the seed of the
  /// incremental recluster's active set.
  [[nodiscard]] const std::vector<graph::VertexId>& touched() const noexcept {
    return touched_;
  }

  /// Merged out-adjacency of u in ascending-dst order (tombstoned arcs
  /// skipped, added weights folded in).  `fn(Arc)` per surviving arc.
  template <typename F>
  void for_each_out(graph::VertexId u, F&& fn) const {
    merge(base_out(u), find_patches(out_patches_, u),
          std::forward<F>(fn));
  }
  /// Merged in-adjacency (Arc::dst is the arc's *source*, as in CsrGraph).
  template <typename F>
  void for_each_in(graph::VertexId u, F&& fn) const {
    merge(base_in(u), find_patches(in_patches_, u), std::forward<F>(fn));
  }

  /// Merged out-adjacency collected into a vector (test / debug
  /// convenience; hot paths use for_each_out).
  [[nodiscard]] std::vector<graph::Arc> out_arcs(graph::VertexId u) const;
  [[nodiscard]] std::vector<graph::Arc> in_arcs(graph::VertexId u) const;

  [[nodiscard]] std::size_t out_degree(graph::VertexId u) const;

  /// Folds base + batch into a fresh immutable CSR — the compaction step.
  /// Builds the row arrays directly: each maximal run of rows no record
  /// touched is copied from the base as one block, and only patched rows
  /// go through the merge.  Undirected records over a one-sided base
  /// splice only the out side and stay one-sided; otherwise both sides are
  /// spliced, and on a symmetric base only the touched rows are re-checked
  /// for symmetry.  Every row, weight and the symmetry flag are bitwise
  /// what from_edges would build from the merged arcs in (src, dst) order.
  [[nodiscard]] graph::CsrGraph materialize() const;

 private:
  using PatchMap = std::unordered_map<graph::VertexId, std::vector<Patch>>;

  [[nodiscard]] std::span<const graph::Arc> base_out(
      graph::VertexId u) const noexcept {
    return u < base_->num_vertices() ? base_->out_neighbors(u)
                                     : std::span<const graph::Arc>{};
  }
  [[nodiscard]] std::span<const graph::Arc> base_in(
      graph::VertexId u) const noexcept {
    return u < base_->num_vertices() ? base_->in_neighbors(u)
                                     : std::span<const graph::Arc>{};
  }
  [[nodiscard]] static std::span<const Patch> find_patches(
      const PatchMap& m, graph::VertexId u) noexcept {
    const auto it = m.find(u);
    return it == m.end() ? std::span<const Patch>{}
                         : std::span<const Patch>{it->second};
  }

  /// The two-pointer merge both adjacency sides share.  Both runs are
  /// ascending by dst; a patch matching a base arc rewrites its weight
  /// ((drop_base ? 0 : base) + add), a patch with no base arc inserts one
  /// when add > 0, and an arc whose merged weight is 0 is skipped (pure
  /// tombstone).
  template <typename F>
  static void merge(std::span<const graph::Arc> base,
                    std::span<const Patch> patches, F&& fn) {
    std::size_t bi = 0;
    std::size_t pi = 0;
    while (bi < base.size() || pi < patches.size()) {
      if (pi == patches.size() ||
          (bi < base.size() && base[bi].dst < patches[pi].dst)) {
        fn(base[bi]);
        ++bi;
        continue;
      }
      const Patch& p = patches[pi];
      graph::Weight w = p.add;
      if (bi < base.size() && base[bi].dst == p.dst) {
        if (!p.drop_base) w += base[bi].weight;
        ++bi;
      }
      if (w > 0.0) fn(graph::Arc{p.dst, w});
      ++pi;
    }
  }

  /// One side of materialize(): `out` picks the base's out or in rows.
  void splice_side(const PatchMap& patches, bool out,
                   std::vector<graph::EdgeId>& offsets,
                   std::vector<graph::Arc>& arcs) const;

  void apply_record(const DeltaRecord& rec);
  static void patch_one(PatchMap& m, graph::VertexId src, graph::VertexId dst,
                        const DeltaRecord& rec);

  const graph::CsrGraph* base_;
  graph::VertexId n_ = 0;
  std::size_t batch_size_ = 0;
  bool undirected_ = true;
  PatchMap out_patches_;
  PatchMap in_patches_;
  std::vector<graph::VertexId> touched_;
};

}  // namespace asamap::dyn
