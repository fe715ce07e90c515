#include "asamap/dyn/delta_log.hpp"

#include <algorithm>
#include <utility>

namespace asamap::dyn {

void DeltaLog::add_edge(graph::VertexId u, graph::VertexId v,
                        graph::Weight w) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(DeltaRecord{u, v, w, DeltaOp::kAddEdge});
  ++stats_.adds;
  stats_.pending = records_.size();
}

void DeltaLog::del_edge(graph::VertexId u, graph::VertexId v) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(DeltaRecord{u, v, 0.0, DeltaOp::kDelEdge});
  ++stats_.dels;
  stats_.pending = records_.size();
}

std::size_t DeltaLog::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

DeltaLogStats DeltaLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<DeltaRecord> DeltaLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void DeltaLog::truncate(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n == 0) return;
  n = std::min(n, records_.size());
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(n));
  ++stats_.truncations;
  stats_.pending = records_.size();
}

DeltaView::DeltaView(const graph::CsrGraph& base,
                     std::span<const DeltaRecord> batch)
    : DeltaView(base, batch, base.is_symmetric()) {}

DeltaView::DeltaView(const graph::CsrGraph& base,
                     std::span<const DeltaRecord> batch, bool undirected)
    : base_(&base),
      n_(base.num_vertices()),
      batch_size_(batch.size()),
      undirected_(undirected) {
  for (const DeltaRecord& rec : batch) apply_record(rec);
  // Patch runs accumulate in arrival order; the merge needs ascending dst.
  const auto sort_runs = [](PatchMap& m) {
    for (auto& [src, run] : m) {
      std::sort(run.begin(), run.end(),
                [](const Patch& a, const Patch& b) { return a.dst < b.dst; });
    }
  };
  sort_runs(out_patches_);
  sort_runs(in_patches_);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
}

void DeltaView::apply_record(const DeltaRecord& rec) {
  if (rec.u == rec.v) return;  // self-loops are rejected upstream
  // Every record implies the directed arc u->v; on an undirected base it
  // also implies v->u so symmetry survives the fold.
  patch_one(out_patches_, rec.u, rec.v, rec);
  patch_one(in_patches_, rec.v, rec.u, rec);
  if (undirected_) {
    patch_one(out_patches_, rec.v, rec.u, rec);
    patch_one(in_patches_, rec.u, rec.v, rec);
  }
  n_ = std::max({n_, rec.u + 1, rec.v + 1});
  touched_.push_back(rec.u);
  touched_.push_back(rec.v);
}

void DeltaView::patch_one(PatchMap& m, graph::VertexId src,
                          graph::VertexId dst, const DeltaRecord& rec) {
  std::vector<Patch>& run = m[src];
  auto it = std::find_if(run.begin(), run.end(),
                         [dst](const Patch& p) { return p.dst == dst; });
  if (it == run.end()) {
    it = run.insert(run.end(), Patch{dst, 0.0, false});
  }
  if (rec.op == DeltaOp::kAddEdge) {
    it->add += rec.weight;
  } else {
    // DEL tombstones the base arc and voids adds logged before it; an ADD
    // after the DEL resurrects the arc with only the new weight.
    it->drop_base = true;
    it->add = 0.0;
  }
}

std::vector<graph::Arc> DeltaView::out_arcs(graph::VertexId u) const {
  std::vector<graph::Arc> out;
  for_each_out(u, [&out](const graph::Arc& a) { out.push_back(a); });
  return out;
}

std::vector<graph::Arc> DeltaView::in_arcs(graph::VertexId u) const {
  std::vector<graph::Arc> out;
  for_each_in(u, [&out](const graph::Arc& a) { out.push_back(a); });
  return out;
}

std::size_t DeltaView::out_degree(graph::VertexId u) const {
  std::size_t d = 0;
  for_each_out(u, [&d](const graph::Arc&) { ++d; });
  return d;
}

void DeltaView::splice_side(const PatchMap& patches, bool out,
                            std::vector<graph::EdgeId>& offsets,
                            std::vector<graph::Arc>& arcs) const {
  const graph::CsrGraph& base = *base_;
  const graph::VertexId base_n = base.num_vertices();
  const auto base_offset = [&base, out](graph::VertexId u) {
    return out ? base.out_offset(u) : base.in_offset(u);
  };
  std::vector<std::pair<graph::VertexId, std::span<const Patch>>> rows;
  rows.reserve(patches.size());
  std::size_t patch_count = 0;
  for (const auto& [u, run] : patches) {
    rows.emplace_back(u, run);
    patch_count += run.size();
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Each patch adds at most one arc, so one reservation holds the result
  // and every row below is appended, never scattered.
  offsets.assign(std::size_t{n_} + 1, 0);
  arcs.reserve(base.num_arcs() + patch_count);
  graph::VertexId next = 0;  // first row not yet emitted
  // Emits the untouched rows [next, end): base rows as one block, rows past
  // the base empty.
  const auto copy_untouched = [&](graph::VertexId end) {
    const graph::VertexId stop = std::min(end, base_n);
    if (next < stop) {
      const graph::EdgeId first = base_offset(next);
      const graph::Arc* block =
          (out ? base.out_neighbors(next) : base.in_neighbors(next)).data();
      arcs.insert(arcs.end(), block, block + (base_offset(stop) - first));
      const graph::EdgeId at = offsets[next];
      for (graph::VertexId u = next; u < stop; ++u) {
        offsets[u + 1] = at + (base_offset(u + 1) - first);
      }
      next = stop;
    }
    for (; next < end; ++next) offsets[next + 1] = offsets[next];
  };
  for (const auto& [u, run] : rows) {
    copy_untouched(u);
    merge(out ? base_out(u) : base_in(u), run,
          [&arcs](const graph::Arc& a) { arcs.push_back(a); });
    offsets[u + 1] = arcs.size();
    next = u + 1;
  }
  copy_untouched(n_);
}

graph::CsrGraph DeltaView::materialize() const {
  graph::CsrRows rows;
  splice_side(out_patches_, true, rows.out_offsets, rows.out_arcs);
  // Undirected records patch each in row with the same runs as its out row,
  // so over a one-sided base every merged in row is its out row bitwise:
  // the result is one-sided too.
  if (undirected_ && base_->one_sided()) {
    return graph::CsrGraph::from_rows(std::move(rows));
  }
  splice_side(in_patches_, false, rows.in_offsets, rows.in_arcs);
  // Every patched row, on either side, is an endpoint of some record, so
  // on a symmetric base only touched_ can have lost its symmetry.
  return graph::CsrGraph::from_rows(
      std::move(rows), base_->is_symmetric() ? &touched_ : nullptr);
}

}  // namespace asamap::dyn
