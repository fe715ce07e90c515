#include "asamap/core/flow.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "asamap/hashdb/flat_accumulator.hpp"
#include "asamap/support/check.hpp"
#include "asamap/support/parallel.hpp"

namespace asamap::core {

namespace {

/// Undirected flow model: the stationary distribution of an undirected
/// random walk is exactly degree-proportional, so no power iteration is
/// needed and enter == exit per module — the classic two-level map
/// equation.  This is the model Infomap itself uses for undirected input.
FlowNetwork build_flow_undirected(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  FlowNetwork fn;
  fn.borrow(g);
  fn.total_orig = n;
  fn.orig_count.assign(n, 1);
  fn.teleport_flow.assign(n, 0.0);
  fn.pagerank_iterations = 0;

  const double total = g.total_arc_weight();
  ASAMAP_CHECK(total > 0.0, "graph has no edges");
  fn.node_flow.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    fn.node_flow[v] = g.out_weight(v) / total;
  }
  const auto arc_flows = [&g, n, total](bool out, std::vector<double>& flow) {
    flow.resize(g.num_arcs());
    std::size_t e = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (const graph::Arc& arc :
           out ? g.out_neighbors(u) : g.in_neighbors(u)) {
        flow[e++] = arc.weight / total;
      }
    }
  };
  arc_flows(true, fn.out_flow);
  // A one-sided graph's in rows are its out rows: in_flow() aliases.
  if (!g.one_sided()) arc_flows(false, fn.distinct_in_flow);
  return fn;
}

}  // namespace

FlowNetwork build_flow(const CsrGraph& g, const FlowOptions& options) {
  const VertexId n = g.num_vertices();
  ASAMAP_CHECK(n > 0, "flow on an empty graph");

  const FlowModel model =
      options.model != FlowModel::kAuto
          ? options.model
          : (g.is_symmetric() ? FlowModel::kUndirected : FlowModel::kDirected);
  if (model == FlowModel::kUndirected) {
    ASAMAP_CHECK(g.is_symmetric(),
                 "undirected flow model requires a symmetric graph");
    return build_flow_undirected(g);
  }

  const double tau = options.tau;

  FlowNetwork fn;
  fn.borrow(g);
  fn.total_orig = n;
  fn.orig_count.assign(n, 1);

  // Power iteration: p' = tau/n + (1-tau) * (W^T D^-1 p + dangling/n).
  std::vector<double> p(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (VertexId u = 0; u < n; ++u) {
      const double s = g.out_weight(u);
      if (s <= 0.0) {
        dangling += p[u];
        continue;
      }
      const double scale = p[u] / s;
      for (const graph::Arc& arc : g.out_neighbors(u)) {
        next[arc.dst] += scale * arc.weight;
      }
    }
    const double base =
        tau / static_cast<double>(n) +
        (1.0 - tau) * dangling / static_cast<double>(n);
    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const double nv = base + (1.0 - tau) * next[v];
      delta += std::abs(nv - p[v]);
      next[v] = nv;
    }
    p.swap(next);
    if (delta < options.tolerance) {
      ++iter;
      break;
    }
  }
  fn.pagerank_iterations = iter;

  fn.node_flow = std::move(p);
  fn.teleport_flow.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    fn.teleport_flow[v] = tau * fn.node_flow[v];
  }

  // Arc flows.  Dangling vertices have no arcs, so their flow is pure
  // teleportation — consistent with the power iteration above.  Flow runs
  // from source to target, so the in side differs from the out side even
  // on a one-sided graph.
  fn.out_flow.resize(g.num_arcs());
  fn.distinct_in_flow.resize(g.num_arcs());
  {
    std::size_t e = 0;
    for (VertexId u = 0; u < n; ++u) {
      const double s = g.out_weight(u);
      const double scale = s > 0.0 ? (1.0 - tau) * fn.node_flow[u] / s : 0.0;
      for (const graph::Arc& arc : g.out_neighbors(u)) {
        fn.out_flow[e++] = scale * arc.weight;
      }
    }
  }
  {
    std::size_t e = 0;
    for (VertexId v = 0; v < n; ++v) {
      for (const graph::Arc& arc : g.in_neighbors(v)) {
        const VertexId u = arc.dst;  // source of the incoming arc
        const double s = g.out_weight(u);
        const double scale = s > 0.0 ? (1.0 - tau) * fn.node_flow[u] / s : 0.0;
        fn.distinct_in_flow[e++] = scale * arc.weight;
      }
    }
  }
  return fn;
}

FlowNetwork contract_network(const FlowNetwork& fn, const Partition& modules,
                             std::size_t num_modules, int threads) {
  const VertexId n = fn.num_nodes();
  const std::size_t k = num_modules;
  ASAMAP_CHECK(modules.size() == n, "partition size mismatch");
  threads = std::max(1, threads);

  // Counting sort of vertices by module (P^T's rows).  The fill runs in
  // ascending vertex id, so each module lists its members in id order.
  // `work` prefix-sums members + member arcs per module for the row split.
  std::vector<std::size_t> member_start(k + 1, 0);
  std::vector<std::uint64_t> work(k + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId m = modules[u];
    ASAMAP_CHECK(m < k, "module id out of range");
    ++member_start[m + 1];
    work[m + 1] += 1 + fn.graph().out_degree(u);
  }
  for (std::size_t m = 0; m < k; ++m) {
    member_start[m + 1] += member_start[m];
    work[m + 1] += work[m];
  }
  std::vector<VertexId> members(n);
  {
    std::vector<std::size_t> cursor(member_start.begin(),
                                    member_start.end() - 1);
    for (VertexId u = 0; u < n; ++u) members[cursor[modules[u]]++] = u;
  }

  FlowNetwork out;
  out.total_orig = fn.total_orig;
  out.node_flow.assign(k, 0.0);
  out.teleport_flow.assign(k, 0.0);
  out.orig_count.assign(k, 0);
  graph::CsrRows rows;
  rows.out_offsets.assign(k + 1, 0);
  std::vector<std::vector<graph::Arc>> row_arcs(threads);

  // Gustavson rows of P^T A P: thread t owns a contiguous module range of
  // about equal work and accumulates each module's cross-module arc flows
  // over its members in id order, arcs in row order, so every sum is the
  // same left fold at any thread count.  Super-arcs carry *flow*, not raw
  // weight, so higher levels see the aggregated random-walk rates directly.
  support::tsan_release(&row_arcs);  // inputs: main -> team
#pragma omp parallel num_threads(threads)
  {
    support::tsan_acquire(&row_arcs);
    const int t = omp_get_thread_num();
    const auto range_start = [&](int i) {
      const std::uint64_t target = work[k] * static_cast<unsigned>(i) /
                                   static_cast<unsigned>(threads);
      return static_cast<std::size_t>(
          std::lower_bound(work.begin(), work.end() - 1, target) -
          work.begin());
    };
    const std::size_t first = range_start(t);
    const std::size_t last = t + 1 == threads ? k : range_start(t + 1);
    hashdb::FlatAccumulator acc;
    std::vector<graph::Arc>& arcs = row_arcs[t];
    for (std::size_t m = first; m < last; ++m) {
      acc.begin();
      double node_flow = 0.0;
      double teleport_flow = 0.0;
      std::uint64_t orig = 0;
      for (std::size_t i = member_start[m]; i < member_start[m + 1]; ++i) {
        const VertexId u = members[i];
        node_flow += fn.node_flow[u];
        teleport_flow += fn.teleport_flow[u];
        orig += fn.orig_count[u];
        const std::size_t base =
            static_cast<std::size_t>(fn.graph().out_offset(u));
        const auto nbrs = fn.graph().out_neighbors(u);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const VertexId mv = modules[nbrs[j].dst];
          if (mv != m) acc.accumulate(mv, fn.out_flow[base + j]);
        }
      }
      out.node_flow[m] = node_flow;
      out.teleport_flow[m] = teleport_flow;
      out.orig_count[m] = orig;
      const auto row = acc.finalize();
      const std::size_t row_first = arcs.size();
      for (const hashdb::KeyValue& kv : row) {
        arcs.push_back(graph::Arc{kv.key, kv.value});
      }
      std::sort(arcs.begin() + static_cast<std::ptrdiff_t>(row_first),
                arcs.end(), [](const graph::Arc& a, const graph::Arc& b) {
                  return a.dst < b.dst;
                });
      rows.out_offsets[m + 1] = row.size();
    }
    support::omp_barrier_sync(&row_arcs);  // rows: team -> main
  }

  // The per-thread row runs concatenate in module order.
  for (std::size_t m = 0; m < k; ++m) {
    rows.out_offsets[m + 1] += rows.out_offsets[m];
  }
  rows.out_arcs.reserve(rows.out_offsets[k]);
  for (const auto& arcs : row_arcs) {
    rows.out_arcs.insert(rows.out_arcs.end(), arcs.begin(), arcs.end());
  }

  rows.derive_in_side();
  out.own(CsrGraph::from_rows(std::move(rows)));
  const CsrGraph& g = out.graph();

  // At supernode levels, arc flow == arc weight (already aggregated flow).
  // A one-sided contraction's in-flow aliases its out-flow.
  out.out_flow.reserve(g.num_arcs());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const graph::Arc& a : g.out_neighbors(u)) {
      out.out_flow.push_back(a.weight);
    }
  }
  if (!g.one_sided()) {
    out.distinct_in_flow.reserve(g.num_arcs());
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const graph::Arc& a : g.in_neighbors(u)) {
        out.distinct_in_flow.push_back(a.weight);
      }
    }
  }
  return out;
}

}  // namespace asamap::core
