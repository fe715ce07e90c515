// cluster: repeated `CLUSTER ref sync` through ServeSession::handle_line
// on the reference Chung-Lu graph (n = 100000, 800000 target edges,
// gamma 2.5, min degree 2, generator seed 42: 1,581,466 arcs), with two
// clustering threads.  The benchmark seed permutes the vertex ids.  Nearly
// all the work is in core and hashdb.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "asamap/core/infomap.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr asamap::graph::VertexId kN = 100000;
constexpr std::uint64_t kEdges = 800000;
constexpr std::uint64_t kGraphSeed = 42;
constexpr int kClusterThreads = 2;
constexpr int kSetupRounds = 3;
constexpr int kMinOps = 5;
const std::string kGraph = "ref";
const std::string kClusterLine = "CLUSTER ref sync";

}  // namespace

void run_cluster(const Options& opts, Report& rep, Tracer& tr) {
  asamap::serve::SessionConfig cfg;
  cfg.cluster_threads = kClusterThreads;

  // --- set-up: generate + ingest, several times; keep the last ----------
  std::unique_ptr<asamap::serve::ServeSession> session;
  std::vector<double> setup_s;
  double gen_s = 0.0;
  for (int round = 0; round < kSetupRounds; ++round) {
    session.reset();
    const std::uint64_t t0 = now_ns();
    asamap::gen::ChungLuParams params;
    params.n = kN;
    params.target_edges = kEdges;
    params.gamma = 2.5;
    params.min_deg = 2;
    asamap::graph::CsrGraph g;
    {
      Span s(tr, "gen.chung_lu", "gen");
      const std::uint64_t g0 = now_ns();
      g = asamap::gen::chung_lu(params, kGraphSeed);
      gen_s += seconds_since(g0);
    }
    {
      Span s(tr, "graph.relabel", "graph");
      g = relabel(g, derive_seed(opts.seed, 1));
    }
    session = std::make_unique<asamap::serve::ServeSession>(cfg);
    {
      Span s(tr, "serve.put_graph", "serve");
      if (!session->registry().put_graph(kGraph, std::move(g)).ok()) {
        rep.oracle(false, "ingest of the reference graph");
        return;
      }
    }
    setup_s.push_back(seconds_since(t0));
  }
  const auto graph = session->registry().get(kGraph);
  rep.e2e("setup_s", median(setup_s), "s");
  rep.layer("gen.chung_lu_s", gen_s / kSetupRounds, "s");
  rep.layer("graph.arcs", static_cast<double>(graph->num_arcs()), "count");

  // --- warm-up op: fills caches, publishes the snapshot the oracles use --
  const std::string first = session->handle_line(kClusterLine);
  const auto snap0 = session->snapshot(kGraph);
  rep.op(first.rfind("OK job=", 0) == 0 && snap0 != nullptr);
  if (!snap0) {
    rep.oracle(false, "first CLUSTER published a snapshot: " + first);
    return;
  }
  const double served_codelength = snap0->codelength;

  // --- measured ops: untraced; a traced run then traces as many again ----
  const auto& reg = session->metrics();
  std::vector<double> op_s;
  std::vector<double> traced_op_s;
  std::uint64_t cluster_failed = 0;
  const auto do_op = [&](bool traced) {
    const CoreCounters before = CoreCounters::read(reg);
    const std::uint64_t span =
        traced ? tr.begin("serve.handle_line CLUSTER", "serve") : 0;
    const std::uint64_t t0 = now_ns();
    const std::string reply = session->handle_line(kClusterLine);
    const double dt = seconds_since(t0);
    tr.end(span);
    if (traced) (CoreCounters::read(reg) - before).attach(tr, span);
    (traced ? traced_op_s : op_s).push_back(dt);
    // Every recluster of the unchanged graph must land on the same
    // partition, to the last bit of its codelength.
    const auto snap = session->snapshot(kGraph);
    const bool ok = reply.rfind("OK job=", 0) == 0 &&
                    reply.find("state=done") != std::string::npos && snap &&
                    snap->codelength == served_codelength;
    rep.op(ok);
    if (!ok) ++cluster_failed;
  };
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::uint64_t m0 = now_ns();
  while (seconds_since(m0) < budget || static_cast<int>(op_s.size()) < kMinOps) {
    do_op(false);
  }
  const double measured_s = seconds_since(m0);
  const CoreCounters traced0 = CoreCounters::read(reg);
  while (opts.trace && (seconds_since(m0) < 2 * budget ||
                        static_cast<int>(traced_op_s.size()) < kMinOps)) {
    do_op(true);
  }
  const CoreCounters traced_runs = CoreCounters::read(reg) - traced0;

  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const double op_median = median(op_s);
  rep.e2e("op_ms", op_median * 1e3, "ms");
  rep.e2e("ops_per_s", static_cast<double>(op_s.size()) / measured_s, "1/s");
  rep.layer("op.iqr_frac", iqr_frac(op_s), "ratio");
  std::printf("cluster: %zu CLUSTER ops, median %.1f ms, iqr %.1f%%\n",
              op_s.size(), op_median * 1e3, 100.0 * iqr_frac(op_s));

  // --- traced-run layer figures ------------------------------------------
  if (opts.trace) {
    report_core_layers(rep, traced_runs, reg.gauge_value("asamap_run_levels"),
                       reg.gauge_value("asamap_hotset_vertex_coverage"));
    // CLUSTER sync minus a direct run of the same driver on the same graph:
    // queue wait, job dispatch and snapshot publish.
    std::vector<double> direct_s;
    for (int i = 0; i < 2; ++i) {
      Span s(tr, "core.run_infomap_parallel", "core");
      const std::uint64_t t0 = now_ns();
      (void)asamap::core::run_infomap_parallel(*graph, cfg.infomap,
                                               kClusterThreads);
      direct_s.push_back(seconds_since(t0));
    }
    rep.layer("serve.cluster_overhead_ms",
              (op_median - median(direct_s)) * 1e3, "ms");
    const double overhead = median(traced_op_s) / op_median - 1.0;
    rep.layer("obs.trace_overhead_frac", overhead, "ratio");
    rep.print_layer_table(tr, "serve.handle_line CLUSTER", 0, overhead);
  }

  // --- oracles (outside the timed region) --------------------------------
  asamap::core::InfomapOptions io;  // the session's clustering options
  const auto one_thread = asamap::core::run_infomap_parallel(*graph, io, 1);
  rep.oracle(one_thread.codelength == served_codelength,
             "CLUSTER codelength equals a 1-thread run_infomap_parallel");
  const auto flat = asamap::core::run_infomap_parallel(
      *graph, io, kClusterThreads, asamap::core::AccumulatorKind::kFlat);
  rep.oracle(flat.codelength == served_codelength &&
                 flat.communities == snap0->communities,
             "hot-set partition equals the flat-engine partition");
  rep.oracle(cluster_failed == 0, "every CLUSTER reply ok, same codelength");
  rep.e2e("codelength_ratio",
          served_codelength / one_thread.one_level_codelength, "ratio");
  std::printf("cluster: codelength %.9f, one-level %.9f\n", served_codelength,
              one_thread.one_level_codelength);
}

}  // namespace perfbench
