// Per-layer metric helpers shared by the workloads.

#include "workloads.hpp"

namespace perfbench {

void report_layer_defaults(Report& rep) {
  struct Def {
    const char* name;
    const char* unit;
  };
  static const Def kDefaults[] = {
      {"core.pagerank_s", "s"},          {"core.fbc_s", "s"},
      {"core.convert_s", "s"},           {"core.update_members_s", "s"},
      {"core.levels", "count"},          {"core.sweeps", "count"},
      {"core.moves", "count"},           {"hashdb.accumulates", "count"},
      {"hashdb.hit_rate", "ratio"},      {"hashdb.spills", "count"},
      {"hashdb.vertex_coverage", "ratio"},
      {"serve.cluster_overhead_ms", "ms"}, {"serve.read_ns", "ns"},
      {"net.overhead_ns", "ns"},         {"net.batch_fill", "count"},
      {"net.rejected", "count"},         {"dyn.fold_ms", "ms"},
      {"dyn.warm_start_ms", "ms"},       {"dyn.active_vertices", "count"},
      {"dyn.published", "count"},        {"dyn.applies", "count"},
      {"dyn.mutation_ack_us", "us"},     {"dyn.apply_p90_ms", "ms"},
      {"dist.router_rps", "1/s"},        {"dist.shard_rtt_us", "us"},       {"dist.router_self_us", "us"},
      {"dist.shard_calls_per_read", "count"},
      {"dist.scatter_p99_us", "us"},     {"dist.retries", "count"},
      {"dist.degraded", "count"},        {"obs.trace_overhead_frac", "ratio"},
      {"obs.trace_dropped_frac", "ratio"}, {"load.late_us", "us"},
      {"load.read_p50_us", "us"},        {"load.read_p99_us", "us"},
      {"gen.chung_lu_s", "s"},           {"graph.arcs", "count"},
      {"host.steal_frac", "ratio"},      {"op.iqr_frac", "ratio"},
  };
  for (const Def& d : kDefaults) rep.layer(d.name, 0.0, d.unit);
}

void report_core_layers(Report& rep, const CoreCounters& d, double levels,
                        double vertex_coverage) {
  const double runs = d.runs > 0 ? d.runs : 1.0;
  rep.layer("core.pagerank_s", d.kernel_s[0] / runs, "s");
  rep.layer("core.fbc_s", d.kernel_s[1] / runs, "s");
  rep.layer("core.convert_s", d.kernel_s[2] / runs, "s");
  rep.layer("core.update_members_s", d.kernel_s[3] / runs, "s");
  rep.layer("core.levels", levels, "count");
  rep.layer("core.sweeps", d.sweeps / runs, "count");
  rep.layer("core.moves", d.moves / runs, "count");
  rep.layer("hashdb.accumulates", d.accumulates / runs, "count");
  rep.layer("hashdb.hit_rate", d.accumulates > 0 ? d.hits / d.accumulates : 0,
            "ratio");
  rep.layer("hashdb.spills", d.spills / runs, "count");
  rep.layer("hashdb.vertex_coverage", vertex_coverage, "ratio");
}

void report_open_loop(Report& rep, const std::vector<double>& latency_us,
                      const std::vector<double>& late_us) {
  rep.layer("load.read_p50_us", quantile(latency_us, 0.50), "us");
  rep.layer("load.read_p99_us", quantile(latency_us, 0.99), "us");
  rep.layer("load.late_us", quantile(late_us, 0.99), "us");
}

}  // namespace perfbench
