#pragma once

// The three workloads and the helpers they share.  Each run_* sets its
// workload up, measures it for the run's seconds, checks its outputs
// against an oracle outside the timed region, and fills the report.

#include <cstdint>

#include "asamap/obs/metrics.hpp"
#include "asamap/obs/trace.hpp"
#include "asamap/serve/partition_store.hpp"
#include "common.hpp"

namespace perfbench {

void run_cluster(const Options& opts, Report& rep, Tracer& tr);
void run_serve_reads(const Options& opts, Report& rep, Tracer& tr);
void run_serve_updates(const Options& opts, Report& rep, Tracer& tr);

/// The dist layer's per-layer figures (serve_reads traced run): a two-shard
/// tier behind a router ingests `gen_line`, and the read mix is sent to the
/// router; answers are checked against `oracle`, the single-process
/// snapshot of the same graph.
void measure_router_layers(Report& rep, Tracer& tr, const std::string& gen_line,
                           const std::string& graph,
                           const std::vector<std::string>& mix,
                           const asamap::serve::PartitionSnapshot& oracle);

/// Cumulative core/hashdb counters a session's metric registry exports
/// (kernel-phase seconds, sweep/move counts, hot-set accumulator counts).
/// The difference of two readings is what the ops between them did.
struct CoreCounters {
  double kernel_s[asamap::obs::kNumKernelPhases] = {};
  double sweeps = 0, moves = 0, runs = 0;
  double accumulates = 0, hits = 0, spills = 0;

  static CoreCounters read(const asamap::obs::MetricRegistry& reg) {
    CoreCounters c;
    for (int i = 0; i < asamap::obs::kNumKernelPhases; ++i) {
      c.kernel_s[i] = reg.histogram_total_seconds(
          asamap::obs::kKernelSpanMetric,
          asamap::obs::kernel_label(asamap::obs::kKernelPhaseNames[i]));
    }
    c.sweeps = static_cast<double>(reg.counter_total("asamap_run_sweeps_total"));
    c.moves = static_cast<double>(reg.counter_total("asamap_run_moves_total"));
    c.runs = static_cast<double>(reg.counter_total("asamap_runs_total"));
    c.accumulates = static_cast<double>(
        reg.counter_total("asamap_hotset_accumulates_total"));
    c.hits = static_cast<double>(reg.counter_total("asamap_hotset_hits_total"));
    c.spills =
        static_cast<double>(reg.counter_total("asamap_hotset_spills_total"));
    return c;
  }

  CoreCounters operator-(const CoreCounters& o) const {
    return combine(o, -1.0);
  }
  CoreCounters operator+(const CoreCounters& o) const {
    return combine(o, 1.0);
  }
  [[nodiscard]] CoreCounters combine(const CoreCounters& o,
                                     double sign) const {
    CoreCounters d;
    for (int i = 0; i < asamap::obs::kNumKernelPhases; ++i) {
      d.kernel_s[i] = kernel_s[i] + sign * o.kernel_s[i];
    }
    d.sweeps = sweeps + sign * o.sweeps;
    d.moves = moves + sign * o.moves;
    d.runs = runs + sign * o.runs;
    d.accumulates = accumulates + sign * o.accumulates;
    d.hits = hits + sign * o.hits;
    d.spills = spills + sign * o.spills;
    return d;
  }

  /// Attaches the four kernel phases as children of span `parent`.
  void attach(Tracer& tr, std::uint64_t parent) const {
    static const char* const kNames[asamap::obs::kNumKernelPhases] = {
        "core.PageRank", "core.FindBestCommunity", "core.Convert2SuperNode",
        "core.UpdateMembers"};
    for (int i = 0; i < asamap::obs::kNumKernelPhases; ++i) {
      tr.add_child(parent, kNames[i], "core", kernel_s[i]);
    }
  }
};

/// Reports the per-layer core/hashdb metrics of `d`, a counter difference
/// spanning `d.runs` clustering runs, as per-run averages.  `levels` and
/// `vertex_coverage` are the last run's gauges.
void report_core_layers(Report& rep, const CoreCounters& d, double levels,
                        double vertex_coverage);

/// The per-layer metrics every workload reports, zero where the workload
/// has no such layer, so every traced run prints the same set.
void report_layer_defaults(Report& rep);

/// Reports the open-loop read latency quantiles and the generator's
/// lateness (its p99) as per-layer metrics.
void report_open_loop(Report& rep, const std::vector<double>& latency_us,
                      const std::vector<double>& late_us);

}  // namespace perfbench
