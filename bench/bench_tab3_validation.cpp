// Reproduces Tables II, III and IV of the paper:
//   Tab II  — machine configurations, Native vs (ZSim-)Baseline;
//   Tab III — per-iteration FindBestCommunity runtime, Native vs simulated
//             Baseline, single core, YouTube network (~12.7% avg error);
//   Tab IV  — the same with 2 processing cores.
//
// "Native" here is the wall clock of the uninstrumented run on the host
// (per-iteration min of several runs, with their spread as noise floor);
// "Baseline" is the cycle-model time at the configured 2.6 GHz clock.  The
// host is not a 2.6 GHz Ivy Bridge, so unlike the paper the two columns are
// not expected to agree absolutely; the reproduced content is the per-
// iteration *shape* (monotonically falling times as fewer vertices move) and
// the stability of the native/simulated ratio across iterations, which is
// what a calibrated simulator buys you.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "asamap/benchutil/experiments.hpp"
#include "asamap/benchutil/table.hpp"
#include "asamap/sim/machine.hpp"
#include "asamap/support/check.hpp"

using namespace asamap;
using benchutil::fmt;

namespace {

/// Native runs behind the native column.  One wall-clock run is too noisy
/// to read a ratio drift from (one run's Tab. III drift read 8.5%, the next
/// 16.0%, with a byte-identical simulated column), so the column is the
/// per-iteration min over this many runs and the max-min spread is printed
/// as its noise floor.
constexpr int kNativeReps = 5;

/// Per-iteration level-0 native sweep times: min and max over the reps.
struct NativeColumn {
  std::vector<double> min_seconds;
  std::vector<double> max_seconds;
};

NativeColumn run_native_column(const graph::CsrGraph& g,
                               const core::InfomapOptions& opts) {
  NativeColumn col;
  for (int rep = 0; rep < kNativeReps; ++rep) {
    const core::InfomapResult r = benchutil::run_native(g, opts);
    // The sweep decisions are deterministic, so every rep has the same
    // trace rows; only their wall times differ.
    if (rep == 0) {
      for (const core::SweepTrace& st : r.trace) {
        if (st.level != 0) break;
        col.min_seconds.push_back(st.wall_seconds);
        col.max_seconds.push_back(st.wall_seconds);
      }
      continue;
    }
    ASAMAP_CHECK(r.trace.size() >= col.min_seconds.size(),
                 "native reps took different sweep sequences");
    for (std::size_t i = 0; i < col.min_seconds.size(); ++i) {
      const double t = r.trace[i].wall_seconds;
      col.min_seconds[i] = std::min(col.min_seconds[i], t);
      col.max_seconds[i] = std::max(col.max_seconds[i], t);
    }
  }
  return col;
}

void print_validation(const NativeColumn& native,
                      const core::InfomapResult& sim, const char* title) {
  benchutil::banner(std::cout, title);
  benchutil::Table t({"Iteration", "Native min (s)", "Baseline sim (s)",
                      "native/sim ratio", "ratio drift", "native noise"});
  std::size_t rows = 0;
  while (rows < native.min_seconds.size() && rows < sim.trace.size() &&
         sim.trace[rows].level == 0) {
    ++rows;
  }
  const auto ratio_of = [&](std::size_t i) {
    return sim.trace[i].sim_seconds == 0
               ? 0.0
               : native.min_seconds[i] / sim.trace[i].sim_seconds;
  };
  const double ratio0 = rows == 0 ? 0.0 : ratio_of(0);
  double worst_drift = 0.0;
  double worst_noise = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double ratio = ratio_of(i);
    const bool measurable = sim.trace[i].sim_seconds >= 1e-4;  // sub-0.1ms
    const double drift =
        ratio0 == 0.0 || !measurable ? 0.0
                                     : std::abs(ratio / ratio0 - 1.0) * 100.0;
    // Noise floor: the spread of the native reps, relative to their min.
    const double noise =
        native.min_seconds[i] == 0.0
            ? 0.0
            : (native.max_seconds[i] - native.min_seconds[i]) /
                  native.min_seconds[i] * 100.0;
    if (measurable) {
      worst_drift = std::max(worst_drift, drift);
      worst_noise = std::max(worst_noise, noise);
    }
    t.add_row({std::to_string(i + 1), fmt(native.min_seconds[i], 4),
               fmt(sim.trace[i].sim_seconds, 4), fmt(ratio, 2),
               measurable ? fmt(drift, 1) + "%" : "(noise)",
               fmt(noise, 1) + "%"});
  }
  t.print(std::cout);
  std::cout << "Per-iteration times fall monotonically in both columns; the\n"
               "native/sim ratio drifts at most "
            << fmt(worst_drift, 1)
            << "% from iteration 1 (the paper's native-vs-ZSim error was\n"
               "10-16% on real 2.6 GHz hardware).\nNative column: min of "
            << kNativeReps
            << " runs; their max-min spread (the noise floor) reaches "
            << fmt(worst_noise, 1)
            << "%,\nso a drift below that is not resolved.\n";
}

}  // namespace

int main() {
  benchutil::banner(std::cout, "Tab. II — machine configurations");
  {
    const sim::MachineConfig mc = sim::paper_baseline_machine(8);
    benchutil::Table t({"Item", "Native (paper)", "Baseline (simulated)"});
    t.add_row({"Processor", "8 cores, 2.6 GHz",
               std::to_string(mc.num_cores) + " cores, " +
                   fmt(mc.core.frequency_ghz, 1) + " GHz"});
    t.add_row({"L1 instruction cache", "32KB", "32KB (not modeled)"});
    t.add_row({"L1 data cache", "32KB",
               std::to_string(mc.core.l1.size_bytes / 1024) + "KB, " +
                   std::to_string(mc.core.l1.associativity) + "-way"});
    t.add_row({"L2", "private 256KB",
               "private " + std::to_string(mc.core.l2.size_bytes / 1024) +
                   "KB, " + std::to_string(mc.core.l2.associativity) +
                   "-way"});
    t.add_row({"L3", "shared 20MB (16MB in ZSim)",
               "shared " +
                   std::to_string(mc.l3.size_bytes / (1024 * 1024)) + "MB, " +
                   std::to_string(mc.l3.associativity) + "-way"});
    t.add_row({"Main memory", "DDR3-1333",
               std::to_string(mc.core.memory_latency) + "-cycle latency"});
    t.print(std::cout);
  }

  const auto& g = benchutil::cached_dataset("YouTube");
  core::InfomapOptions opts;
  opts.max_sweeps_per_level = 7;  // the paper lists 7 iterations
  opts.max_levels = 1;            // Tab III/IV measure the vertex level

  // Native single core, min of kNativeReps runs.
  const NativeColumn native1 = run_native_column(g, opts);

  // Simulated Baseline, single core.
  benchutil::SimRunConfig cfg;
  cfg.engine = core::AccumulatorKind::kChained;
  cfg.num_cores = 1;
  cfg.infomap = opts;
  const auto sim1 = run_simulated(g, cfg);
  print_validation(native1, sim1.infomap,
                   "Tab. III — per-iteration runtime, Native vs Baseline,\n"
                   "1 core, YouTube");

  // 2 cores (Tab IV).  The native column remains the single-host wall
  // clock; the simulated column uses the 2-core machine model.
  cfg.num_cores = 2;
  const auto sim2 = run_simulated(g, cfg);
  print_validation(native1, sim2.infomap,
                   "Tab. IV — per-iteration runtime, Native (1-core wall) vs\n"
                   "Baseline sim, 2 cores, YouTube");
  std::cout << "\n2-core simulated times should be roughly half the 1-core\n"
               "simulated times from Tab. III.\n";
  return 0;
}
