#pragma once

/// \file experiments.hpp
/// High-level experiment runners shared by the bench binaries: "run Infomap
/// on dataset X under simulated machine M with accumulation engine E and
/// report the paper's counters".  Every table/figure bench is a thin wrapper
/// over these.

#include <cstdint>
#include <string>

#include "asamap/asa/cam.hpp"
#include "asamap/core/infomap.hpp"
#include "asamap/sim/machine.hpp"

namespace asamap::benchutil {

using core::AccumulatorKind;

struct SimRunConfig {
  AccumulatorKind engine = AccumulatorKind::kChained;  ///< Baseline default
  std::uint32_t num_cores = 1;
  asa::CamConfig cam = {};  ///< for AccumulatorKind::kAsa
  sim::MachineConfig machine = sim::paper_baseline_machine(1);
  core::InfomapOptions infomap = {};
};

/// Architectural counters + timing extracted from one simulated run — the
/// quantities in Table V and Figs. 6-11.
struct SimRunResult {
  core::InfomapResult infomap;

  // Aggregate machine counters.
  std::uint64_t total_instructions = 0;
  std::uint64_t total_branches = 0;
  std::uint64_t total_mispredicts = 0;
  double sim_seconds = 0.0;  ///< slowest-core cycles / clock

  // Per-core averages (Figs. 9-11).
  double avg_instructions_per_core = 0.0;
  double avg_mispredicts_per_core = 0.0;
  double avg_cpi_per_core = 0.0;

  // HashOperations attribution (Fig. 2b / Tab. V / Fig. 7).  Cycles summed
  // over cores; seconds assume perfect balance (cycles / cores / clock).
  double hash_cycles = 0.0;
  double other_cycles = 0.0;
  double hash_seconds = 0.0;
  double other_seconds = 0.0;

  // ASA-specific (zero for software engines).
  std::uint64_t cam_accumulates = 0;
  std::uint64_t cam_evictions = 0;
  std::uint64_t cam_overflowed_entries = 0;

  [[nodiscard]] double hash_fraction() const noexcept {
    const double total = hash_cycles + other_cycles;
    return total > 0 ? hash_cycles / total : 0.0;
  }
};

/// Runs Infomap on `g` under the simulated machine.  Deterministic.
SimRunResult run_simulated(const graph::CsrGraph& g, const SimRunConfig& cfg);

/// Runs Infomap natively (no simulation) with wall-clock kernel attribution
/// (Fig. 2 and the Native columns of Tables III/IV).
core::InfomapResult run_native(const graph::CsrGraph& g,
                               core::InfomapOptions opts = {},
                               AccumulatorKind kind = AccumulatorKind::kChained);

/// Fig. 5 measured against the CAM model itself: how the paper's 8 KB CAM
/// (asa::CamConfig's default: 512 entries, fully associative) fares when
/// every vertex's neighborhood is accumulated through it under an identity
/// module map (every neighbor a distinct key — the worst case).
struct CamCoverage {
  double vertex_share = 1.0;      ///< vertices that caused no eviction
  double accumulate_share = 1.0;  ///< accumulates that caused no eviction
};

/// Replays each vertex's out-neighborhood through one default asa::Cam,
/// clearing it between vertices.
CamCoverage measure_cam_coverage(const graph::CsrGraph& g);

/// Loads one of the paper's stand-in datasets by name (see gen/datasets.hpp)
/// with a small in-process cache so multiple benches in one binary do not
/// regenerate the graph.
const graph::CsrGraph& cached_dataset(const std::string& name);

}  // namespace asamap::benchutil
