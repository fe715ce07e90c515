#include "asamap/benchutil/experiments.hpp"

#include <map>
#include <memory>
#include <vector>

#include "asamap/asa/accumulator.hpp"
#include "asamap/core/dense_accumulator.hpp"
#include "asamap/gen/datasets.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/support/check.hpp"

namespace asamap::benchutil {

namespace {

/// Builds per-core accumulators of type Acc, runs the multilevel driver, and
/// extracts the machine counters.
template <typename Acc, typename MakeAcc>
SimRunResult run_with_engine(const graph::CsrGraph& g, const SimRunConfig& cfg,
                             sim::Machine& machine, MakeAcc&& make_acc) {
  const std::uint32_t cores = machine.num_cores();
  std::vector<std::unique_ptr<Acc>> accs;
  std::vector<core::Worker<Acc, sim::CoreModel>> workers;
  accs.reserve(cores);
  workers.reserve(cores);
  for (std::uint32_t i = 0; i < cores; ++i) {
    accs.push_back(make_acc(machine.core(i)));
    workers.push_back(core::Worker<Acc, sim::CoreModel>{accs.back().get(),
                                                        &machine.core(i)});
  }

  SimRunResult result;
  result.infomap = core::run_multilevel(
      g, cfg.infomap, std::span<core::Worker<Acc, sim::CoreModel>>(workers));

  const sim::CoreStats total = machine.total_stats();
  result.total_instructions = total.total_instructions();
  result.total_branches = total.branches;
  result.total_mispredicts = total.branch_mispredicts;
  result.sim_seconds = machine.simulated_seconds();
  result.avg_instructions_per_core = machine.avg_instructions_per_core();
  result.avg_mispredicts_per_core = machine.avg_mispredicts_per_core();
  result.avg_cpi_per_core = machine.avg_cpi_per_core();

  const auto& bd = result.infomap.breakdown;
  result.hash_cycles = bd.hash_cycles;
  result.other_cycles = bd.other_cycles;
  const double hz = cfg.machine.core.frequency_ghz * 1e9;
  result.hash_seconds = bd.hash_cycles / (hz * cores);
  result.other_seconds = bd.other_cycles / (hz * cores);
  return result;
}

}  // namespace

SimRunResult run_simulated(const graph::CsrGraph& g, const SimRunConfig& cfg) {
  sim::MachineConfig mc = cfg.machine;
  mc.num_cores = cfg.num_cores;
  sim::Machine machine(mc);

  switch (cfg.engine) {
    case AccumulatorKind::kChained: {
      std::vector<std::unique_ptr<hashdb::AddressSpace>> spaces;
      return run_with_engine<hashdb::ChainedAccumulator<sim::CoreModel>>(
          g, cfg, machine, [&](sim::CoreModel& core) {
            spaces.push_back(std::make_unique<hashdb::AddressSpace>());
            return std::make_unique<
                hashdb::ChainedAccumulator<sim::CoreModel>>(core,
                                                            *spaces.back());
          });
    }
    case AccumulatorKind::kOpen: {
      std::vector<std::unique_ptr<hashdb::AddressSpace>> spaces;
      return run_with_engine<hashdb::OpenAccumulator<sim::CoreModel>>(
          g, cfg, machine, [&](sim::CoreModel& core) {
            spaces.push_back(std::make_unique<hashdb::AddressSpace>());
            return std::make_unique<hashdb::OpenAccumulator<sim::CoreModel>>(
                core, *spaces.back());
          });
    }
    case AccumulatorKind::kDense: {
      std::vector<std::unique_ptr<hashdb::AddressSpace>> spaces;
      return run_with_engine<core::DenseAccumulator<sim::CoreModel>>(
          g, cfg, machine, [&](sim::CoreModel& core) {
            spaces.push_back(std::make_unique<hashdb::AddressSpace>());
            return std::make_unique<core::DenseAccumulator<sim::CoreModel>>(
                core, *spaces.back(), g.num_vertices());
          });
    }
    case AccumulatorKind::kFlat:
      // The native fast-path accumulator is deliberately uninstrumented —
      // there is nothing for the simulator to cost.
      ASAMAP_CHECK(false,
                   "the native engine (flat) cannot be simulated; "
                   "pick an instrumented engine (chained/open/dense/asa)");
      break;
    case AccumulatorKind::kAsa:
      break;
  }

  // ASA: one CAM per core (the paper: "each thread has its own core-local
  // CAM").
  std::vector<std::unique_ptr<asa::Cam>> cams;
  std::vector<std::unique_ptr<hashdb::AddressSpace>> spaces;
  SimRunResult result =
      run_with_engine<asa::AsaAccumulator<sim::CoreModel>>(
          g, cfg, machine, [&](sim::CoreModel& core) {
            cams.push_back(std::make_unique<asa::Cam>(cfg.cam));
            spaces.push_back(std::make_unique<hashdb::AddressSpace>());
            return std::make_unique<asa::AsaAccumulator<sim::CoreModel>>(
                core, *cams.back(), *spaces.back());
          });
  for (const auto& cam : cams) {
    result.cam_accumulates += cam->stats().accumulates;
    result.cam_evictions += cam->stats().evictions;
    result.cam_overflowed_entries += cam->stats().overflowed_entries;
  }
  return result;
}

core::InfomapResult run_native(const graph::CsrGraph& g,
                               core::InfomapOptions opts,
                               AccumulatorKind kind) {
  opts.time_wall = true;
  return core::run_infomap(g, opts, kind);
}

CamCoverage measure_cam_coverage(const graph::CsrGraph& g) {
  asa::Cam c;
  std::uint64_t clean_vertices = 0, accumulates = 0, evictions = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::uint64_t vertex_evictions = 0;
    for (const graph::Arc& a : g.out_neighbors(v)) {
      vertex_evictions += c.accumulate(a.dst, a.weight) ? 1 : 0;
    }
    c.clear();
    accumulates += g.out_degree(v);
    evictions += vertex_evictions;
    clean_vertices += vertex_evictions == 0 ? 1 : 0;
  }
  CamCoverage out;
  if (g.num_vertices() > 0) {
    out.vertex_share = static_cast<double>(clean_vertices) /
                       static_cast<double>(g.num_vertices());
  }
  if (accumulates > 0) {
    out.accumulate_share = 1.0 - static_cast<double>(evictions) /
                                     static_cast<double>(accumulates);
  }
  return out;
}

const graph::CsrGraph& cached_dataset(const std::string& name) {
  static std::map<std::string, graph::CsrGraph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, gen::make_dataset(name)).first;
  }
  return it->second;
}

}  // namespace asamap::benchutil
