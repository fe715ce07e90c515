#pragma once

/// \file distributed.hpp
/// Single-process simulation of the distributed-memory layer of HyPC-Map
/// (Faysal et al., HPEC 2021) and its predecessor DPLM (Faysal &
/// Arifuzzaman, IEEE BigData 2019): the substrate the paper's parallel
/// Infomap runs on.
///
/// No MPI is used (the paper's evaluation is single-node; see DESIGN.md's
/// substitution table) — instead the protocol is simulated faithfully:
///
///   * vertices are block-partitioned across R ranks;
///   * each superstep, every rank evaluates its local vertices against a
///     *stale snapshot* of the global module state (taken at superstep
///     start — exactly the relaxed consistency distributed Infomap relies
///     on, since remote module updates arrive only at exchange points);
///   * proposed moves of vertices with remote neighbors generate messages
///     (one logical message per rank pair per superstep, 8 bytes per
///     (vertex, newModule) update), which the simulator counts;
///   * the exchange applies moves to the authoritative state, re-validating
///     each against the live aggregates so the map equation stays exact.
///
/// The superstep is a core::SweepExecutor (SuperstepExecutor below): the
/// level loop itself — flow, UpdateMembers, contraction, final codelength —
/// is core::run_levels (core/infomap.cpp), shared with the serial and
/// threaded drivers.  The live tier runs the same code: dist::ShardSession's
/// DCLUSTER steps call SuperstepExecutor::propose/apply/end_superstep and
/// step a core::MultilevelRun, with the router (router.cpp) as the exchange.
///
/// The interesting outputs are the message-volume trace (it collapses
/// across supersteps as the active set shrinks) and the quality parity with
/// the sequential driver.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/dist/partition_map.hpp"
#include "asamap/hashdb/software_accumulator.hpp"

namespace asamap::dist {

struct DistOptions {
  std::uint32_t num_ranks = 4;
  int max_supersteps_per_level = 30;
  int max_levels = 30;
  double min_improvement_bits = 1e-10;
  core::FlowOptions flow = {};
};

struct SuperstepTrace {
  int level = 0;
  int step = 0;
  std::uint64_t proposals = 0;  ///< moves proposed across all ranks
  std::uint64_t applied = 0;    ///< moves surviving re-validation
  std::uint64_t messages = 0;   ///< rank-pair messages this superstep
  std::uint64_t bytes = 0;      ///< update payload bytes
  double codelength = 0.0;      ///< level-local (see SweepTrace note)
};

struct DistResult {
  core::Partition communities;
  std::size_t num_communities = 0;
  double codelength = 0.0;  ///< level-0 value of the final partition
  int levels = 0;
  std::vector<SuperstepTrace> trace;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
};

/// Stale-snapshot supersteps over R block-partitioned ranks, each with its
/// own accumulator heap.  A superstep is propose (every rank, against the
/// state as of the superstep's start), exchange accounting, and a
/// re-validating apply in rank order; sweep_level loops supersteps to
/// convergence and fills `trace`.  Neither the simulation nor the live
/// protocol has warm starts or cancellation, so LevelSweep::seed and
/// InfomapOptions::cancel are not read.
class SuperstepExecutor final : public core::SweepExecutor {
 public:
  explicit SuperstepExecutor(std::uint32_t ranks);

  void sweep_level(const core::LevelSweep& lv) override;
  /// The superstep protocol has no fine-tuning pass: its callers run with
  /// refine_sweeps = 0, and a refinement request moves nothing.
  std::uint64_t refine(const core::LevelSweep& /*lv*/) override { return 0; }

  // One superstep's phases.  The live shard steps them one protocol message
  // at a time (with ranks = 1: one process, one accumulator heap).

  /// Arms a level of n nodes: every vertex active, fresh rank heaps.
  void begin_level(graph::VertexId n) override;
  /// Local phase of `rank`: appends the active vertices of `range` whose
  /// best move against the current state improves the codelength.
  void propose(const core::LevelSweep& lv, ShardRange range,
               std::uint32_t rank, std::vector<graph::VertexId>& movers);
  /// Apply phase: re-validates each mover against the live state, in
  /// order, and applies survivors (marking their neighborhoods active for
  /// the next superstep).  Returns the moves applied.
  std::uint64_t apply(const core::LevelSweep& lv,
                      std::span<const graph::VertexId> movers);
  /// Closes a superstep: recomputes the aggregates and swaps active sets.
  void end_superstep(core::ModuleState& state);

  std::vector<SuperstepTrace> trace;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;

 private:
  using RankAccumulator = hashdb::ChainedAccumulator<sim::NullSink>;
  std::uint32_t ranks_;
  sim::NullSink sink_;
  const core::KernelCosts costs_;
  std::vector<std::unique_ptr<hashdb::AddressSpace>> heaps_;
  std::vector<std::unique_ptr<RankAccumulator>> accs_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> next_active_;
};

/// Runs the simulated distributed Infomap.  Deterministic for a fixed rank
/// count.
DistResult run_distributed_infomap(const graph::CsrGraph& g,
                                   const DistOptions& opts = {});

}  // namespace asamap::dist
