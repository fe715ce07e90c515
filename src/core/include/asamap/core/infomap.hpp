#pragma once

/// \file infomap.hpp
/// The multilevel Infomap driver — the four HyPC-Map kernels wired together:
///
///   PageRank            -> build_flow (flow.hpp)
///   FindBestCommunity   -> sweep loop over kernel.hpp, per level
///   Convert2SuperNode   -> contract_network (flow.hpp)
///   UpdateMembers       -> composition of level partitions
///
/// The driver is parameterized on a set of *workers*, each an (accumulator,
/// event sink) pair bound to one simulated core; with a single
/// NullSink-backed worker it is a plain fast community detector, with
/// CoreModel-backed workers it is the paper's simulated Baseline or ASA
/// configuration.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "asamap/core/hierarchy.hpp"
#include "asamap/core/kernel.hpp"
#include "asamap/core/map_equation.hpp"
#include "asamap/hashdb/hot_set_accumulator.hpp"
#include "asamap/obs/trace.hpp"
#include "asamap/support/check.hpp"
#include "asamap/support/timer.hpp"

namespace asamap::core {

struct InfomapOptions {
  FlowOptions flow = {};
  int max_sweeps_per_level = 30;   ///< FindBestCommunity iterations per level
  int max_levels = 30;             ///< supernode recursion cap
  double min_improvement_bits = 1e-10;
  std::uint32_t interleave_block = 4096;  ///< multi-worker window size
  bool time_wall = false;          ///< collect native hash/other split
  /// Fine-tuning (Infomap's refinement step): after the multilevel loop
  /// converges, re-run vertex-level sweeps on the *original* graph seeded
  /// with the final partition, letting individual vertices correct
  /// coarse-level misassignments.  Improves codelength, never worsens it.
  int refine_sweeps = 2;
  /// Cooperative cancellation: when non-null and set (by another thread —
  /// a deadline watchdog, a job scheduler's cancel), the driver stops at
  /// the next sweep boundary and returns the best partition found so far,
  /// with InfomapResult::interrupted set.  The partition is always a
  /// consistent (if unconverged) assignment — moves apply atomically at
  /// sweep granularity.
  const std::atomic<bool>* cancel = nullptr;
  /// When non-null, kernel-phase spans and run-level counters are published
  /// into this registry (under `asamap_kernel_seconds{kernel="..."}` etc.)
  /// in addition to the per-run InfomapResult fields.  The registry must
  /// outlive the run; recording is lock-cheap and safe to scrape
  /// concurrently from another thread.
  obs::MetricRegistry* metrics = nullptr;
  /// Warm start (incremental reclustering, DESIGN.md §4f): when non-null,
  /// the level-0 sweep starts from this membership (one id per vertex; ids
  /// need not be compact — the driver compacts a copy) instead of
  /// all-singletons.  InfomapResult::initial_codelength then reports the
  /// warm partition's codelength, which is the publish-on-improvement
  /// baseline: greedy sweeps only ever lower it.  Must outlive the run.
  const Partition* warm_start = nullptr;
  /// Active-set seed for a warm-started run: when non-null (and warm_start
  /// is set), the level-0 and refinement sweeps activate only these
  /// vertices plus their 1-hop neighborhood instead of the full vertex set
  /// — the incremental re-sweep around a delta batch.  Activation still
  /// propagates from movers sweep over sweep, so the result is a valid
  /// (locally converged) partition; vertices the wavefront never reaches
  /// simply keep their warm assignment.  Coarser levels are unaffected
  /// (supernode counts are already small).  Must outlive the run.
  const std::vector<VertexId>* active_seed = nullptr;
  /// Local-repair shortcut for seeded warm runs: when the active seed covers
  /// at most this fraction of the vertex set, the perturbation is local — the
  /// run stops after the (converged) level-0 re-sweep instead of rebuilding
  /// the coarse supernode hierarchy.  The hierarchy rebuild costs several
  /// O(E) passes (contraction + coarse sweeps) to recover merges the warm
  /// partition already encodes; measured on a 100k/600k graph at 0.1% churn
  /// it changes codelength by ~0.006% while taking ~40% of the run.  Large
  /// perturbations (seed above the threshold) still rebuild the full
  /// hierarchy.  Set 0 to always rebuild.  Ignored without an active_seed.
  double warm_local_repair_fraction = 0.05;
};

/// One FindBestCommunity iteration's record (a row of Tables III/IV).
/// `codelength` is the level-local value: at supernode levels it omits the
/// (constant within the level) leaf-entropy term, so values are comparable
/// within a level but not across levels.  InfomapResult::codelength is the
/// true level-0 value of the final partition.
struct SweepTrace {
  int level = 0;
  int sweep = 0;
  std::uint64_t moves = 0;
  double codelength = 0.0;
  double wall_seconds = 0.0;  ///< native time of this sweep
  /// Slowest worker's time for this sweep: with simulated (CoreModel)
  /// workers this is simulated seconds from the cycle counters; in the
  /// native parallel driver it is the slowest thread's proposal-phase wall
  /// time (the sweep's critical path, i.e. what limits scaling).
  double sim_seconds = 0.0;
};

struct InfomapResult {
  Partition communities;          ///< final community per original vertex
  std::size_t num_communities = 0;
  double codelength = 0.0;        ///< bits per step, of the final partition
                                  ///< evaluated over the original network
  double one_level_codelength = 0.0;  ///< L of the trivial partition
  double initial_codelength = 0.0;    ///< L of the level-0 start state —
                                      ///< all-singletons, or the warm_start
                                      ///< partition when one was given;
                                      ///< codelength <= this is guaranteed
  int levels = 0;                 ///< supernode levels processed
  bool interrupted = false;       ///< stopped early via InfomapOptions::cancel
  std::vector<SweepTrace> trace;
  support::PhaseTimer kernel_wall;  ///< Fig. 2a: per-kernel native seconds
  KernelBreakdown breakdown;        ///< Fig. 2b / Tab. V attribution
  /// Aggregated hot-set counters when the run used HotSetAccumulator
  /// (begins == 0 otherwise) — the software analogue of asa::CamStats.
  hashdb::HotSetStats hotset;

  /// Per-level compacted assignments (level k maps level-(k-1) modules;
  /// level 0 maps original vertices).  Feed to ModuleHierarchy for
  /// Infomap-style "2:7:1" module paths.  When the refinement pass
  /// (InfomapOptions::refine_sweeps) moved vertices, the hierarchy is
  /// re-based to a single flat level — refinement edits the leaf partition
  /// directly, invalidating the intermediate tree; set refine_sweeps = 0 to
  /// keep the full tree.
  std::vector<Partition> level_assignments;

  [[nodiscard]] ModuleHierarchy hierarchy() const {
    return ModuleHierarchy(level_assignments);
  }
};

/// Kernel phase names used in InfomapResult::kernel_wall.
namespace kernels {
inline const std::string kPageRank = "PageRank";
inline const std::string kFindBestCommunity = "FindBestCommunity";
inline const std::string kConvert2SuperNode = "Convert2SuperNode";
inline const std::string kUpdateMembers = "UpdateMembers";
}  // namespace kernels

/// Publishes one finished run's summary counters and gauges into `reg`
/// (no-op when null).  Shared by every driver so serial, parallel, and
/// simulated runs report under the same names; kernel-phase histograms are
/// recorded live by obs::KernelSpan, not here.
inline void publish_run_metrics(const InfomapResult& result,
                                obs::MetricRegistry* reg) {
  if (reg == nullptr) return;
  reg->counter("asamap_runs_total").inc();
  if (result.interrupted) reg->counter("asamap_runs_interrupted_total").inc();
  std::uint64_t moves = 0;
  std::uint64_t sweeps = 0;
  for (const SweepTrace& st : result.trace) {
    moves += st.moves;
    ++sweeps;
  }
  reg->counter("asamap_run_moves_total").inc(moves);
  reg->counter("asamap_run_sweeps_total").inc(sweeps);
  reg->counter("asamap_parallel_proposals_total")
      .inc(result.breakdown.proposals);
  reg->counter("asamap_parallel_replays_total").inc(result.breakdown.replays);
  reg->counter("asamap_parallel_revalidations_total")
      .inc(result.breakdown.revalidations);
  reg->gauge("asamap_run_levels").set(static_cast<double>(result.levels));
  reg->gauge("asamap_run_communities")
      .set(static_cast<double>(result.num_communities));
  reg->gauge("asamap_run_codelength_bits").set(result.codelength);
  reg->gauge("asamap_kernel_prefetch_distance")
      .set(static_cast<double>(kModulePrefetchDistance));
  if (result.hotset.begins > 0) {
    reg->counter("asamap_hotset_accumulates_total")
        .inc(result.hotset.accumulates);
    reg->counter("asamap_hotset_hits_total").inc(result.hotset.hot_hits());
    reg->counter("asamap_hotset_spills_total").inc(result.hotset.spills);
    reg->gauge("asamap_hotset_hit_rate").set(result.hotset.hit_rate());
    reg->gauge("asamap_hotset_vertex_coverage")
        .set(result.hotset.vertex_coverage());
  }
}

/// Renumbers community ids to 0..k-1 in first-appearance order; returns k.
inline std::size_t compact_communities(Partition& p) {
  VertexId max_id = 0;
  for (VertexId c : p) max_id = std::max(max_id, c);
  std::vector<VertexId> relabel(std::size_t{max_id} + 1,
                                graph::kInvalidVertex);
  VertexId next_id = 0;
  for (VertexId& c : p) {
    if (relabel[c] == graph::kInvalidVertex) relabel[c] = next_id++;
    c = relabel[c];
  }
  return next_id;
}

/// Zeroes `active` and re-marks `seed` plus its 1-hop neighborhood — the
/// level-0 / refinement start state of an incremental (active_seed) run.
/// Out-of-range seeds are ignored (a delta batch can reference vertices the
/// caller's graph snapshot predates).
inline void seed_active_set(const FlowNetwork& fn,
                            std::span<const VertexId> seed,
                            std::vector<std::uint8_t>& active) {
  std::fill(active.begin(), active.end(), 0);
  const VertexId n = fn.num_nodes();
  for (const VertexId s : seed) {
    if (s >= n) continue;
    active[s] = 1;
    for (const graph::Arc& a : fn.graph.out_neighbors(s)) active[a.dst] = 1;
    for (const graph::Arc& a : fn.graph.in_neighbors(s)) active[a.dst] = 1;
  }
}

/// Number of distinct community ids in a partition.
inline std::size_t count_distinct_communities(const Partition& p) {
  VertexId max_id = 0;
  for (VertexId c : p) max_id = std::max(max_id, c);
  std::vector<bool> seen(std::size_t{max_id} + 1, false);
  std::size_t distinct = 0;
  for (VertexId c : p) {
    if (!seen[c]) {
      seen[c] = true;
      ++distinct;
    }
  }
  return distinct;
}

/// A simulated core's view of the computation.
template <FlowAccumulator Acc, sim::EventSink Sink>
struct Worker {
  Acc* acc = nullptr;
  Sink* sink = nullptr;
};

/// Multilevel Infomap over an arbitrary worker set.  Vertices of each level
/// are range-partitioned across workers (HyPC-Map's distribution); blocks of
/// `interleave_block` vertices rotate across workers so a shared L3 in the
/// sink sees interleaved footprints.  Moves apply to the shared ModuleState
/// in processing order, so results are deterministic for a fixed worker
/// count.
template <FlowAccumulator Acc, sim::EventSink Sink>
InfomapResult run_multilevel(const graph::CsrGraph& g,
                             const InfomapOptions& opts,
                             std::span<Worker<Acc, Sink>> workers) {
  ASAMAP_CHECK(!workers.empty(), "need at least one worker");
  InfomapResult result;
  // Resolve every kernel-span sink (timer slots + histogram handles) once;
  // the spans in the level loop then open/close allocation-free.
  obs::KernelTimers ktimers(result.kernel_wall, opts.metrics);
  const auto cancelled = [&opts] {
    return opts.cancel && opts.cancel->load(std::memory_order_relaxed);
  };

  // --- PageRank kernel.  `original` stays untouched for the final
  // level-0 codelength evaluation and refinement; `fn` is the working
  // network that gets contracted level by level.
  FlowNetwork original;
  {
    obs::KernelSpan span(ktimers, obs::KernelPhase::kPageRank);
    original = build_flow(g, opts.flow);
  }
  // Level-0 reads `original` directly; contracted levels swap in the owned
  // supernode network.  Saves a full O(E) FlowNetwork copy per run.
  FlowNetwork contracted;
  const FlowNetwork* fn = &original;

  // UpdateMembers state: original vertex -> current-level node.
  std::vector<VertexId> node_of_orig(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) node_of_orig[v] = v;

  // The proper one-level codelength is the entropy of node visit rates; a
  // single module with zero exit gives exactly that.
  result.one_level_codelength = one_level_codelength(original);

  hashdb::AddressSpace level_addrs;  // fresh simulated regions per run
  const KernelCosts costs;

  const bool warm = opts.warm_start != nullptr;
  const bool seeded = warm && opts.active_seed != nullptr;
  // Local repair (see InfomapOptions::warm_local_repair_fraction): a small
  // seeded perturbation converges at level 0; the coarse hierarchy the warm
  // partition came from is still valid, so skip rebuilding it.
  const bool local_repair =
      seeded && opts.warm_local_repair_fraction > 0.0 &&
      static_cast<double>(opts.active_seed->size()) <=
          opts.warm_local_repair_fraction *
              static_cast<double>(g.num_vertices());

  for (int level = 0; level < opts.max_levels; ++level) {
    ModuleState state = [&]() -> ModuleState {
      if (level == 0 && warm) {
        ASAMAP_CHECK(opts.warm_start->size() == fn->num_nodes(),
                     "warm_start must have one entry per vertex");
        Partition init = *opts.warm_start;
        const std::size_t k = compact_communities(init);
        return ModuleState(*fn, init, k);
      }
      return ModuleState(*fn);
    }();
    if (level == 0) result.initial_codelength = state.codelength();
    const LevelAddresses addrs = LevelAddresses::for_network(*fn, level_addrs);
    const VertexId n = fn->num_nodes();

    // Per-worker contiguous ranges.
    const std::uint32_t w = static_cast<std::uint32_t>(workers.size());
    std::vector<VertexId> range_begin(w), range_end(w);
    for (std::uint32_t i = 0; i < w; ++i) {
      range_begin[i] = static_cast<VertexId>(std::uint64_t{n} * i / w);
      range_end[i] = static_cast<VertexId>(std::uint64_t{n} * (i + 1) / w);
    }

    // Active-set pruning: all vertices active on the first sweep, then only
    // neighborhoods of movers.  An incremental run instead seeds level 0
    // with the delta batch's touched vertices + 1-hop frontier.
    std::vector<std::uint8_t> active(n, 1);
    std::vector<std::uint8_t> next_active(n, 0);
    if (level == 0 && seeded) seed_active_set(*fn, *opts.active_seed, active);

    double prev_codelength = state.codelength();
    int sweeps_done = 0;
    for (int sweep = 0; sweep < opts.max_sweeps_per_level; ++sweep) {
      if (cancelled()) {
        result.interrupted = true;
        break;
      }
      SweepTrace st;
      st.level = level;
      st.sweep = sweep;
      support::WallTimer sweep_wall;
      std::vector<double> worker_cycles_before(w);
      for (std::uint32_t i = 0; i < w; ++i) {
        worker_cycles_before[i] = detail::cycles_of(*workers[i].sink);
      }

      std::uint64_t moves = 0;
      {
        obs::KernelSpan span(ktimers, obs::KernelPhase::kFindBestCommunity);
        // Interleaved windows across workers.
        bool any_left = true;
        std::vector<VertexId> cursor(range_begin);
        while (any_left) {
          any_left = false;
          for (std::uint32_t i = 0; i < w; ++i) {
            if (cursor[i] >= range_end[i]) continue;
            const VertexId stop =
                static_cast<VertexId>(std::min<std::uint64_t>(
                    std::uint64_t{cursor[i]} + opts.interleave_block,
                    range_end[i]));
            moves += sweep_range(state, *fn, cursor[i], stop, *workers[i].acc,
                                 *workers[i].sink, addrs, costs,
                                 result.breakdown, opts.time_wall,
                                 active.data(), next_active.data());
            cursor[i] = stop;
            if (cursor[i] < range_end[i]) any_left = true;
          }
        }
      }
      state.recompute();  // shed incremental floating-point drift

      st.moves = moves;
      st.codelength = state.codelength();
      st.wall_seconds = sweep_wall.seconds();
      double worst = 0.0;
      for (std::uint32_t i = 0; i < w; ++i) {
        const double dc =
            detail::cycles_of(*workers[i].sink) - worker_cycles_before[i];
        if constexpr (requires { workers[0].sink->config(); }) {
          worst = std::max(
              worst, dc / (workers[i].sink->config().frequency_ghz * 1e9));
        }
      }
      st.sim_seconds = worst;
      result.trace.push_back(st);
      ++sweeps_done;

      if (moves == 0 ||
          prev_codelength - state.codelength() < opts.min_improvement_bits) {
        break;
      }
      prev_codelength = state.codelength();
      active.swap(next_active);
      std::fill(next_active.begin(), next_active.end(), 0);
    }
    (void)sweeps_done;

    // Compact the level partition.
    Partition assignment = state.assignment();
    std::vector<VertexId> relabel(fn->num_nodes(), graph::kInvalidVertex);
    VertexId next_id = 0;
    for (VertexId v = 0; v < n; ++v) {
      VertexId& slot = relabel[assignment[v]];
      if (slot == graph::kInvalidVertex) slot = next_id++;
      assignment[v] = slot;
    }
    const std::size_t k = next_id;

    // UpdateMembers kernel: propagate to original vertices.
    {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kUpdateMembers);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        node_of_orig[v] = assignment[node_of_orig[v]];
      }
    }

    result.level_assignments.push_back(assignment);
    result.codelength = state.codelength();
    result.levels = level + 1;

    if (level == 0 && local_repair) break;
    if (k == n || k <= 1) break;  // no aggregation or fully merged: done
    if (result.interrupted) break;

    // Convert2SuperNode kernel.
    {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kConvert2SuperNode);
      contracted = contract_network(*fn, assignment, k);
      fn = &contracted;
    }
  }

  result.communities = std::move(node_of_orig);
  result.num_communities = compact_communities(result.communities);

  // --- Final codelength, evaluated over the *original* network.  The
  // coarse-level values recorded in the trace omit the (level-constant)
  // leaf-entropy term, so only a level-0 evaluation yields the true
  // two-level map-equation value of the final partition.
  if (local_repair) {
    // The level-0 state lived on the original network and was recomputed
    // after its last sweep — result.codelength already holds the true
    // two-level value, and the seeded re-sweep converged over the active
    // set, so refinement would only re-walk the same vertices.
  } else {
    ModuleState state(original, result.communities, result.num_communities);
    result.codelength = state.codelength();

    // Refinement (fine-tuning): vertex-level sweeps seeded with the final
    // partition correct vertices that were dragged along with their
    // supernode into a suboptimal module.  Greedy moves only ever improve.
    if (opts.refine_sweeps > 0 && result.levels > 1 &&
        result.num_communities > 1 && !result.interrupted) {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kFindBestCommunity);
      const LevelAddresses addrs =
          LevelAddresses::for_network(original, level_addrs);
      // Incremental runs confine refinement to the same seeded active set
      // (plus whatever the move wavefront reaches) — a full-vertex
      // refinement would erase the active-set speedup.
      std::vector<std::uint8_t> refine_active;
      std::vector<std::uint8_t> refine_next;
      if (seeded) {
        refine_active.assign(g.num_vertices(), 0);
        refine_next.assign(g.num_vertices(), 0);
        seed_active_set(original, *opts.active_seed, refine_active);
      }
      std::uint64_t refine_moves = 0;
      for (int sweep = 0; sweep < opts.refine_sweeps; ++sweep) {
        if (cancelled()) {
          result.interrupted = true;
          break;
        }
        std::uint64_t moves = 0;
        const std::uint32_t w = static_cast<std::uint32_t>(workers.size());
        for (std::uint32_t i = 0; i < w; ++i) {
          const auto first = static_cast<VertexId>(
              std::uint64_t{g.num_vertices()} * i / w);
          const auto last = static_cast<VertexId>(
              std::uint64_t{g.num_vertices()} * (i + 1) / w);
          moves += sweep_range(state, original, first, last, *workers[i].acc,
                               *workers[i].sink, addrs, costs,
                               result.breakdown, opts.time_wall,
                               seeded ? refine_active.data() : nullptr,
                               seeded ? refine_next.data() : nullptr);
        }
        state.recompute();
        refine_moves += moves;
        if (moves == 0) break;
        if (seeded) {
          refine_active.swap(refine_next);
          std::fill(refine_next.begin(), refine_next.end(), 0);
        }
      }

      if (refine_moves > 0 && state.codelength() < result.codelength) {
        // Adopt the refined partition; re-base the hierarchy to this flat
        // level (see the level_assignments doc comment).
        Partition flat = state.assignment();
        result.num_communities = compact_communities(flat);
        result.communities = flat;
        result.codelength = state.codelength();
        result.level_assignments = {std::move(flat)};
      }
    }
  }
  if constexpr (requires { workers[0].acc->hot_stats(); }) {
    for (const Worker<Acc, Sink>& w : workers) result.hotset += w.acc->hot_stats();
  }
  publish_run_metrics(result, opts.metrics);
  return result;
}

/// Which accumulation engine a convenience run should use.
///
/// kChained/kOpen/kAsa/kDense are the paper's *modeled* engines — they emit
/// sink events so simulated runs can cost every probe.  kFlat and kHotSet
/// are the native fast paths: uninstrumented and cache-friendly.  kHotSet
/// (hashdb::HotSetAccumulator) fronts the flat table with a fixed 8 KB
/// SIMD-probed hot set mirroring the paper's CAM, and is the default for
/// the parallel driver.
enum class AccumulatorKind { kChained, kOpen, kAsa, kDense, kFlat, kHotSet };

/// Plain, uninstrumented community detection (NullSink, one worker).
/// The default configuration a library user wants: the flat native-speed
/// accumulator.  Pick an instrumented kind to reproduce the modeled
/// engines' decisions bit-for-bit (all kinds yield identical partitions).
InfomapResult run_infomap(const graph::CsrGraph& g,
                          const InfomapOptions& opts = {},
                          AccumulatorKind kind = AccumulatorKind::kFlat);

/// Shared-memory parallel variant: proposals are computed in parallel with
/// OpenMP against a snapshot of the module state, then verified and applied
/// serially (RelaxMap-style relaxed concurrency, made deterministic).
///
/// Each sweep walks the vertex ids in fixed rounds of 1024 vertices.  Per
/// round, phase 1 records full move proposals (target + flows), not just
/// flags, against the state as of the round's start; phase 2 replays them
/// in vertex order and only re-runs the accumulator for vertices whose
/// neighborhood changed since that snapshot (tracked by per-vertex epoch
/// stamps).  Later rounds therefore propose against earlier rounds' moves,
/// which keeps most proposals fresh and convergence close to the serial
/// driver's.  Aggregates stay exact because recorded flows are only reused
/// when provably unchanged, and the code-length delta is re-derived from
/// live aggregates in O(1) before applying.  The round size is a constant,
/// so the result is deterministic *and* bitwise thread-count-invariant:
/// the same partition and codelength at any thread count.
///
/// `kind` selects the native accumulation engine: kHotSet (default — the
/// software-CAM two-level accumulator) or kFlat.  The instrumented kinds
/// are not supported here (their sinks are not thread-safe); both native
/// engines produce bitwise-identical results by construction.
InfomapResult run_infomap_parallel(const graph::CsrGraph& g,
                                   const InfomapOptions& opts = {},
                                   int num_threads = 0,
                                   AccumulatorKind kind = AccumulatorKind::kHotSet);

}  // namespace asamap::core
