#pragma once

/// \file infomap.hpp
/// Multilevel Infomap: one level loop wiring the four HyPC-Map kernels
/// together, level by level,
///
///   PageRank            -> build_flow (flow.hpp)
///   FindBestCommunity   -> a SweepExecutor's sweeps over kernel.hpp
///   Convert2SuperNode   -> contract_network (flow.hpp)
///   UpdateMembers       -> composition of level partitions
///
/// Only the FindBestCommunity sweep differs between serial, threaded and
/// distributed runs, so the loop (MultilevelRun / run_levels, infomap.cpp)
/// is written once and takes a SweepExecutor:
///
///   SerialExecutor (here): a worker span with interleaved windows, for
///     run_multilevel and run_infomap;
///   ProposeVerifyExecutor (infomap.cpp): OpenMP propose/verify rounds, for
///     run_infomap_parallel;
///   dist::SuperstepExecutor (dist/distributed.hpp): stale-snapshot
///     supersteps, for run_distributed_infomap and the live DCLUSTER steps.
///
/// Serial workers are (accumulator, event sink) pairs bound to one simulated
/// core; with a single NullSink-backed worker the loop is a plain fast
/// community detector, with CoreModel-backed workers it is the paper's
/// simulated Baseline or ASA configuration.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asamap/core/hierarchy.hpp"
#include "asamap/core/kernel.hpp"
#include "asamap/core/map_equation.hpp"
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
  const bool one_sided = fn.graph().one_sided();
  for (const VertexId s : seed) {
    if (s >= n) continue;
    active[s] = 1;
    for (const graph::Arc& a : fn.graph().out_neighbors(s)) active[a.dst] = 1;
    if (one_sided) continue;  // the in row is the out row
    for (const graph::Arc& a : fn.graph().in_neighbors(s)) active[a.dst] = 1;
  }
}

/// A simulated core's view of the computation.
template <FlowAccumulator Acc, sim::EventSink Sink>
struct Worker {
  Acc* acc = nullptr;
  Sink* sink = nullptr;
};

/// True once another thread has set InfomapOptions::cancel.
inline bool cancel_requested(const InfomapOptions& opts) {
  return opts.cancel && opts.cancel->load(std::memory_order_relaxed);
}

/// One level of the multilevel loop as a sweep executor sees it: the level's
/// network, its module state (swept in place), and where to record.
struct LevelSweep {
  int level = 0;
  const FlowNetwork& fn;
  ModuleState& state;
  const LevelAddresses& addrs;
  /// Non-null on the level-0 and refinement sweeps of a seeded warm run: the
  /// first sweep activates only these vertices plus their 1-hop
  /// neighborhood instead of every vertex.
  const std::vector<VertexId>* seed = nullptr;
  const InfomapOptions& opts;
  const obs::KernelTimers& ktimers;
  InfomapResult& result;
};

/// How one level's FindBestCommunity sweeps run: the vertex schedule, the
/// recompute policy, the convergence and cancel checks, and the trace rows.
/// Everything else — PageRank, warm start, compaction, UpdateMembers,
/// Convert2SuperNode, the final codelength, refinement bookkeeping and
/// metrics — is the one level loop in MultilevelRun.  Dispatch is per level,
/// never per vertex.  Executors:
///   - SerialExecutor (below): a worker span with interleaved windows;
///   - ProposeVerifyExecutor (infomap.cpp), behind run_infomap_parallel;
///   - dist::SuperstepExecutor (dist/distributed.hpp): stale-snapshot
///     supersteps with message accounting.
class SweepExecutor {
 public:
  SweepExecutor() = default;
  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;
  virtual ~SweepExecutor() = default;
  /// Team size for the loop's UpdateMembers and Convert2SuperNode kernels.
  [[nodiscard]] virtual int threads() const { return 1; }
  /// Arms the per-level workspace for a level of `n` nodes; called before
  /// each sweep_level(), inside the loop's `level.setup` span.
  virtual void begin_level(VertexId /*n*/) {}
  /// Sweeps `lv.state` until convergence, opts.max_sweeps_per_level, or a
  /// cancel (which sets result.interrupted).  Leaves the state's aggregates
  /// recomputed from scratch.
  virtual void sweep_level(const LevelSweep& lv) = 0;
  /// The refinement pass: up to opts.refine_sweeps vertex-level sweeps of
  /// the original network, seeded with the final partition.  Returns the
  /// moves made; leaves the aggregates recomputed.
  virtual std::uint64_t refine(const LevelSweep& lv) = 0;
  /// Folds per-worker counters into the result once the run ends.
  virtual void fold(InfomapResult& /*result*/) {}
};

/// The multilevel loop's state between kernels.  run_levels drives it; the
/// live distributed tier (dist::ShardSession) steps it one protocol message
/// at a time.  Not copyable: kernel timers point into the owned result.
class MultilevelRun {
 public:
  /// PageRank kernel: builds the flow network over `g`, which it borrows —
  /// `g` must outlive the run.  Call begin_level() next.
  MultilevelRun(const graph::CsrGraph& g, const InfomapOptions& opts);
  MultilevelRun(const graph::CsrGraph&& g, const InfomapOptions& opts) = delete;
  MultilevelRun(const MultilevelRun&) = delete;
  MultilevelRun& operator=(const MultilevelRun&) = delete;

  /// Level setup, under one `level.setup` trace span: fresh module state
  /// for the current level (singletons, or the warm start partition at
  /// level 0), its simulated addresses, and `exec`'s per-level workspace.
  void begin_level(SweepExecutor& exec);
  /// The current level as an executor sees it.
  [[nodiscard]] LevelSweep current();
  /// Ends the current level: compacts its partition, runs UpdateMembers,
  /// then either contracts (Convert2SuperNode) and advances to the next
  /// level (true), or reports the hierarchy done (false).
  bool end_level(int threads);
  /// Communities of the level end_level() last compacted.
  [[nodiscard]] std::size_t level_communities() const { return communities_; }
  /// Final level-0 codelength, refinement with hierarchy re-basing, counter
  /// folding, and publish_run_metrics.  Ends the run.
  InfomapResult finish(SweepExecutor& exec);

  [[nodiscard]] const FlowNetwork& network() const { return *fn_; }
  [[nodiscard]] ModuleState& state() { return *state_; }

 private:
  InfomapOptions opts_;
  InfomapResult result_;
  obs::KernelTimers ktimers_;  // resolved once; spans open allocation-free
  // `original_` stays untouched for the final level-0 codelength and
  // refinement.  Level 0 reads it directly; contracted levels swap in the
  // owned supernode network — no O(E) FlowNetwork copy per run.
  FlowNetwork original_;
  FlowNetwork contracted_;
  const FlowNetwork* fn_ = nullptr;
  std::vector<VertexId> node_of_orig_;  ///< UpdateMembers: vertex -> node
  hashdb::AddressSpace addr_space_;     ///< fresh simulated regions per run
  LevelAddresses addrs_{};
  std::optional<ModuleState> state_;
  bool seeded_ = false;
  bool local_repair_ = false;
  int level_ = 0;
  std::size_t communities_ = 0;
};

/// The one multilevel Infomap level loop — PageRank, then per level
/// FindBestCommunity (through `exec`), UpdateMembers and Convert2SuperNode,
/// then the final codelength and refinement.
InfomapResult run_levels(const graph::CsrGraph& g, const InfomapOptions& opts,
                         SweepExecutor& exec);

/// Serial sweeps over an arbitrary worker set.  Vertices of each level are
/// range-partitioned across workers (HyPC-Map's distribution); blocks of
/// `interleave_block` vertices rotate across workers so a shared L3 in the
/// sink sees interleaved footprints.  Moves apply to the shared ModuleState
/// in processing order, so results are deterministic for a fixed worker
/// count.
template <FlowAccumulator Acc, sim::EventSink Sink>
class SerialExecutor final : public SweepExecutor {
 public:
  explicit SerialExecutor(std::span<Worker<Acc, Sink>> workers)
      : workers_(workers) {
    ASAMAP_CHECK(!workers.empty(), "need at least one worker");
  }

  void sweep_level(const LevelSweep& lv) override {
    const VertexId n = lv.fn.num_nodes();
    // Per-worker contiguous ranges.
    const std::uint32_t w = static_cast<std::uint32_t>(workers_.size());
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
    if (lv.seed != nullptr) seed_active_set(lv.fn, *lv.seed, active);

    double prev_codelength = lv.state.codelength();
    for (int sweep = 0; sweep < lv.opts.max_sweeps_per_level; ++sweep) {
      if (cancel_requested(lv.opts)) {
        lv.result.interrupted = true;
        break;
      }
      SweepTrace st;
      st.level = lv.level;
      st.sweep = sweep;
      support::WallTimer sweep_wall;
      std::vector<double> worker_cycles_before(w);
      for (std::uint32_t i = 0; i < w; ++i) {
        worker_cycles_before[i] = detail::cycles_of(*workers_[i].sink);
      }

      std::uint64_t moves = 0;
      {
        obs::KernelSpan span(lv.ktimers, obs::KernelPhase::kFindBestCommunity);
        // Interleaved windows across workers.
        bool any_left = true;
        std::vector<VertexId> cursor(range_begin);
        while (any_left) {
          any_left = false;
          for (std::uint32_t i = 0; i < w; ++i) {
            if (cursor[i] >= range_end[i]) continue;
            const VertexId stop =
                static_cast<VertexId>(std::min<std::uint64_t>(
                    std::uint64_t{cursor[i]} + lv.opts.interleave_block,
                    range_end[i]));
            moves += sweep_range(lv.state, lv.fn, cursor[i], stop,
                                 *workers_[i].acc, *workers_[i].sink, lv.addrs,
                                 costs_, lv.result.breakdown,
                                 lv.opts.time_wall, active.data(),
                                 next_active.data());
            cursor[i] = stop;
            if (cursor[i] < range_end[i]) any_left = true;
          }
        }
      }
      lv.state.recompute();  // shed incremental floating-point drift

      st.moves = moves;
      st.codelength = lv.state.codelength();
      st.wall_seconds = sweep_wall.seconds();
      double worst = 0.0;
      for (std::uint32_t i = 0; i < w; ++i) {
        const double dc =
            detail::cycles_of(*workers_[i].sink) - worker_cycles_before[i];
        if constexpr (requires { workers_[0].sink->config(); }) {
          worst = std::max(
              worst, dc / (workers_[i].sink->config().frequency_ghz * 1e9));
        }
      }
      st.sim_seconds = worst;
      lv.result.trace.push_back(st);

      if (moves == 0 || prev_codelength - lv.state.codelength() <
                            lv.opts.min_improvement_bits) {
        break;
      }
      prev_codelength = lv.state.codelength();
      active.swap(next_active);
      std::fill(next_active.begin(), next_active.end(), 0);
    }
  }

  std::uint64_t refine(const LevelSweep& lv) override {
    // Incremental runs confine refinement to the same seeded active set
    // (plus whatever the move wavefront reaches) — a full-vertex refinement
    // would erase the active-set speedup.
    const VertexId n = lv.fn.num_nodes();
    std::vector<std::uint8_t> refine_active;
    std::vector<std::uint8_t> refine_next;
    if (lv.seed != nullptr) {
      refine_active.assign(n, 0);
      refine_next.assign(n, 0);
      seed_active_set(lv.fn, *lv.seed, refine_active);
    }
    std::uint64_t refine_moves = 0;
    for (int sweep = 0; sweep < lv.opts.refine_sweeps; ++sweep) {
      if (cancel_requested(lv.opts)) {
        lv.result.interrupted = true;
        break;
      }
      std::uint64_t moves = 0;
      const std::uint32_t w = static_cast<std::uint32_t>(workers_.size());
      for (std::uint32_t i = 0; i < w; ++i) {
        const auto first = static_cast<VertexId>(std::uint64_t{n} * i / w);
        const auto last =
            static_cast<VertexId>(std::uint64_t{n} * (i + 1) / w);
        moves += sweep_range(lv.state, lv.fn, first, last, *workers_[i].acc,
                             *workers_[i].sink, lv.addrs, costs_,
                             lv.result.breakdown, lv.opts.time_wall,
                             lv.seed ? refine_active.data() : nullptr,
                             lv.seed ? refine_next.data() : nullptr);
      }
      lv.state.recompute();
      refine_moves += moves;
      if (moves == 0) break;
      if (lv.seed != nullptr) {
        refine_active.swap(refine_next);
        std::fill(refine_next.begin(), refine_next.end(), 0);
      }
    }
    return refine_moves;
  }

 private:
  std::span<Worker<Acc, Sink>> workers_;
  const KernelCosts costs_;
};

/// Multilevel Infomap over an arbitrary worker set (SerialExecutor).  With a
/// single NullSink-backed worker it is a plain fast community detector, with
/// CoreModel-backed workers it is the paper's simulated Baseline or ASA
/// configuration.
template <FlowAccumulator Acc, sim::EventSink Sink>
InfomapResult run_multilevel(const graph::CsrGraph& g,
                             const InfomapOptions& opts,
                             std::span<Worker<Acc, Sink>> workers) {
  SerialExecutor<Acc, Sink> exec(workers);
  return run_levels(g, opts, exec);
}

/// Which accumulation engine a convenience run should use.
///
/// kChained/kOpen/kAsa/kDense are the paper's *modeled* engines — they emit
/// sink events so simulated runs can cost every probe.  kFlat
/// (hashdb::FlatAccumulator) is the one native engine: uninstrumented and
/// cache-friendly, the default of both convenience drivers.
enum class AccumulatorKind { kChained, kOpen, kAsa, kDense, kFlat };

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
/// The accumulation engine is always the native kFlat; any other `kind` is
/// rejected (the instrumented engines' sinks are not thread-safe).
InfomapResult run_infomap_parallel(const graph::CsrGraph& g,
                                   const InfomapOptions& opts = {},
                                   int num_threads = 0,
                                   AccumulatorKind kind = AccumulatorKind::kFlat);

}  // namespace asamap::core
