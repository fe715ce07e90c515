#include "asamap/core/infomap.hpp"

#include <omp.h>

#include <algorithm>

#include "asamap/asa/accumulator.hpp"
#include "asamap/core/dense_accumulator.hpp"
#include "asamap/hashdb/flat_accumulator.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/support/parallel.hpp"

namespace asamap::core {

namespace {

template <typename Acc>
InfomapResult run_single(const graph::CsrGraph& g, const InfomapOptions& opts,
                         Acc& acc, sim::NullSink& sink) {
  Worker<Acc, sim::NullSink> worker{&acc, &sink};
  return run_multilevel(g, opts, std::span(&worker, 1));
}

/// Everything the parallel driver's FindBestCommunity needs, allocated once
/// at level-0 size and reused across sweeps, levels, and the refinement
/// pass.  Per-thread entries are cache-line padded — the proposal loop
/// updates its thread's accumulator and breakdown on every vertex, and
/// without padding those updates would ping-pong shared lines.
/// Parameterized on the native accumulation engine (FlatAccumulator or
/// HotSetAccumulator — both uninstrumented and bitwise-equivalent).
template <typename Acc>
struct ParallelWorkspace {
  int threads = 1;

  // Shared per-vertex buffers (indexed by current-level node id).
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> next_active;
  std::vector<std::uint8_t> flagged;       ///< has a recorded proposal
  std::vector<MoveProposal> proposals;     ///< phase-1 output per vertex
  std::vector<std::uint64_t> stamp;        ///< epoch of last neighborhood change

  // Per-thread state, shard-per-thread with a post-region fold
  // (obs::PerThread replaces the hand-rolled CacheAligned vectors plus
  // ad-hoc merge loops this driver used to carry).
  std::vector<support::CacheAligned<Acc>> accs;
  obs::PerThread<KernelBreakdown> breakdowns;
  obs::PerThread<double> propose_seconds;

  ParallelWorkspace(int num_threads, VertexId n)
      : threads(num_threads),
        active(n, 1),
        next_active(n, 0),
        flagged(n, 0),
        proposals(n),
        stamp(n, 0),
        accs(static_cast<std::size_t>(num_threads)),
        breakdowns(num_threads),
        propose_seconds(num_threads) {}

  /// Re-arms the first n entries for a fresh level or refinement pass.
  void reset(VertexId n) {
    std::fill_n(active.begin(), n, std::uint8_t{1});
    std::fill_n(next_active.begin(), n, std::uint8_t{0});
    std::fill_n(flagged.begin(), n, std::uint8_t{0});
    std::fill_n(stamp.begin(), n, std::uint64_t{0});
  }

  /// Folds per-thread hot-set counters into `result` (no-op for engines
  /// without them, e.g. FlatAccumulator).
  void fold_hot_stats(InfomapResult& result) {
    if constexpr (requires(Acc& a) { a.hot_stats(); }) {
      for (auto& acc : accs) {
        result.hotset += acc->hot_stats();
        acc->reset_hot_stats();
      }
    } else {
      (void)result;
    }
  }
};

/// Vertices per propose/verify round.  A constant — never derived from the
/// thread count — so the round boundaries, and with them every decision,
/// are identical at any thread count.  Levels with n <= kRound run as one
/// round.  Small enough that most proposals are verified against a state
/// only a few hundred moves old (cheap O(1) replays, Gauss-Seidel-like
/// convergence); large enough that each round's parallel phase amortizes
/// its two barriers.
constexpr VertexId kRound = 1024;

/// Runs propose/verify sweeps on `state` until convergence or `max_sweeps`.
///
/// One OpenMP region spans *all* sweeps.  Each sweep walks the vertex ids in
/// fixed rounds of kRound vertices; per round:
///
///   Phase 1 (parallel): every active vertex of the round evaluates its best
///   move against the module state as of the round's start and records the
///   full proposal (target + boundary flows).
///   Phase 2 (serial, inside `omp single`): the round's proposals are
///   verified and applied in vertex order.  A proposal's flows are exact iff
///   no neighbor of the vertex moved since the round's snapshot — tracked
///   with per-vertex epoch stamps bumped on every applied move — in which
///   case the code-length delta is re-derived from live aggregates in O(1)
///   (a *replay*) and the move applies without touching the accumulator.
///   Only vertices whose neighborhood changed re-run the full accumulation
///   (a *revalidation*).
///
/// Later rounds propose against the moves of earlier ones, so a sweep is
/// close to a serial Gauss-Seidel pass and few proposals go stale.
/// Aggregates stay exact, the module state is maintained incrementally (no
/// per-sweep recompute), and the outcome is identical for every thread
/// count.
///
/// Returns total moves; appends per-sweep traces when `record_trace`.
/// When `seed` is non-null the first sweep activates only those vertices
/// plus their 1-hop neighborhood (the incremental re-sweep of a delta
/// batch) instead of every vertex; activation then propagates from movers
/// exactly as in the full case.
template <typename Acc>
std::uint64_t parallel_sweeps(ModuleState& state, const FlowNetwork& fn,
                              const InfomapOptions& opts, int max_sweeps,
                              int level, const LevelAddresses& addrs,
                              const KernelCosts& costs,
                              ParallelWorkspace<Acc>& ws,
                              InfomapResult& result, bool record_trace,
                              const std::vector<VertexId>* seed = nullptr) {
  const VertexId n = fn.num_nodes();
  ws.reset(n);
  if (seed != nullptr) seed_active_set(fn, *seed, ws.active);
  sim::NullSink sink;  // stateless: sharing across threads is race-free

  std::uint64_t epoch = 0;        // applied-move counter (phase 2 only)
  std::uint64_t total_moves = 0;
  std::uint64_t moves = 0;        // this sweep's moves (phase 2 only)
  double prev_codelength = state.codelength();
  bool done = false;
  support::WallTimer sweep_wall;  // reset by each sweep's last phase 2

  // End-of-sweep bookkeeping, run inside the last round's phase 2 so
  // `done` and `interrupted` stay single-writer.
  const auto end_sweep = [&](int sweep) {
    total_moves += moves;
    if (record_trace) {
      SweepTrace st;
      st.level = level;
      st.sweep = sweep;
      st.moves = moves;
      st.codelength = state.codelength();
      st.wall_seconds = sweep_wall.seconds();
      double worst = 0.0;
      ws.propose_seconds.fold(
          worst, [](double& w, double s) { w = std::max(w, s); });
      st.sim_seconds = worst;
      result.trace.push_back(st);
    }
    if (moves == 0 ||
        prev_codelength - state.codelength() < opts.min_improvement_bits) {
      done = true;
    }
    // Cooperative cancellation, checked once per sweep.
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
      done = true;
      result.interrupted = true;
    }
    prev_codelength = state.codelength();
    moves = 0;
    ws.active.swap(ws.next_active);
    std::fill_n(ws.next_active.begin(), n, std::uint8_t{0});
    sweep_wall.reset();  // next sweep measures from here
  };

  support::tsan_release(&ws);  // workspace + state: main -> team
#pragma omp parallel num_threads(ws.threads) default(shared)
  {
    support::tsan_acquire(&ws);
    const int tid = omp_get_thread_num();
    Acc& acc = *ws.accs[tid];
    KernelBreakdown& bd = ws.breakdowns.local(tid);
    double& propose_seconds = ws.propose_seconds.local(tid);

    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
      if (done) break;  // uniform: read after the end-of-sweep barrier
      propose_seconds = 0.0;

      VertexId lo = 0;
      do {  // one round even when n == 0, so the sweep still ends
        const VertexId hi = lo + std::min(kRound, n - lo);

        support::WallTimer propose_wall;
        // Phase 1: propose against the round's snapshot.  RelaxMap-style
        // relaxed reads are safe because nothing mutates state here, and
        // each iteration writes only its own vertex's slots.
#pragma omp for schedule(dynamic, 64) nowait
        for (std::int64_t vi = lo; vi < static_cast<std::int64_t>(hi); ++vi) {
          const auto v = static_cast<VertexId>(vi);
          if (!ws.active[v]) continue;
          const MoveProposal p = evaluate_move(state, fn, v, acc, sink, addrs,
                                               costs, bd, opts.time_wall);
          if (p.improving(state.module_of(v))) {
            ws.proposals[v] = p;
            ws.flagged[v] = 1;
            ++bd.proposals;
          }
        }
        propose_seconds += propose_wall.seconds();
        support::omp_barrier_sync(&ws);  // phase-1 writes -> phase-2 reads

#pragma omp single nowait
        {
          const std::uint64_t snapshot = epoch;
          // Phase 2: verify and apply serially in vertex order — exact and
          // deterministic regardless of thread count.
          for (VertexId v = lo; v < hi; ++v) {
            if (!ws.flagged[v]) continue;
            ws.flagged[v] = 0;
            bool moved = false;
            if (ws.stamp[v] <= snapshot) {
              // Neighborhood untouched since the snapshot: the recorded
              // flows are exact; only the delta needs refreshing (other
              // modules' aggregates moved under us), which is O(1).
              ++result.breakdown.replays;
              const MoveProposal& p = ws.proposals[v];
              if (p.target != state.module_of(v) &&
                  state.delta_move(v, p.target, p.flows) < -1e-15) {
                state.apply_move(v, p.target, p.flows);
                ++result.breakdown.moves;
                moved = true;
              }
            } else {
              // A neighbor moved: flows are stale, re-run the accumulator
              // (this thread's own, idle until the next round).
              ++result.breakdown.revalidations;
              moved = find_best_community(state, fn, v, acc, sink,
                                          addrs, costs, result.breakdown,
                                          opts.time_wall);
            }
            if (moved) {
              ++moves;
              ++epoch;
              ws.stamp[v] = epoch;
              ws.next_active[v] = 1;
              for (const graph::Arc& arc : fn.graph.out_neighbors(v)) {
                ws.stamp[arc.dst] = epoch;
                ws.next_active[arc.dst] = 1;
              }
              for (const graph::Arc& arc : fn.graph.in_neighbors(v)) {
                ws.stamp[arc.dst] = epoch;
                ws.next_active[arc.dst] = 1;
              }
            }
          }
          if (hi == n) end_sweep(sweep);
        }
        // The round's moves (and, after the last round, `done` and the
        // swapped active set) become visible to every thread before the
        // next round proposes against them.
        support::omp_barrier_sync(&ws);
        lo = hi;
      } while (lo < n);
    }
    // Team -> main: per-thread accumulators/breakdowns are folded after
    // the region, and libgomp's pool handoff is invisible to TSAN.
    support::omp_barrier_sync(&ws);
  }
  return total_moves;
}

}  // namespace

InfomapResult run_infomap(const graph::CsrGraph& g, const InfomapOptions& opts,
                          AccumulatorKind kind) {
  sim::NullSink sink;
  hashdb::AddressSpace addrs;
  switch (kind) {
    case AccumulatorKind::kFlat: {
      hashdb::FlatAccumulator acc;
      return run_single(g, opts, acc, sink);
    }
    case AccumulatorKind::kHotSet: {
      hashdb::HotSetAccumulator acc;
      return run_single(g, opts, acc, sink);
    }
    case AccumulatorKind::kOpen: {
      hashdb::OpenAccumulator<sim::NullSink> acc(sink, addrs);
      return run_single(g, opts, acc, sink);
    }
    case AccumulatorKind::kAsa: {
      asa::Cam cam;
      asa::AsaAccumulator<sim::NullSink> acc(sink, cam, addrs);
      return run_single(g, opts, acc, sink);
    }
    case AccumulatorKind::kDense: {
      DenseAccumulator<sim::NullSink> acc(sink, addrs, g.num_vertices());
      return run_single(g, opts, acc, sink);
    }
    case AccumulatorKind::kChained:
      break;
  }
  hashdb::ChainedAccumulator<sim::NullSink> acc(sink, addrs);
  return run_single(g, opts, acc, sink);
}

namespace {

/// The parallel driver body, parameterized on the native engine.
template <typename Acc>
InfomapResult run_parallel_impl(const graph::CsrGraph& g,
                                const InfomapOptions& opts, int num_threads) {
  InfomapResult result;
  // Resolve every kernel-span sink (timer slots + histogram handles) once;
  // the spans in the level loop then open/close allocation-free.
  obs::KernelTimers ktimers(result.kernel_wall, opts.metrics);
  FlowNetwork original;
  {
    obs::KernelSpan span(ktimers, obs::KernelPhase::kPageRank);
    original = build_flow(g, opts.flow);
  }
  // Level-0 reads `original` directly; contracted levels swap in the owned
  // supernode network.  Saves a full O(E) FlowNetwork copy per run.
  FlowNetwork contracted;
  const FlowNetwork* fn = &original;

  std::vector<VertexId> node_of_orig(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) node_of_orig[v] = v;

  result.one_level_codelength = one_level_codelength(original);

  const KernelCosts costs;
  hashdb::AddressSpace addrs_space;
  ParallelWorkspace<Acc> ws(num_threads, original.num_nodes());

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
    const LevelAddresses addrs = LevelAddresses::for_network(*fn, addrs_space);
    const VertexId n = fn->num_nodes();

    {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kFindBestCommunity);
      parallel_sweeps(state, *fn, opts, opts.max_sweeps_per_level, level,
                      addrs, costs, ws, result, /*record_trace=*/true,
                      level == 0 && seeded ? opts.active_seed : nullptr);
    }
    // Incremental aggregates carry the whole level; one recompute here
    // sheds the accumulated floating-point drift before the partition is
    // extracted (the seed recomputed every sweep — O(n) per sweep gone).
    state.recompute();

    Partition assignment = state.assignment();
    std::vector<VertexId> relabel(fn->num_nodes(), graph::kInvalidVertex);
    VertexId next_id = 0;
    for (VertexId v = 0; v < n; ++v) {
      VertexId& slot = relabel[assignment[v]];
      if (slot == graph::kInvalidVertex) slot = next_id++;
      assignment[v] = slot;
    }
    const std::size_t k = next_id;

    {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kUpdateMembers);
      const auto nv = static_cast<std::int64_t>(g.num_vertices());
      support::tsan_release(&node_of_orig);
#pragma omp parallel num_threads(num_threads)
      {
        support::tsan_acquire(&node_of_orig);
#pragma omp for schedule(static) nowait
        for (std::int64_t vi = 0; vi < nv; ++vi) {
          node_of_orig[vi] = assignment[node_of_orig[vi]];
        }
        support::omp_barrier_sync(&node_of_orig);
      }
    }

    result.level_assignments.push_back(assignment);
    result.codelength = state.codelength();
    result.levels = level + 1;
    if (level == 0 && local_repair) break;
    if (k == n || k <= 1) break;
    if (result.interrupted) break;

    {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kConvert2SuperNode);
      contracted = contract_network_parallel(*fn, assignment, k, num_threads);
      fn = &contracted;
    }
  }

  result.communities = std::move(node_of_orig);
  result.num_communities = compact_communities(result.communities);
  if (local_repair) {
    // The level-0 state lived on the original network and was recomputed
    // after its last sweep, so result.codelength already holds the true
    // two-level value — no final re-evaluation, and the level-0 re-sweep
    // already converged over the active set, so refinement would only
    // re-walk the same vertices.
  } else {
    // True level-0 codelength of the final partition (coarse-level values
    // omit the leaf-entropy constant; see run_multilevel).
    ModuleState final_state(original, result.communities,
                            result.num_communities);
    result.codelength = final_state.codelength();

    // Refinement (fine-tuning), same propose/verify scheme on the original
    // network seeded with the final partition — see run_multilevel for the
    // rationale and the hierarchy re-basing rule.
    if (opts.refine_sweeps > 0 && result.levels > 1 &&
        result.num_communities > 1 && !result.interrupted) {
      obs::KernelSpan span(ktimers, obs::KernelPhase::kFindBestCommunity);
      const LevelAddresses addrs =
          LevelAddresses::for_network(original, addrs_space);
      // Incremental runs confine refinement to the seeded active set too —
      // a full-vertex refinement would erase the active-set speedup.
      const std::uint64_t refine_moves = parallel_sweeps(
          final_state, original, opts, opts.refine_sweeps, result.levels,
          addrs, costs, ws, result, /*record_trace=*/false,
          seeded ? opts.active_seed : nullptr);
      final_state.recompute();
      if (refine_moves > 0 && final_state.codelength() < result.codelength) {
        Partition flat = final_state.assignment();
        result.num_communities = compact_communities(flat);
        result.communities = flat;
        result.codelength = final_state.codelength();
        result.level_assignments = {std::move(flat)};
      }
    }
  }

  // Fold the per-thread proposal-phase breakdowns into the result (the
  // serial verify/apply phase charged result.breakdown directly).
  ws.breakdowns.fold(result.breakdown,
                     [](KernelBreakdown& into, const KernelBreakdown& bd) {
                       into += bd;
                     });
  ws.fold_hot_stats(result);
  publish_run_metrics(result, opts.metrics);
  return result;
}

}  // namespace

InfomapResult run_infomap_parallel(const graph::CsrGraph& g,
                                   const InfomapOptions& opts, int num_threads,
                                   AccumulatorKind kind) {
  if (num_threads <= 0) num_threads = omp_get_max_threads();
  ASAMAP_CHECK(
      kind == AccumulatorKind::kFlat || kind == AccumulatorKind::kHotSet,
      "run_infomap_parallel supports only the native engines (flat/hotset); "
      "instrumented kinds need the sequential simulated driver");
  return kind == AccumulatorKind::kFlat
             ? run_parallel_impl<hashdb::FlatAccumulator>(g, opts, num_threads)
             : run_parallel_impl<hashdb::HotSetAccumulator>(g, opts,
                                                            num_threads);
}

}  // namespace asamap::core
