#include "asamap/core/infomap.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <numeric>

#include "asamap/asa/accumulator.hpp"
#include "asamap/core/dense_accumulator.hpp"
#include "asamap/hashdb/flat_accumulator.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/support/parallel.hpp"

namespace asamap::core {

namespace {

/// Publishes one finished run's summary counters and gauges into `reg`
/// (no-op when null), under the same names for every executor; kernel-phase
/// histograms are recorded live by obs::KernelSpan, not here.
void publish_run_metrics(const InfomapResult& result,
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
}

}  // namespace

// --- The level loop --------------------------------------------------------

MultilevelRun::MultilevelRun(const graph::CsrGraph& g,
                             const InfomapOptions& opts)
    : opts_(opts), ktimers_(result_.kernel_wall, opts.metrics) {
  {
    obs::KernelSpan span(ktimers_, obs::KernelPhase::kPageRank);
    original_ = build_flow(g, opts_.flow);
  }
  fn_ = &original_;
  node_of_orig_.resize(g.num_vertices());
  std::iota(node_of_orig_.begin(), node_of_orig_.end(), VertexId{0});
  // The proper one-level codelength is the entropy of node visit rates; a
  // single module with zero exit gives exactly that.
  result_.one_level_codelength = one_level_codelength(original_);

  seeded_ = opts_.warm_start != nullptr && opts_.active_seed != nullptr;
  // Local repair (see InfomapOptions::warm_local_repair_fraction): a small
  // seeded perturbation converges at level 0; the coarse hierarchy the warm
  // partition came from is still valid, so skip rebuilding it.
  local_repair_ = seeded_ && opts_.warm_local_repair_fraction > 0.0 &&
                  static_cast<double>(opts_.active_seed->size()) <=
                      opts_.warm_local_repair_fraction *
                          static_cast<double>(g.num_vertices());
}

void MultilevelRun::begin_level(SweepExecutor& exec) {
  obs::TraceSpan span("level.setup", obs::TraceCat::kKernel);
  if (level_ == 0 && opts_.warm_start != nullptr) {
    ASAMAP_CHECK(opts_.warm_start->size() == fn_->num_nodes(),
                 "warm_start must have one entry per vertex");
    Partition init = *opts_.warm_start;
    const std::size_t k = compact_communities(init);
    state_.emplace(*fn_, init, k);
  } else {
    state_.emplace(*fn_);
  }
  if (level_ == 0) result_.initial_codelength = state_->codelength();
  addrs_ = LevelAddresses::for_network(*fn_, addr_space_);
  exec.begin_level(fn_->num_nodes());
}

LevelSweep MultilevelRun::current() {
  const std::vector<VertexId>* seed =
      level_ == 0 && seeded_ ? opts_.active_seed : nullptr;
  return {level_, *fn_, *state_, addrs_, seed, opts_, ktimers_, result_};
}

bool MultilevelRun::end_level(int threads) {
  const VertexId n = fn_->num_nodes();
  Partition assignment = state_->assignment();
  communities_ = compact_communities(assignment);

  // UpdateMembers kernel: propagate to original vertices.
  {
    obs::KernelSpan span(ktimers_, obs::KernelPhase::kUpdateMembers);
    const auto nv = static_cast<std::int64_t>(node_of_orig_.size());
    support::tsan_release(&node_of_orig_);
#pragma omp parallel num_threads(threads)
    {
      support::tsan_acquire(&node_of_orig_);
#pragma omp for schedule(static) nowait
      for (std::int64_t vi = 0; vi < nv; ++vi) {
        node_of_orig_[vi] = assignment[node_of_orig_[vi]];
      }
      support::omp_barrier_sync(&node_of_orig_);
    }
  }

  result_.level_assignments.push_back(assignment);
  result_.codelength = state_->codelength();
  result_.levels = level_ + 1;
  if (level_ == 0 && local_repair_) return false;
  // No aggregation or fully merged: done.
  if (communities_ == n || communities_ <= 1) return false;
  if (result_.interrupted) return false;

  // Convert2SuperNode kernel.
  {
    obs::KernelSpan span(ktimers_, obs::KernelPhase::kConvert2SuperNode);
    contracted_ = contract_network(*fn_, assignment, communities_, threads);
    fn_ = &contracted_;
  }
  ++level_;
  return true;
}

InfomapResult MultilevelRun::finish(SweepExecutor& exec) {
  result_.communities = std::move(node_of_orig_);
  result_.num_communities = compact_communities(result_.communities);

  // --- Final codelength, evaluated over the *original* network.  The
  // coarse-level values recorded in the trace omit the (level-constant)
  // leaf-entropy term, so only a level-0 evaluation yields the true
  // two-level map-equation value of the final partition.  Local repair
  // skips both: its level-0 state lived on the original network and was
  // recomputed after its last sweep, so result.codelength already holds
  // the true value, and the seeded re-sweep converged over the active set,
  // so refinement would only re-walk the same vertices.
  if (!local_repair_) {
    ModuleState state(original_, result_.communities,
                      result_.num_communities);
    result_.codelength = state.codelength();

    // Refinement (fine-tuning): vertex-level sweeps seeded with the final
    // partition correct vertices that were dragged along with their
    // supernode into a suboptimal module.  Greedy moves only ever improve.
    if (opts_.refine_sweeps > 0 && result_.levels > 1 &&
        result_.num_communities > 1 && !result_.interrupted) {
      obs::KernelSpan span(ktimers_, obs::KernelPhase::kFindBestCommunity);
      const LevelAddresses addrs =
          LevelAddresses::for_network(original_, addr_space_);
      const std::uint64_t refine_moves = exec.refine(
          LevelSweep{result_.levels, original_, state, addrs,
                     seeded_ ? opts_.active_seed : nullptr, opts_, ktimers_,
                     result_});
      if (refine_moves > 0 && state.codelength() < result_.codelength) {
        // Adopt the refined partition; re-base the hierarchy to this flat
        // level (see the level_assignments doc comment).
        Partition flat = state.assignment();
        result_.num_communities = compact_communities(flat);
        result_.communities = flat;
        result_.codelength = state.codelength();
        result_.level_assignments = {std::move(flat)};
      }
    }
  }
  exec.fold(result_);
  publish_run_metrics(result_, opts_.metrics);
  return std::move(result_);
}

InfomapResult run_levels(const graph::CsrGraph& g, const InfomapOptions& opts,
                         SweepExecutor& exec) {
  MultilevelRun run(g, opts);
  for (int level = 0; level < opts.max_levels; ++level) {
    run.begin_level(exec);
    exec.sweep_level(run.current());
    if (!run.end_level(exec.threads())) break;
  }
  return run.finish(exec);
}

// --- Executors -------------------------------------------------------------

namespace {

template <typename Acc>
InfomapResult run_single(const graph::CsrGraph& g, const InfomapOptions& opts,
                         Acc& acc, sim::NullSink& sink) {
  Worker<Acc, sim::NullSink> worker{&acc, &sink};
  return run_multilevel(g, opts, std::span(&worker, 1));
}

/// Everything the propose/verify executor needs, allocated once at level-0
/// size and reused across sweeps, levels, and the refinement pass.
/// Per-thread entries are cache-line padded — the proposal loop updates its
/// thread's accumulator and breakdown on every vertex, and without padding
/// those updates would ping-pong shared lines.
struct ParallelWorkspace {
  int threads = 1;

  // Shared per-vertex buffers (indexed by current-level node id).
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> next_active;
  std::vector<std::uint8_t> flagged;       ///< has a recorded proposal
  std::vector<MoveProposal> proposals;     ///< phase-1 output per vertex

  // Per-thread state, shard-per-thread with a post-region fold
  // (obs::PerThread replaces the hand-rolled CacheAligned vectors plus
  // ad-hoc merge loops this driver used to carry).
  std::vector<support::CacheAligned<hashdb::FlatAccumulator>> accs;
  obs::PerThread<KernelBreakdown> breakdowns;
  obs::PerThread<double> propose_seconds;

  explicit ParallelWorkspace(int num_threads)
      : threads(num_threads),
        accs(static_cast<std::size_t>(num_threads)),
        breakdowns(num_threads),
        propose_seconds(num_threads) {}

  /// Re-arms the first n entries for a fresh level or refinement pass.  The
  /// first call (level 0, the largest level) sizes the buffers, after the
  /// flow build has released its temporaries.
  void reset(VertexId n) {
    if (active.size() < n) {
      active.resize(n);
      next_active.resize(n);
      flagged.resize(n);
      proposals.resize(n);
    }
    std::fill_n(active.begin(), n, std::uint8_t{1});
    std::fill_n(next_active.begin(), n, std::uint8_t{0});
    std::fill_n(flagged.begin(), n, std::uint8_t{0});
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

/// Runs propose/verify sweeps on `state` until convergence or `max_sweeps`,
/// from a workspace the caller has reset for this level.
///
/// One OpenMP region spans *all* sweeps.  Each sweep walks the vertex ids in
/// fixed rounds of kRound vertices; per round:
///
///   Phase 1 (parallel): every active vertex of the round evaluates its best
///   move against the module state as of the round's start and records the
///   full proposal (target + boundary flows).
///   Phase 2 (serial, inside `omp single`): the round's proposals are
///   verified and applied in vertex order.  A proposal's flows are exact iff
///   no neighbor of the vertex moved since the round's snapshot, in which
///   case the code-length delta is re-derived from live aggregates in O(1)
///   (a *replay*) and the move applies without touching the accumulator.
///   Only vertices whose neighborhood changed re-run the full accumulation
///   (a *revalidation*).  The conflict detector is a kRound-byte `touched`
///   map over the round's window [lo, hi), cleared each round: a move marks
///   the mover and those of its neighbors inside the window, since only the
///   window's later vertices are still to be verified this round (the
///   round-window conflict management of arXiv:1806.00751).
///
/// Later rounds propose against the moves of earlier ones, so a sweep is
/// close to a serial Gauss-Seidel pass and few proposals go stale.
/// Aggregates stay exact, the module state is maintained incrementally (no
/// per-sweep recompute), and the outcome is identical for every thread
/// count.
///
/// Returns total moves; appends per-sweep traces when `record_trace`.
/// When `lv.seed` is non-null the first sweep activates only those vertices
/// plus their 1-hop neighborhood (the incremental re-sweep of a delta
/// batch) instead of every vertex; activation then propagates from movers
/// exactly as in the full case.
std::uint64_t parallel_sweeps(const LevelSweep& lv, int max_sweeps,
                              const KernelCosts& costs, ParallelWorkspace& ws,
                              bool record_trace) {
  ModuleState& state = lv.state;
  const FlowNetwork& fn = lv.fn;
  const InfomapOptions& opts = lv.opts;
  const LevelAddresses& addrs = lv.addrs;
  InfomapResult& result = lv.result;
  const VertexId n = fn.num_nodes();
  if (lv.seed != nullptr) seed_active_set(fn, *lv.seed, ws.active);
  sim::NullSink sink;  // stateless: sharing across threads is race-free

  std::uint64_t total_moves = 0;
  std::uint64_t moves = 0;        // this sweep's moves (phase 2 only)
  double prev_codelength = state.codelength();
  bool done = false;
  const std::size_t traced_before = result.trace.size();
  support::WallTimer sweep_wall;  // reset by each sweep's last phase 2

  // End-of-sweep bookkeeping, run inside the last round's phase 2 so
  // `done` and `interrupted` stay single-writer.
  const auto end_sweep = [&](int sweep) {
    total_moves += moves;
    if (record_trace) {
      SweepTrace st;
      st.level = lv.level;
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
    if (cancel_requested(opts)) {
      done = true;
      result.interrupted = true;
    }
    prev_codelength = state.codelength();
    moves = 0;
    ws.active.swap(ws.next_active);
    std::fill_n(ws.next_active.begin(), n, std::uint8_t{0});
    sweep_wall.reset();  // next sweep measures from here
  };

  // Phase 2's conflict map: touched[v - lo] is set once v or a neighbor of
  // v moved in the current round.
  std::array<std::uint8_t, kRound> touched{};
  const bool one_sided = fn.graph().one_sided();

  support::tsan_release(&ws);  // workspace + state: main -> team
#pragma omp parallel num_threads(ws.threads) default(shared)
  {
    support::tsan_acquire(&ws);
    const int tid = omp_get_thread_num();
    hashdb::FlatAccumulator& acc = *ws.accs[tid];
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
          std::fill_n(touched.begin(), hi - lo, std::uint8_t{0});
          // Marks u for the next sweep and, when it lies in this round's
          // window, as touched.
          const auto touch = [&](VertexId u) {
            ws.next_active[u] = 1;
            if (u - lo < hi - lo) touched[u - lo] = 1;
          };
          // Phase 2: verify and apply serially in vertex order — exact and
          // deterministic regardless of thread count.
          for (VertexId v = lo; v < hi; ++v) {
            if (!ws.flagged[v]) continue;
            ws.flagged[v] = 0;
            bool moved = false;
            if (!touched[v - lo]) {
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
              touch(v);
              for (const graph::Arc& arc : fn.graph().out_neighbors(v)) {
                touch(arc.dst);
              }
              if (!one_sided) {
                for (const graph::Arc& arc : fn.graph().in_neighbors(v)) {
                  touch(arc.dst);
                }
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
  // The last sweep's row closed inside its phase 2; charge it the closing
  // barriers and the region exit too, so the sweep rows add up to the span
  // around this call.
  if (result.trace.size() > traced_before) {
    result.trace.back().wall_seconds += sweep_wall.seconds();
  }
  return total_moves;
}

/// Propose/verify executor (RelaxMap-style relaxed concurrency, made
/// deterministic): parallel_sweeps over one workspace reused by every level
/// and the refinement pass.
class ProposeVerifyExecutor final : public SweepExecutor {
 public:
  explicit ProposeVerifyExecutor(int threads) : ws_(threads) {}

  [[nodiscard]] int threads() const override { return ws_.threads; }

  void begin_level(VertexId n) override {
    ws_.reset(n);  // sizes the buffers at level 0
  }

  void sweep_level(const LevelSweep& lv) override {
    {
      obs::KernelSpan span(lv.ktimers, obs::KernelPhase::kFindBestCommunity);
      parallel_sweeps(lv, lv.opts.max_sweeps_per_level, costs_, ws_,
                      /*record_trace=*/true);
    }
    // Incremental aggregates carry the whole level; one recompute here
    // sheds the accumulated floating-point drift before the partition is
    // extracted.
    lv.state.recompute();
  }

  std::uint64_t refine(const LevelSweep& lv) override {
    ws_.reset(lv.fn.num_nodes());
    const std::uint64_t moves = parallel_sweeps(
        lv, lv.opts.refine_sweeps, costs_, ws_, /*record_trace=*/false);
    lv.state.recompute();
    return moves;
  }

  void fold(InfomapResult& result) override {
    // The per-thread proposal-phase breakdowns (the serial verify/apply
    // phase charged result.breakdown directly).
    ws_.breakdowns.fold(result.breakdown,
                        [](KernelBreakdown& into, const KernelBreakdown& bd) {
                          into += bd;
                        });
  }

 private:
  const KernelCosts costs_;
  ParallelWorkspace ws_;
};

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

InfomapResult run_infomap_parallel(const graph::CsrGraph& g,
                                   const InfomapOptions& opts, int num_threads,
                                   AccumulatorKind kind) {
  if (num_threads <= 0) num_threads = omp_get_max_threads();
  ASAMAP_CHECK(kind == AccumulatorKind::kFlat,
               "run_infomap_parallel supports only the native engine (flat); "
               "instrumented kinds need the sequential simulated driver");
  ProposeVerifyExecutor exec(num_threads);
  return run_levels(g, opts, exec);
}

}  // namespace asamap::core
