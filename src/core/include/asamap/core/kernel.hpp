#pragma once

/// \file kernel.hpp
/// The FindBestCommunity kernel (Algorithms 1 and 2 of the paper), written
/// once and parameterized on the flow-accumulation engine:
///
///   - hashdb::ChainedAccumulator  -> Algorithm 1 (Baseline, software hash)
///   - asa::AsaAccumulator         -> Algorithm 2 (ASA accelerator)
///   - hashdb::OpenAccumulator,
///     core::DenseAccumulator      -> ablations
///
/// Per vertex the kernel
///   1. accumulates link flow to/from neighboring modules through the
///      accumulator (the paper's "HashOperations" phase),
///   2. materializes the (module, flow) pairs,
///   3. scans them computing the code-length delta per candidate module and
///      greedily applies the best improving move.
/// Every step emits instruction/branch/memory events to the sink, and the
/// kernel attributes cycles and wall time to HashOperations vs the rest so
/// the Fig. 2b / Table V / Fig. 7 breakdowns fall out directly.
///
/// Native fast path.  On a mirrored network (FlowNetwork::mirrored(): every
/// undirected input) the in pass of step 1 repeats the out pass, so an
/// engine with trail replay (FlatAccumulator) hashes each row once and
/// replays the in side's adds in order; the modelled engines hash both
/// passes.  Step 3 runs ModuleState's inline source/target delta split,
/// which reuses plogp values exactly (map_equation.hpp).  Both keep every
/// result bit for bit, and the simulated event stream is unchanged.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>

#include "asamap/core/map_equation.hpp"
#include "asamap/hashdb/accumulator_concept.hpp"
#include "asamap/hashdb/address_space.hpp"
#include "asamap/hashdb/kv.hpp"
#include "asamap/sim/event_sink.hpp"
#include "asamap/support/timer.hpp"

namespace asamap::core {

/// The flow accumulator is the shared key/value accumulation concept (see
/// hashdb/accumulator_concept.hpp) — the same engines also drive the
/// SpGEMM kernel in spgemm/.
template <typename A>
concept FlowAccumulator = hashdb::KvAccumulator<A>;

/// An accumulator that can repeat its recorded calls with new values
/// (hashdb::FlatAccumulator).  On a mirrored network evaluate_move then
/// hashes each row once; every other engine hashes both passes, so the
/// simulated configurations price both.
template <typename A>
concept TrailReplay = requires(A a, std::uint32_t k, double v,
                               std::span<const double> values) {
  { a.accumulate_traced(k, v) };
  { a.replay(values) };
};

/// Simulated base addresses of the per-level shared arrays the kernel
/// touches.  CSR arc scans are sequential (stream loads); the module-id
/// gather per neighbor is the kernel's intrinsic random access.
struct LevelAddresses {
  std::uint64_t out_arcs = 0;    ///< 16 B per arc (dst, weight/flow)
  std::uint64_t in_arcs = 0;
  std::uint64_t module_of = 0;   ///< 4 B per node
  /// 48 B per module (flow/exit aggregates): the paper baseline's module
  /// record.  The native ModuleState packs a 64 B line with cached plogp
  /// terms; the simulated footprint deliberately keeps the baseline's.
  std::uint64_t module_agg = 0;
  std::uint64_t pair_scan = 0;   ///< materialized (module, flow) pairs

  static LevelAddresses for_network(const FlowNetwork& fn,
                                    hashdb::AddressSpace& addrs) {
    LevelAddresses a;
    a.out_arcs = addrs.alloc_array(fn.graph().num_arcs() * 16);
    a.in_arcs = addrs.alloc_array(fn.graph().num_arcs() * 16);
    a.module_of = addrs.alloc_array(std::uint64_t{fn.num_nodes()} * 4);
    a.module_agg = addrs.alloc_array(std::uint64_t{fn.num_nodes()} * 48);
    a.pair_scan = addrs.alloc_array(1ULL << 20);
    return a;
  }
};

/// Instruction costs of the non-accumulation work, identical across
/// accumulator variants so the comparison isolates the hash machinery.
struct KernelCosts {
  std::uint32_t per_vertex = 12;     ///< loop control, setup
  std::uint32_t per_link = 3;        ///< flow multiply + accumulate setup
  std::uint32_t per_scan_pair = 2;   ///< current-module pre-scan step
  /// calc(): several plogp/log2 calls.  Prices the paper baseline's full
  /// evaluation per candidate, not the native code's hoisted source terms
  /// and cached target terms.
  std::uint32_t per_candidate = 80;
  std::uint32_t apply_move = 6;      ///< module bookkeeping update
};

/// Cycle/wall attribution between the accumulation ("HashOperations") phase
/// and the decision phase, plus move counters.
struct KernelBreakdown {
  double hash_cycles = 0.0;
  double other_cycles = 0.0;
  double hash_seconds = 0.0;   ///< native wall time (when timing enabled)
  double other_seconds = 0.0;
  std::uint64_t vertices = 0;
  std::uint64_t moves = 0;
  std::uint64_t accumulate_calls = 0;
  // Parallel propose/verify driver only (zero elsewhere): improving
  // proposals recorded by the parallel phase, and how the serial verify
  // settled each one — an O(1) replay of the recorded flows, or a full
  // re-accumulation because a neighbor moved since the round's snapshot.
  // Every proposal is settled exactly once: proposals == replays +
  // revalidations.
  std::uint64_t proposals = 0;
  std::uint64_t replays = 0;
  std::uint64_t revalidations = 0;

  KernelBreakdown& operator+=(const KernelBreakdown& o) noexcept {
    hash_cycles += o.hash_cycles;
    other_cycles += o.other_cycles;
    hash_seconds += o.hash_seconds;
    other_seconds += o.other_seconds;
    vertices += o.vertices;
    moves += o.moves;
    accumulate_calls += o.accumulate_calls;
    proposals += o.proposals;
    replays += o.replays;
    revalidations += o.revalidations;
    return *this;
  }

  [[nodiscard]] double total_cycles() const noexcept {
    return hash_cycles + other_cycles;
  }
};

/// How many arcs ahead the accumulation loops prefetch the neighbor's
/// module-id slot.  The module gather is the kernel's intrinsic random
/// access (the arc stream itself is sequential and covered by the hardware
/// prefetcher); issuing the load a few arcs early hides most of its
/// latency.  Published as `asamap_kernel_prefetch_distance`.
inline constexpr std::size_t kModulePrefetchDistance = 4;

#if defined(__GNUC__) || defined(__clang__)
#define ASAMAP_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#else
#define ASAMAP_PREFETCH_READ(addr) ((void)0)
#endif

namespace detail {

template <typename Sink>
double cycles_of(const Sink& sink) {
  if constexpr (requires { sink.cycles(); }) {
    return sink.cycles();
  } else {
    return 0.0;
  }
}

}  // namespace detail

/// Outcome of evaluating one vertex's candidate moves.
struct MoveProposal {
  VertexId target = 0;
  double delta = 0.0;  ///< code-length change in bits (negative = better)
  ModuleState::MoveFlows flows;
  [[nodiscard]] bool improving(VertexId current) const noexcept {
    return target != current && delta < -1e-15;
  }
};

/// Evaluates the best community for one vertex/supernode without mutating
/// state: the accumulation + decision scan of Algorithms 1/2.  Shared by the
/// sequential driver (which then applies) and the parallel proposal phase.
template <FlowAccumulator Acc, sim::EventSink Sink>
MoveProposal evaluate_move(const ModuleState& state, const FlowNetwork& fn,
                           VertexId v, Acc& acc, Sink& sink,
                           const LevelAddresses& addrs,
                           const KernelCosts& costs,
                           KernelBreakdown& breakdown,
                           bool time_wall = false) {
  const graph::CsrGraph& g = fn.graph();
  ++breakdown.vertices;

  // One timer, armed only when the caller wants the hash/other wall split:
  // an unconditional WallTimer costs two clock reads per vertex, which is
  // real money at millions of low-degree vertices per sweep.
  support::WallTimer wall{support::WallTimer::Disarmed{}};
  if (time_wall) wall.reset();
  const double cycles_before = detail::cycles_of(sink);
  const VertexId* const modules = state.assignment().data();

  // --- Accumulation phase (Alg. 1 lines 4-14 / Alg. 2 lines 5-13): scan
  // the adjacency, gather each neighbor's module id, and accumulate the arc
  // flow.  The scan and the module-id gather cost the same under every
  // engine; "HashOperations" (the quantity of Fig. 2b / Tab. V) is the
  // accumulate/materialize machinery itself — per-call cycle snapshots
  // attribute exactly that.
  double hash_cycles = 0.0;
  // One side of the adjacency: per arc, the simulated arc stream and
  // module-id loads, then `add(module, flow)` timed as HashOperations.
  const auto scan_side = [&](std::span<const graph::Arc> arcs,
                             std::uint64_t arc_addrs, std::size_t base,
                             const double* flow, auto&& add) {
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (i + kModulePrefetchDistance < arcs.size()) {
        ASAMAP_PREFETCH_READ(modules + arcs[i + kModulePrefetchDistance].dst);
      }
      sink.load_stream(arc_addrs + (base + i) * 16, 16);
      sink.load(addrs.module_of + std::uint64_t{arcs[i].dst} * 4, 4);
      sink.instructions(costs.per_link);
      const double t0 = detail::cycles_of(sink);
      add(modules[arcs[i].dst], flow[base + i]);
      hash_cycles += detail::cycles_of(sink) - t0;
    }
    breakdown.accumulate_calls += arcs.size();
  };
  const std::size_t out_base = static_cast<std::size_t>(g.out_offset(v));
  const auto out_arcs = g.out_neighbors(v);
  acc.begin();
  bool replayed = false;
  if constexpr (TrailReplay<Acc>) {
    if (fn.mirrored()) {
      // The in row and its flows are the out row and its flows, so the in
      // pass would hash the same keys again.  Hash once, recording each
      // arc's pair, then replay the in pass's adds along that trail: the
      // same additions in the same order as two hashed passes (a doubled
      // single pass would not be, since S + o1 + ... + ok != 2S in floating
      // point).  The in side's arc stream and adds are still priced and
      // counted.
      scan_side(out_arcs, addrs.out_arcs, out_base, fn.out_flow.data(),
                [&acc](VertexId m, double f) { acc.accumulate_traced(m, f); });
      for (std::size_t i = 0; i < out_arcs.size(); ++i) {
        sink.load_stream(addrs.in_arcs + (out_base + i) * 16, 16);
        sink.load(addrs.module_of + std::uint64_t{out_arcs[i].dst} * 4, 4);
        sink.instructions(costs.per_link);
      }
      const double t0 = detail::cycles_of(sink);
      acc.replay(std::span(fn.out_flow).subspan(out_base, out_arcs.size()));
      hash_cycles += detail::cycles_of(sink) - t0;
      breakdown.accumulate_calls += out_arcs.size();
      replayed = true;
    }
  }
  if (!replayed) {
    const auto accumulate = [&acc](VertexId m, double f) {
      acc.accumulate(m, f);
    };
    scan_side(out_arcs, addrs.out_arcs, out_base, fn.out_flow.data(),
              accumulate);
    // On a one-sided graph these are the out row again, still warm.
    scan_side(g.in_neighbors(v), addrs.in_arcs,
              static_cast<std::size_t>(g.in_offset(v)), fn.in_flow().data(),
              accumulate);
  }
  const double t_finalize = detail::cycles_of(sink);
  const std::span<const hashdb::KeyValue> pairs = acc.finalize();
  hash_cycles += detail::cycles_of(sink) - t_finalize;

  breakdown.hash_cycles += hash_cycles;
  breakdown.other_cycles +=
      detail::cycles_of(sink) - cycles_before - hash_cycles;
  if (time_wall) {
    breakdown.hash_seconds += wall.seconds();
    wall.reset();  // re-arm for the decision phase
  }
  const double cycles_mid = detail::cycles_of(sink);

  // --- Decision phase (Alg. 1 lines 15-25 / Alg. 2 line 14).
  // Pre-scan for the flow between v and its current module, needed by every
  // delta evaluation.  Pair values hold out+in flow combined; the symmetric
  // flow models used here split it evenly (exact for undirected networks).
  // The scan is branch-free (a predicated add — each key appears at most
  // once, so adding the masked value equals selecting it), which lets the
  // compiler vectorize it once the sink calls compile away (NullSink).
  sink.instructions(costs.per_vertex);
  const VertexId current = state.module_of(v);
  double flow_current = 0.0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    sink.instructions(costs.per_scan_pair);
    sink.load_stream(addrs.pair_scan + i * 16, 16);
    const bool is_current = pairs[i].key == current;
    sink.branch(sim::sites::kScanLoop, is_current);
    flow_current += is_current ? pairs[i].value : 0.0;
  }

  ModuleState::MoveFlows best_flows;
  best_flows.out_to_current = flow_current / 2.0;
  best_flows.in_from_current = flow_current / 2.0;

  // Ties within kTieBits are broken toward the smaller module id.  This
  // keeps decisions identical across accumulation engines, whose different
  // pair orders (bucket order vs CAM scan order vs sorted) and different
  // floating-point summation orders would otherwise flip coin-toss ties.
  constexpr double kTieBits = 1e-12;
  double best_delta = 0.0;
  VertexId best_module = current;
  // The old-module side of the delta is the same for every candidate.
  const ModuleState::SourceTerms src = state.source_terms(v, best_flows);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Each candidate's module line is the decision phase's random access;
    // fetch it a few pairs ahead, as the accumulation loops do for ids.
    if (i + kModulePrefetchDistance < pairs.size()) {
      ASAMAP_PREFETCH_READ(
          &state.module_agg(pairs[i + kModulePrefetchDistance].key));
    }
    const VertexId target = pairs[i].key;
    if (target == current) continue;
    sink.instructions(costs.per_candidate);
    sink.load_stream(addrs.pair_scan + i * 16, 16);
    // The delta evaluation reads the candidate module's aggregates (flow,
    // exit, counts) — a data-dependent gather over the module table that
    // both Algorithm 1 and Algorithm 2 pay identically.
    sink.load(addrs.module_agg + std::uint64_t{target} * 48, 48);
    ModuleState::MoveFlows f = best_flows;
    f.out_to_target = pairs[i].value / 2.0;
    f.in_from_target = pairs[i].value / 2.0;
    const double delta = state.delta_to(src, v, target, f);
    const bool better = delta < best_delta - kTieBits;
    const bool tie_preferred = !better && delta < best_delta + kTieBits &&
                               best_module != current &&
                               target < best_module;
    const bool improved = better || tie_preferred;
    sink.branch(sim::sites::kBestUpdate, improved);
    if (improved) {
      best_delta = std::min(best_delta, delta);
      best_module = target;
      best_flows.out_to_target = f.out_to_target;
      best_flows.in_from_target = f.in_from_target;
    }
  }

  breakdown.other_cycles += detail::cycles_of(sink) - cycles_mid;
  if (time_wall) breakdown.other_seconds += wall.seconds();

  MoveProposal proposal;
  proposal.target = best_module;
  proposal.delta = best_delta;
  proposal.flows = best_flows;
  return proposal;
}

/// Runs FindBestCommunity for one vertex/supernode: Algorithm 1/2 depending
/// on the accumulator.  Applies the best improving move to `state` and
/// returns whether a move happened.
template <FlowAccumulator Acc, sim::EventSink Sink>
bool find_best_community(ModuleState& state, const FlowNetwork& fn, VertexId v,
                         Acc& acc, Sink& sink, const LevelAddresses& addrs,
                         const KernelCosts& costs, KernelBreakdown& breakdown,
                         bool time_wall = false) {
  const MoveProposal p = evaluate_move(state, fn, v, acc, sink, addrs, costs,
                                       breakdown, time_wall);
  if (!p.improving(state.module_of(v))) return false;
  const double cycles_before_apply = detail::cycles_of(sink);
  sink.instructions(costs.apply_move);
  sink.store(addrs.module_of + std::uint64_t{v} * 4, 4);
  // Both modules' aggregates are rewritten.
  sink.store(addrs.module_agg + std::uint64_t{state.module_of(v)} * 48, 48);
  sink.store(addrs.module_agg + std::uint64_t{p.target} * 48, 48);
  state.apply_move(v, p.target, p.flows);
  breakdown.other_cycles += detail::cycles_of(sink) - cycles_before_apply;
  ++breakdown.moves;
  return true;
}

/// Marks v and its neighborhood for re-evaluation next sweep.  A one-sided
/// graph's in row is its out row, so only two-sided graphs walk both.
inline void mark_neighborhood(const FlowNetwork& fn, VertexId v,
                              std::uint8_t* next_active) {
  next_active[v] = 1;
  for (const graph::Arc& arc : fn.graph().out_neighbors(v)) {
    next_active[arc.dst] = 1;
  }
  if (fn.graph().one_sided()) return;
  for (const graph::Arc& arc : fn.graph().in_neighbors(v)) {
    next_active[arc.dst] = 1;
  }
}

/// One sweep over [first, last): greedily moves each vertex to its best
/// module.  Returns the number of moves.
///
/// Active-set pruning (the standard RelaxMap/HyPC-Map optimization, and the
/// reason the paper's per-iteration times in Tables III/IV fall so steeply):
/// when `active` is non-null, vertices whose flag is clear are skipped, and
/// each applied move marks the mover's neighborhood in `next_active` for the
/// following sweep.
template <FlowAccumulator Acc, sim::EventSink Sink>
std::uint64_t sweep_range(ModuleState& state, const FlowNetwork& fn,
                          VertexId first, VertexId last, Acc& acc, Sink& sink,
                          const LevelAddresses& addrs, const KernelCosts& costs,
                          KernelBreakdown& breakdown, bool time_wall = false,
                          const std::uint8_t* active = nullptr,
                          std::uint8_t* next_active = nullptr) {
  std::uint64_t moves = 0;
  for (VertexId v = first; v < last; ++v) {
    if (active != nullptr && !active[v]) continue;
    if (find_best_community(state, fn, v, acc, sink, addrs, costs, breakdown,
                            time_wall)) {
      ++moves;
      if (next_active != nullptr) mark_neighborhood(fn, v, next_active);
    }
  }
  return moves;
}

}  // namespace asamap::core
