#pragma once

/// \file map_equation.hpp
/// The map equation (Rosvall & Bergstrom 2008) over a FlowNetwork, with
/// O(1) move evaluation — the `calc(outFlowToNewMod, inFlowFromMod)` of
/// Algorithm 1 line 20.
///
/// We use the standard expanded form (logs base 2, bits):
///
///   L(M) =  plogp(S)                      S = sum_i enter_i
///         - sum_i plogp(enter_i)
///         - sum_i plogp(exit_i)
///         + sum_i plogp(exit_i + flow_i)
///         - sum_a plogp(p_a)              (constant w.r.t. the partition)
///
/// where for module i
///   exit_i  = out_link_i + tp_i * (N - n_i) / N
///   enter_i = in_link_i  + (n_i / N) * (TP - tp_i)
/// with out/in_link the boundary-crossing random-walk flow, tp_i the
/// module's aggregated teleportation flow, n_i its original-vertex count,
/// N the level-0 vertex count, and TP the total teleport flow.  With the
/// undirected flow model tp == 0 and enter == exit, recovering the classic
/// two-level undirected map equation exactly.
///
/// Data layout.  Each module's aggregates live in one 64-byte line
/// (ModuleAgg) together with the module's three plogp terms, cached from the
/// live aggregates, so a candidate evaluation gathers a single line and
/// recomputes none of the target's current terms.  plogp(S) is cached too.
/// The moving vertex's old-module side of the delta is the same for every
/// candidate target: source_terms() computes it once per vertex and
/// delta_to() adds the target side.  Both are inline, so the kernel's
/// candidate loop calls no out-of-line function but log2.
///
/// plogp reuse.  plogp is a pure function, so an argument that compares ==
/// to one already evaluated takes the earlier value, bit for bit.  Under the
/// undirected model a module's enter equals its exit whenever its in-link
/// and out-link sums do (always at singletons), so a candidate costs 3 log2
/// calls (S', enter_t' == exit_t', exit_t' + flow_t') and a source side 2;
/// under the directed model enter != exit and every term is taken (4 per
/// candidate, 3 per source side).  The split keeps every leaf value and the
/// evaluation order of the single formula, so results are bitwise identical
/// to evaluating it in one piece.

#include <cmath>
#include <cstdint>
#include <vector>

#include "asamap/core/flow.hpp"

namespace asamap::core {

/// x * log2(x), with plogp(0) = 0.
inline double plogp(double x) noexcept {
  return x > 0.0 ? x * std::log2(x) : 0.0;
}

/// plogp(x), reusing `plogp_y` = plogp(y) when x == y: exact, since plogp
/// is a pure function of the value (and plogp(-0.0) == plogp(0.0)).
inline double plogp_reuse(double x, double y, double plogp_y) noexcept {
  return x == y ? plogp_y : plogp(x);
}

/// Codelength of the trivial all-in-one-module partition, in O(n): the
/// single module has exactly zero exit and enter flow, so the map equation
/// collapses to plogp(total_flow) - sum_v plogp(p_v).  Bitwise identical to
/// evaluating ModuleState over that partition (same accumulation order)
/// without its three O(E) aggregate passes.
double one_level_codelength(const FlowNetwork& fn);

class ModuleState {
 public:
  /// Initializes with every node in its own module (the start state of the
  /// FindBestCommunity phase).
  explicit ModuleState(const FlowNetwork& fn);

  /// Initializes from an existing assignment with `num_modules` modules
  /// (ids must be < num_modules).
  ModuleState(const FlowNetwork& fn, const Partition& init,
              std::size_t num_modules);

  /// Link flows between a node v and two modules, as produced by the flow
  /// accumulators.  "current" refers to v's present module *excluding v
  /// itself*.
  struct MoveFlows {
    double out_to_target = 0.0;
    double in_from_target = 0.0;
    double out_to_current = 0.0;
    double in_from_current = 0.0;
  };

  /// One module's aggregates plus its cached plogp terms, packed into one
  /// cache line so a candidate evaluation is a single random access.  The
  /// cached terms always equal plogp of the live aggregates: refresh() runs
  /// whenever the aggregates change.
  struct alignas(64) ModuleAgg {
    double flow = 0.0;          ///< sum of member node flow
    double tp = 0.0;            ///< sum of member teleport flow
    double out_link = 0.0;      ///< boundary out-flow
    double in_link = 0.0;       ///< boundary in-flow
    std::uint64_t cnt = 0;      ///< original vertices represented
    double plogp_exit = 0.0;    ///< plogp(exit)
    double plogp_enter = 0.0;   ///< plogp(enter)
    double plogp_exit_flow = 0.0;  ///< plogp(exit + flow)
  };
  static_assert(sizeof(ModuleAgg) == 64, "one module per cache line");

  /// The old-module side of a move of v, independent of the target:
  /// v's module after removing v, and the terms of the delta formula that
  /// depend only on it.
  struct SourceTerms {
    VertexId module = 0;             ///< v's current module
    double enter_sum_less_old = 0.0;  ///< S - enter_o
    double new_enter = 0.0;          ///< enter_o without v
    double plogp_enter_sum = 0.0;    ///< plogp(S)
    double plogp_new_enter = 0.0;
    double plogp_old_enter = 0.0;
    double plogp_new_exit = 0.0;
    double plogp_old_exit = 0.0;
    double plogp_new_exit_flow = 0.0;
    double plogp_old_exit_flow = 0.0;
  };

  /// Source side of moving v, given the current-module half of `f`.
  [[nodiscard]] SourceTerms source_terms(VertexId v,
                                         const MoveFlows& f) const noexcept {
    const FlowNetwork& fn = *fn_;
    const VertexId o = module_of_[v];
    const ModuleAgg& om = mods_[o];

    // Old-module aggregates after removing v.
    const double o_out =
        om.out_link - (node_out_[v] - f.out_to_current) + f.in_from_current;
    const double o_in =
        om.in_link - (node_in_[v] - f.in_from_current) + f.out_to_current;
    const double o_flow = om.flow - fn.node_flow[v];
    const double o_tp = om.tp - fn.teleport_flow[v];
    const std::uint64_t o_cnt = om.cnt - fn.orig_count[v];
    const double new_exit_o = exit_from(o_out, o_tp, o_cnt);

    SourceTerms s;
    s.module = o;
    s.enter_sum_less_old = enter_sum_ - enter_from(om.in_link, om.tp, om.cnt);
    s.new_enter = enter_from(o_in, o_tp, o_cnt);
    s.plogp_enter_sum = plogp_enter_sum_;
    s.plogp_new_enter = plogp(s.new_enter);
    s.plogp_old_enter = om.plogp_enter;
    s.plogp_new_exit =
        plogp_reuse(new_exit_o, s.new_enter, s.plogp_new_enter);
    s.plogp_old_exit = om.plogp_exit;
    s.plogp_new_exit_flow = plogp(new_exit_o + o_flow);
    s.plogp_old_exit_flow = om.plogp_exit_flow;
    return s;
  }

  /// Code-length change (bits) if node v moves to `target`, given
  /// source_terms(v, f) and the target half of `f`.  Negative is an
  /// improvement.  Returns 0 when target == current module.
  [[nodiscard]] double delta_to(const SourceTerms& src, VertexId v,
                                VertexId target,
                                const MoveFlows& f) const noexcept {
    if (src.module == target) return 0.0;
    const FlowNetwork& fn = *fn_;
    const ModuleAgg& tm = mods_[target];

    // Target-module aggregates after adding v.
    const double t_out =
        tm.out_link + (node_out_[v] - f.out_to_target) - f.in_from_target;
    const double t_in =
        tm.in_link + (node_in_[v] - f.in_from_target) - f.out_to_target;
    const double t_flow = tm.flow + fn.node_flow[v];
    const double t_tp = tm.tp + fn.teleport_flow[v];
    const std::uint64_t t_cnt = tm.cnt + fn.orig_count[v];

    const double old_enter_t = enter_from(tm.in_link, tm.tp, tm.cnt);
    const double new_exit_t = exit_from(t_out, t_tp, t_cnt);
    const double new_enter_t = enter_from(t_in, t_tp, t_cnt);

    // S' = S - enter_o - enter_t + enter_o' + enter_t', summed left to right.
    const double new_enter_sum =
        src.enter_sum_less_old - old_enter_t + src.new_enter + new_enter_t;

    const double plogp_new_enter_t = plogp(new_enter_t);
    const double plogp_new_exit_t =
        plogp_reuse(new_exit_t, new_enter_t, plogp_new_enter_t);

    // The map equation's change term by term; each line keeps the
    // (new_o + new_t) - old_o - old_t order.
    double delta = plogp(new_enter_sum) - src.plogp_enter_sum;
    delta -= src.plogp_new_enter + plogp_new_enter_t - src.plogp_old_enter -
             tm.plogp_enter;
    delta -= src.plogp_new_exit + plogp_new_exit_t - src.plogp_old_exit -
             tm.plogp_exit;
    delta += src.plogp_new_exit_flow + plogp(new_exit_t + t_flow) -
             src.plogp_old_exit_flow - tm.plogp_exit_flow;
    return delta;
  }

  /// delta_to(source_terms(v, f), v, target, f): the O(1) evaluation of a
  /// single recorded move.
  [[nodiscard]] double delta_move(VertexId v, VertexId target,
                                  const MoveFlows& f) const {
    return delta_to(source_terms(v, f), v, target, f);
  }

  /// Applies the move and updates the code length incrementally.
  void apply_move(VertexId v, VertexId target, const MoveFlows& f);

  [[nodiscard]] double codelength() const noexcept { return codelength_; }
  /// S, the total enter flow (the index codebook's rate).
  [[nodiscard]] double enter_sum() const noexcept { return enter_sum_; }

  /// Index-codebook part of L (between-module movements).
  [[nodiscard]] double index_codelength() const noexcept;
  /// Module-codebook part of L (within-module movements).
  [[nodiscard]] double module_codelength() const noexcept {
    return codelength_ - index_codelength();
  }

  [[nodiscard]] VertexId module_of(VertexId v) const { return module_of_[v]; }
  [[nodiscard]] const Partition& assignment() const noexcept {
    return module_of_;
  }
  /// Number of non-empty modules.
  [[nodiscard]] std::size_t live_modules() const;

  /// Module aggregates, exposed for tests and the contraction step.
  [[nodiscard]] double module_flow(VertexId m) const { return mods_[m].flow; }
  [[nodiscard]] double module_exit(VertexId m) const { return exit_of(m); }
  /// Module m's line: the kernel prefetches it ahead of the candidate scan.
  [[nodiscard]] const ModuleAgg& module_agg(VertexId m) const {
    return mods_[m];
  }

  /// Rebuilds all running sums from the raw aggregates.  Incremental
  /// updates accumulate floating-point drift over millions of moves; the
  /// driver calls this between sweeps, and tests assert it is a no-op up to
  /// tolerance.
  void recompute();

 private:
  void init_aggregates();
  /// Recomputes module m's cached plogp terms from its live aggregates.
  void refresh(VertexId m) noexcept;
  [[nodiscard]] double exit_of(VertexId m) const noexcept;
  [[nodiscard]] double enter_of(VertexId m) const noexcept;
  [[nodiscard]] double exit_from(double out_link, double tp,
                                 std::uint64_t cnt) const noexcept {
    const double N = static_cast<double>(fn_->total_orig);
    return out_link + tp * (N - static_cast<double>(cnt)) / N;
  }
  [[nodiscard]] double enter_from(double in_link, double tp,
                                  std::uint64_t cnt) const noexcept {
    const double N = static_cast<double>(fn_->total_orig);
    return in_link + (static_cast<double>(cnt) / N) * (total_tp_ - tp);
  }

  const FlowNetwork* fn_;
  Partition module_of_;

  std::vector<ModuleAgg> mods_;  ///< per-module aggregates, one line each

  // Per-node totals (all link flow leaving/entering the node).
  std::vector<double> node_out_;
  std::vector<double> node_in_;

  double total_tp_ = 0.0;    ///< TP
  double enter_sum_ = 0.0;   ///< S
  double plogp_enter_sum_ = 0.0;  ///< plogp(S)
  double sum_plogp_enter_ = 0.0;
  double sum_plogp_exit_ = 0.0;
  double sum_plogp_exit_flow_ = 0.0;
  double node_flow_log_ = 0.0;  ///< constant term
  double codelength_ = 0.0;
};

}  // namespace asamap::core
