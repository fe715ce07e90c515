#include "asamap/core/map_equation.hpp"

#include "asamap/support/check.hpp"

namespace asamap::core {

double one_level_codelength(const FlowNetwork& fn) {
  // One module holding every node: all arcs are intra-module, so exit and
  // enter are exactly zero and the index codebook vanishes.  Accumulate in
  // the same vertex order as ModuleState::init_aggregates so the value is
  // bitwise identical to the ModuleState evaluation it replaces.
  double total_flow = 0.0;
  double node_flow_log = 0.0;
  for (VertexId v = 0; v < fn.num_nodes(); ++v) {
    total_flow += fn.node_flow[v];
    node_flow_log += plogp(fn.node_flow[v]);
  }
  return plogp(total_flow) - node_flow_log;
}

ModuleState::ModuleState(const FlowNetwork& fn) : fn_(&fn) {
  const VertexId n = fn.num_nodes();
  module_of_.resize(n);
  for (VertexId v = 0; v < n; ++v) module_of_[v] = v;
  mods_.assign(n, ModuleAgg{});
  init_aggregates();
}

ModuleState::ModuleState(const FlowNetwork& fn, const Partition& init,
                         std::size_t num_modules)
    : fn_(&fn), module_of_(init) {
  ASAMAP_CHECK(init.size() == fn.num_nodes(), "partition size mismatch");
  mods_.assign(num_modules, ModuleAgg{});
  init_aggregates();
}

void ModuleState::init_aggregates() {
  const FlowNetwork& fn = *fn_;
  const VertexId n = fn.num_nodes();

  node_out_.assign(n, 0.0);
  {
    std::size_t e = 0;
    for (VertexId u = 0; u < n; ++u) {
      for ([[maybe_unused]] const graph::Arc& arc :
           fn.graph().out_neighbors(u)) {
        node_out_[u] += fn.out_flow[e++];
      }
    }
  }
  if (fn.mirrored()) {
    // The in pass would add the same flows in the same order.
    node_in_ = node_out_;
  } else {
    node_in_.assign(n, 0.0);
    std::size_t e = 0;
    const std::span<const double> in_flow = fn.in_flow();
    for (VertexId v = 0; v < n; ++v) {
      for ([[maybe_unused]] const graph::Arc& arc :
           fn.graph().in_neighbors(v)) {
        node_in_[v] += in_flow[e++];
      }
    }
  }

  total_tp_ = 0.0;
  node_flow_log_ = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    total_tp_ += fn.teleport_flow[v];
    node_flow_log_ += plogp(fn.node_flow[v]);
    ModuleAgg& m = mods_[module_of_[v]];
    m.flow += fn.node_flow[v];
    m.tp += fn.teleport_flow[v];
    m.cnt += fn.orig_count[v];
  }

  // Boundary link flows.
  {
    std::size_t e = 0;
    for (VertexId u = 0; u < n; ++u) {
      const VertexId mu = module_of_[u];
      for (const graph::Arc& arc : fn.graph().out_neighbors(u)) {
        const VertexId mv = module_of_[arc.dst];
        if (mu != mv) {
          mods_[mu].out_link += fn.out_flow[e];
          mods_[mv].in_link += fn.out_flow[e];
        }
        ++e;
      }
    }
  }

  recompute();
}

double ModuleState::exit_of(VertexId m) const noexcept {
  const ModuleAgg& a = mods_[m];
  return exit_from(a.out_link, a.tp, a.cnt);
}

double ModuleState::enter_of(VertexId m) const noexcept {
  const ModuleAgg& a = mods_[m];
  return enter_from(a.in_link, a.tp, a.cnt);
}

void ModuleState::refresh(VertexId m) noexcept {
  ModuleAgg& a = mods_[m];
  const double ex = exit_of(m);
  a.plogp_exit = plogp(ex);
  a.plogp_enter = plogp_reuse(enter_of(m), ex, a.plogp_exit);
  a.plogp_exit_flow = plogp(ex + a.flow);
}

void ModuleState::recompute() {
  enter_sum_ = 0.0;
  sum_plogp_enter_ = 0.0;
  sum_plogp_exit_ = 0.0;
  sum_plogp_exit_flow_ = 0.0;
  for (VertexId m = 0; m < mods_.size(); ++m) {
    refresh(m);
    const ModuleAgg& a = mods_[m];
    if (a.flow <= 0.0 && a.cnt == 0) continue;
    enter_sum_ += enter_of(m);
    sum_plogp_enter_ += a.plogp_enter;
    sum_plogp_exit_ += a.plogp_exit;
    sum_plogp_exit_flow_ += a.plogp_exit_flow;
  }
  plogp_enter_sum_ = plogp(enter_sum_);
  codelength_ = plogp_enter_sum_ - sum_plogp_enter_ - sum_plogp_exit_ +
                sum_plogp_exit_flow_ - node_flow_log_;
}

double ModuleState::index_codelength() const noexcept {
  return plogp_enter_sum_ - sum_plogp_enter_;
}

std::size_t ModuleState::live_modules() const {
  std::size_t live = 0;
  for (const ModuleAgg& a : mods_) {
    if (a.cnt > 0) ++live;
  }
  return live;
}

void ModuleState::apply_move(VertexId v, VertexId target, const MoveFlows& f) {
  const VertexId o = module_of_[v];
  if (o == target) return;
  const FlowNetwork& fn = *fn_;
  ModuleAgg& om = mods_[o];
  ModuleAgg& tm = mods_[target];

  // Retire the old cached contributions of both modules.
  sum_plogp_enter_ -= om.plogp_enter + tm.plogp_enter;
  sum_plogp_exit_ -= om.plogp_exit + tm.plogp_exit;
  sum_plogp_exit_flow_ -= om.plogp_exit_flow + tm.plogp_exit_flow;
  enter_sum_ -= enter_of(o) + enter_of(target);

  // Update raw aggregates (same algebra as source_terms / delta_to).
  om.out_link += -(node_out_[v] - f.out_to_current) + f.in_from_current;
  om.in_link += -(node_in_[v] - f.in_from_current) + f.out_to_current;
  om.flow -= fn.node_flow[v];
  om.tp -= fn.teleport_flow[v];
  om.cnt -= fn.orig_count[v];

  tm.out_link += (node_out_[v] - f.out_to_target) - f.in_from_target;
  tm.in_link += (node_in_[v] - f.in_from_target) - f.out_to_target;
  tm.flow += fn.node_flow[v];
  tm.tp += fn.teleport_flow[v];
  tm.cnt += fn.orig_count[v];

  module_of_[v] = target;
  refresh(o);
  refresh(target);

  // Admit the new contributions.
  sum_plogp_enter_ += om.plogp_enter + tm.plogp_enter;
  sum_plogp_exit_ += om.plogp_exit + tm.plogp_exit;
  sum_plogp_exit_flow_ += om.plogp_exit_flow + tm.plogp_exit_flow;
  enter_sum_ += enter_of(o) + enter_of(target);

  plogp_enter_sum_ = plogp(enter_sum_);
  codelength_ = plogp_enter_sum_ - sum_plogp_enter_ - sum_plogp_exit_ +
                sum_plogp_exit_flow_ - node_flow_log_;
}

}  // namespace asamap::core
