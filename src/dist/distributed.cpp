#include "asamap/dist/distributed.hpp"

#include <algorithm>

#include "asamap/support/check.hpp"

namespace asamap::dist {

using graph::VertexId;

// Rank placement is the shared block partition of partition_map.hpp — the
// same make_ranges/owner_of the shard servers and router use, so the
// simulation and the live tier cannot drift on ownership.

SuperstepExecutor::SuperstepExecutor(std::uint32_t ranks) : ranks_(ranks) {
  ASAMAP_CHECK(ranks >= 1, "need at least one rank");
}

void SuperstepExecutor::begin_level(VertexId n) {
  // Per-rank accumulators (each rank is one process with its own heap).
  heaps_.clear();
  accs_.clear();
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    heaps_.push_back(std::make_unique<hashdb::AddressSpace>());
    accs_.push_back(std::make_unique<RankAccumulator>(sink_, *heaps_.back()));
  }
  active_.assign(n, 1);
  next_active_.assign(n, 0);
}

void SuperstepExecutor::propose(const core::LevelSweep& lv, ShardRange range,
                                std::uint32_t rank,
                                std::vector<VertexId>& movers) {
  // The snapshot is the authoritative state at superstep start; since
  // nothing mutates it during proposal, one shared read-only view
  // faithfully models R replicated stale views.
  for (VertexId v = range.begin; v < range.end; ++v) {
    if (!active_[v]) continue;
    const core::MoveProposal p =
        core::evaluate_move(lv.state, lv.fn, v, *accs_[rank], sink_, lv.addrs,
                            costs_, lv.result.breakdown);
    if (p.improving(lv.state.module_of(v))) movers.push_back(v);
  }
}

std::uint64_t SuperstepExecutor::apply(const core::LevelSweep& lv,
                                       std::span<const VertexId> movers) {
  // Re-validate each proposal against the live state (stale proposals may
  // have become unprofitable) and apply.  Mirrors the conflict resolution
  // distributed Infomap performs after the exchange.
  const VertexId n = lv.fn.num_nodes();
  const auto ranges = make_ranges(n, ranks_);
  std::uint64_t applied = 0;
  for (const VertexId v : movers) {
    const std::uint32_t r = owner_of(v, n, ranges);
    if (core::find_best_community(lv.state, lv.fn, v, *accs_[r], sink_,
                                  lv.addrs, costs_, lv.result.breakdown)) {
      ++applied;
      core::mark_neighborhood(lv.fn, v, next_active_.data());
    }
  }
  return applied;
}

void SuperstepExecutor::end_superstep(core::ModuleState& state) {
  state.recompute();
  active_.swap(next_active_);
  std::fill(next_active_.begin(), next_active_.end(), 0);
}

void SuperstepExecutor::sweep_level(const core::LevelSweep& lv) {
  obs::KernelSpan span(lv.ktimers, obs::KernelPhase::kFindBestCommunity);
  const VertexId n = lv.fn.num_nodes();
  const auto ranges = make_ranges(n, ranks_);

  double prev_codelength = lv.state.codelength();
  std::vector<VertexId> movers;
  for (int step = 0; step < lv.opts.max_sweeps_per_level; ++step) {
    SuperstepTrace st;
    st.level = lv.level;
    st.step = step;

    // --- Local phase: every rank proposes against the stale snapshot.
    movers.clear();
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      propose(lv, ranges[r], r, movers);
    }
    st.proposals = movers.size();

    // --- Exchange phase: movers' new assignments are shipped to every
    // rank that owns one of their neighbors.  Count one logical message
    // per (source rank, destination rank) pair with traffic, 8 bytes per
    // (vertex, module) update delivered.
    {
      std::vector<std::uint64_t> pair_traffic(std::size_t{ranks_} * ranks_,
                                              0);
      for (VertexId v : movers) {
        const std::uint32_t src = owner_of(v, n, ranges);
        for (const graph::Arc& arc : lv.fn.graph().out_neighbors(v)) {
          const std::uint32_t dst = owner_of(arc.dst, n, ranges);
          if (dst != src) ++pair_traffic[std::size_t{src} * ranks_ + dst];
        }
      }
      for (std::uint64_t updates : pair_traffic) {
        if (updates > 0) {
          ++st.messages;
          st.bytes += updates * 8;
        }
      }
    }

    // --- Apply phase.
    st.applied = apply(lv, movers);
    end_superstep(lv.state);

    st.codelength = lv.state.codelength();
    trace.push_back(st);
    total_messages += st.messages;
    total_bytes += st.bytes;
    if (st.applied == 0 ||
        prev_codelength - st.codelength < lv.opts.min_improvement_bits) {
      break;
    }
    prev_codelength = st.codelength;
  }
}

DistResult run_distributed_infomap(const graph::CsrGraph& g,
                                   const DistOptions& opts) {
  core::InfomapOptions run_opts;
  run_opts.flow = opts.flow;
  run_opts.max_levels = opts.max_levels;
  run_opts.max_sweeps_per_level = opts.max_supersteps_per_level;
  run_opts.min_improvement_bits = opts.min_improvement_bits;
  run_opts.refine_sweeps = 0;  // the superstep protocol has no fine-tuning
  SuperstepExecutor exec(opts.num_ranks);
  core::InfomapResult run = core::run_levels(g, run_opts, exec);

  DistResult result;
  result.communities = std::move(run.communities);
  result.num_communities = run.num_communities;
  result.codelength = run.codelength;
  result.levels = run.levels;
  result.trace = std::move(exec.trace);
  result.total_messages = exec.total_messages;
  result.total_bytes = exec.total_bytes;
  return result;
}

}  // namespace asamap::dist
