// google-benchmark microbenchmarks of the primitives underneath the
// experiment suite: hash mixing, alias sampling, the accumulator engines
// (functional throughput, NullSink), map-equation move evaluation, one
// PageRank iteration, and one level-0 Convert2SuperNode.  These are
// host-native timings — useful for spotting performance regressions in the
// library itself, not paper reproductions.

#include <benchmark/benchmark.h>

#include <tuple>
#include <utility>
#include <vector>

#include "asamap/asa/accumulator.hpp"
#include "asamap/core/flow.hpp"
#include "asamap/core/infomap.hpp"
#include "asamap/core/map_equation.hpp"
#include "asamap/dyn/delta_log.hpp"
#include "asamap/gen/alias_table.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/hashdb/software_accumulator.hpp"
#include "asamap/support/hash.hpp"
#include "asamap/support/rng.hpp"

namespace {

using namespace asamap;
using sim::NullSink;

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 0x1234;
  for (auto _ : state) {
    x = support::mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_Xoshiro(benchmark::State& state) {
  support::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_AliasSample(benchmark::State& state) {
  support::Xoshiro256 rng(2);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) w = rng.next_double() + 0.01;
  gen::AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

template <typename Acc>
void accumulate_workload(benchmark::State& state, Acc& acc,
                         std::uint32_t key_range) {
  support::Xoshiro256 rng(3);
  std::vector<std::uint32_t> keys(1024);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_below(key_range));
  for (auto _ : state) {
    acc.begin();
    for (std::uint32_t k : keys) acc.accumulate(k, 1.0);
    benchmark::DoNotOptimize(acc.finalize().size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

void BM_ChainedAccumulator(benchmark::State& state) {
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::ChainedAccumulator<NullSink> acc(sink, addrs);
  accumulate_workload(state, acc, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_ChainedAccumulator)->Arg(16)->Arg(256)->Arg(4096);

void BM_OpenAccumulator(benchmark::State& state) {
  NullSink sink;
  hashdb::AddressSpace addrs;
  hashdb::OpenAccumulator<NullSink> acc(sink, addrs);
  accumulate_workload(state, acc, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_OpenAccumulator)->Arg(16)->Arg(256)->Arg(4096);

void BM_AsaAccumulator(benchmark::State& state) {
  NullSink sink;
  asa::Cam cam;
  hashdb::AddressSpace addrs;
  asa::AsaAccumulator<NullSink> acc(sink, cam, addrs);
  accumulate_workload(state, acc, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_AsaAccumulator)->Arg(16)->Arg(256)->Arg(4096);

const core::FlowNetwork& shared_network() {
  static const graph::CsrGraph g = [] {
    gen::ChungLuParams params;
    params.n = 20000;
    params.target_edges = 120000;
    params.gamma = 2.4;
    params.max_deg = 1000;
    return gen::chung_lu(params, 5);
  }();
  static const core::FlowNetwork fn = core::build_flow(g);
  return fn;
}

void BM_DeltaMove(benchmark::State& state) {
  const auto& fn = shared_network();
  core::ModuleState ms(fn);
  support::Xoshiro256 rng(7);
  for (auto _ : state) {
    const auto v =
        static_cast<graph::VertexId>(rng.next_below(fn.num_nodes()));
    const auto nbrs = fn.graph().out_neighbors(v);
    if (nbrs.empty()) continue;
    const auto target = ms.module_of(nbrs[0].dst);
    core::ModuleState::MoveFlows f;
    f.out_to_target = f.in_from_target = 1e-6;
    benchmark::DoNotOptimize(ms.delta_move(v, target, f));
  }
}
BENCHMARK(BM_DeltaMove);

void BM_PageRankIteration(benchmark::State& state) {
  gen::ChungLuParams params;
  params.n = 20000;
  params.target_edges = 120000;
  params.gamma = 2.4;
  params.max_deg = 1000;
  const auto g = gen::chung_lu(params, 5);
  core::FlowOptions opts;
  opts.model = core::FlowModel::kDirected;
  opts.max_iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_flow(g, opts).node_flow.size());
  }
}
BENCHMARK(BM_PageRankIteration);

/// One APPLY's fold: DeltaView over 600 records (2:1 adds to deletes, both
/// endpoints degree-biased, as mutation streams on power-law graphs are)
/// plus materialize(), on the 100k-vertex, 600k-edge Chung-Lu graph.
void BM_DeltaFold(benchmark::State& state) {
  static const graph::CsrGraph g = [] {
    gen::ChungLuParams params;
    params.n = 100000;
    params.target_edges = 600000;
    return gen::chung_lu(params, 42);
  }();
  support::Xoshiro256 rng(11);
  // The arc at a uniform index: its source is degree-biased.
  const auto random_arc = [&rng] {
    const auto i = static_cast<graph::EdgeId>(rng.next_below(g.num_arcs()));
    graph::VertexId lo = 0, hi = g.num_vertices();
    while (hi - lo > 1) {
      const graph::VertexId mid = lo + (hi - lo) / 2;
      (g.out_offset(mid) <= i ? lo : hi) = mid;
    }
    return std::pair{lo, g.out_neighbors(lo)[i - g.out_offset(lo)].dst};
  };
  std::vector<dyn::DeltaRecord> batch;
  while (batch.size() < 600) {
    const auto [u, v] = random_arc();
    if (batch.size() % 3 == 0) {
      batch.push_back({u, v, 0.0, dyn::DeltaOp::kDelEdge});
      continue;
    }
    const graph::VertexId w = random_arc().second;
    if (u != w) batch.push_back({u, w, 1.0, dyn::DeltaOp::kAddEdge});
  }
  for (auto _ : state) {
    const dyn::DeltaView view(g, batch);
    benchmark::DoNotOptimize(view.materialize().num_arcs());
  }
}
BENCHMARK(BM_DeltaFold)->Unit(benchmark::kMillisecond);

/// Convert2SuperNode at level 0 of the 100k-vertex / 800k-edge Chung-Lu
/// reference graph, contracted by the partition its level-0 sweeps reach;
/// the argument is the thread count.
void BM_Contract(benchmark::State& state) {
  // The level-0 network borrows the graph, so both live as long.
  static const graph::CsrGraph g = [] {
    gen::ChungLuParams params;
    params.n = 100000;
    params.target_edges = 800000;
    params.gamma = 2.5;
    params.min_deg = 2;
    return gen::chung_lu(params, 42);
  }();
  static const auto level0 = [] {
    core::InfomapOptions opts;
    opts.max_levels = 1;
    opts.refine_sweeps = 0;
    core::InfomapResult swept = core::run_infomap_parallel(g, opts, 2);
    return std::tuple{core::build_flow(g), std::move(swept.communities),
                      swept.num_communities};
  }();
  const auto& [fn, modules, k] = level0;
  const auto threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::contract_network(fn, modules, k, threads).graph().num_arcs());
  }
  state.counters["modules"] = static_cast<double>(k);
}
BENCHMARK(BM_Contract)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_Plogp(benchmark::State& state) {
  double x = 0.3;
  for (auto _ : state) {
    x = 0.3 + 0.5 * core::plogp(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Plogp);

}  // namespace

BENCHMARK_MAIN();
