// Reproduces Fig. 4 of the paper: power-law degree distributions of the
// LiveJournal, soc-Pokec, and YouTube networks ("a few vertices may have
// high neighbor counts whereas the majority have 0 or a few neighbors").
//
// Prints a log-binned degree histogram per network plus the fitted
// power-law exponent, and the headline concentration numbers.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "asamap/benchutil/experiments.hpp"
#include "asamap/benchutil/table.hpp"
#include "asamap/gen/datasets.hpp"
#include "asamap/graph/stats.hpp"

using namespace asamap;
using benchutil::fmt;
using benchutil::fmt_count;
using benchutil::fmt_pct;

int main() {
  benchutil::banner(std::cout,
                    "Fig. 4 — power-law degree distributions of the social\n"
                    "network stand-ins (LiveJournal, soc-Pokec, YouTube)");

  for (const std::string& name :
       {std::string("LiveJournal"), std::string("soc-Pokec"),
        std::string("YouTube")}) {
    const auto& g = benchutil::cached_dataset(name);
    const auto h = graph::degree_histogram(g);
    const auto& spec = gen::dataset_spec(name);

    std::cout << '\n'
              << name << ": " << fmt_count(g.num_vertices()) << " vertices, "
              << fmt_count(g.num_arcs() / 2) << " edges (paper: "
              << fmt_count(spec.paper_vertices) << " / "
              << fmt_count(spec.paper_edges) << ")\n"
              << "  mean degree " << fmt(h.mean_degree, 2) << ", max degree "
              << h.max_degree << ", fitted gamma "
              << fmt(graph::fit_power_law_exponent(h), 2) << " (target "
              << fmt(spec.gamma, 2) << ")\n";

    benchutil::Table t({"degree bin", "#vertices", "fraction"});
    std::uint64_t total = 0;
    for (auto c : h.counts) total += c;
    for (std::size_t lo = 1; lo <= h.max_degree; lo *= 2) {
      const std::size_t hi = std::min<std::size_t>(lo * 2 - 1, h.max_degree);
      std::uint64_t in_bin = 0;
      for (std::size_t k = lo; k <= hi && k < h.counts.size(); ++k) {
        in_bin += h.counts[k];
      }
      if (in_bin == 0) continue;
      std::string bin = "[";
      bin += std::to_string(lo);
      bin += ", ";
      bin += std::to_string(hi);
      bin += ']';
      t.add_row({bin, fmt_count(in_bin),
                 fmt_pct(static_cast<double>(in_bin) / total, 2)});
    }
    t.print(std::cout);

    // The paper's qualitative claim: the majority of vertices have few
    // neighbors, a tiny fraction are hubs.
    std::uint64_t low_deg = 0, hub = 0;
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k <= 10) low_deg += h.counts[k];
      if (k >= 1000) hub += h.counts[k];
    }
    std::cout << "  degree <= 10: " << fmt_pct(low_deg / double(total), 1)
              << " of vertices; degree >= 1000: "
              << fmt_pct(hub / double(total), 3) << "\n";
  }
  return 0;
}
