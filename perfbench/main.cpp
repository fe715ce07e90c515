// perfbench_e2e — the repository's end-to-end benchmark binary.
//
//   perfbench_e2e --workload <cluster|serve_reads|serve_updates>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.  README.md in
// this directory documents workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_e2e --workload <cluster|serve_reads|"
               "serve_updates> --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(val);
    } else if (key == "--trace") {
      opts.trace = val != "0";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0) return usage();

  using Run = void (*)(const perfbench::Options&, perfbench::Report&,
                       perfbench::Tracer&);
  Run run = nullptr;
  if (opts.workload == "cluster") run = perfbench::run_cluster;
  if (opts.workload == "serve_reads") run = perfbench::run_serve_reads;
  if (opts.workload == "serve_updates") run = perfbench::run_serve_updates;
  if (run == nullptr) return usage();

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  perfbench::Report rep;
  perfbench::Tracer tr(opts.trace);
  perfbench::report_layer_defaults(rep);
  const perfbench::CpuTimes cpu0 = perfbench::read_cpu_times();
  run(opts, rep, tr);
  const double steal =
      perfbench::steal_frac(cpu0, perfbench::read_cpu_times());
  rep.layer("host.steal_frac", steal, "ratio");
  const double spans = static_cast<double>(tr.spans() + tr.dropped());
  rep.layer("obs.trace_dropped_frac",
            spans > 0 ? static_cast<double>(tr.dropped()) / spans : 0.0,
            "ratio");
  std::printf("noise: host.steal_frac=%.4f\n", steal);
  rep.finish(opts.trace);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench_e2e: " << e.what() << '\n';
  return 1;
}
