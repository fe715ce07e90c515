// asamap_cli — the command-line face of the library, for users who want to
// cluster a graph (or regenerate a paper workload) without writing C++.
//
//   asamap_cli cluster <graph.txt> [--out partition.tsv] [--engine=flat|...]
//                      [--parallel N] [--deadline-ms N] [--directed]
//                      [--metrics prom|json] [--metrics-window prom|json]
//                      [--trace-out FILE]
//   asamap_cli stats   <graph.txt> [--directed]
//   asamap_cli gen     <dataset-name> <out.txt>      (paper stand-ins)
//   asamap_cli compare <graph.txt> <a.tsv> <b.tsv>   (NMI/ARI/modularity)
//
// Options parse through support::ArgParser, the same helper behind
// asamap_serve and the bench drivers, so `--key value` and `--key=value`
// both work everywhere.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/gen/datasets.hpp"
#include "asamap/graph/io.hpp"
#include "asamap/graph/stats.hpp"
#include "asamap/metrics/partition_io.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/window.hpp"
#include "asamap/serve/ops_surface.hpp"
#include "asamap/support/argparse.hpp"
#include "asamap/support/timer.hpp"

using namespace asamap;

namespace {

int usage() {
  std::cerr <<
      "usage:\n"
      "  asamap_cli cluster <graph.txt> [--out partition.tsv]\n"
      "                     [--accumulator hotset|flat|chained|open|asa|dense]\n"
      "                     [--parallel N] [--deadline-ms N] [--directed]\n"
      "                     [--metrics prom|json] [--metrics-window prom|json]\n"
      "                     [--trace-out FILE]\n"
      "                     (--engine is an alias for --accumulator;\n"
      "                      --parallel accepts only hotset|flat)\n"
      "  asamap_cli stats   <graph.txt> [--directed]\n"
      "  asamap_cli gen     <dataset-name> <out.txt>\n"
      "  asamap_cli compare <graph.txt> <a.tsv> <b.tsv>\n";
  return 2;
}

core::AccumulatorKind engine_of(const std::string& name) {
  if (name == "hotset") return core::AccumulatorKind::kHotSet;
  if (name == "flat") return core::AccumulatorKind::kFlat;
  if (name == "chained") return core::AccumulatorKind::kChained;
  if (name == "open") return core::AccumulatorKind::kOpen;
  if (name == "asa") return core::AccumulatorKind::kAsa;
  if (name == "dense") return core::AccumulatorKind::kDense;
  throw std::runtime_error("unknown accumulator: " + name);
}

graph::CsrGraph load(const std::string& path, bool directed) {
  graph::SnapReadOptions opts;
  opts.undirected = !directed;
  return graph::load_snap_file(path, opts);
}

/// Raises `cancel` once `ms` elapse unless disarm() is called first.  The
/// clustering run polls the flag at sweep boundaries and returns its best
/// partition so far with result.interrupted set.
class DeadlineWatchdog {
 public:
  DeadlineWatchdog(long long ms, std::atomic<bool>& cancel) {
    if (ms <= 0) return;
    thread_ = std::thread([this, ms, &cancel] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::milliseconds(ms),
                        [this] { return disarmed_; })) {
        cancel.store(true, std::memory_order_relaxed);
      }
    });
  }

  ~DeadlineWatchdog() { disarm(); }

  void disarm() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

int cmd_cluster(const support::ArgParser& args) {
  const auto& pos = args.positional();
  if (pos.empty()) return usage();
  const auto g = load(pos[0], args.flag("directed"));
  std::cerr << "Loaded " << g.num_vertices() << " vertices, "
            << g.num_arcs() << " arcs\n";

  const int parallel = static_cast<int>(args.int_or("parallel", 0));
  // --accumulator selects the engine; --engine stays as an alias.  Default
  // is the two-level software-CAM hot set (the fastest native path, and
  // what run_infomap_parallel defaults to).
  const std::string engine_name =
      args.get_or("accumulator", args.get_or("engine", "hotset"));
  const core::AccumulatorKind engine = engine_of(engine_name);
  if (parallel > 0 && engine != core::AccumulatorKind::kHotSet &&
      engine != core::AccumulatorKind::kFlat) {
    std::cerr << "--parallel supports only the native accumulators "
                 "(hotset, flat); got '" << engine_name << "'\n";
    return usage();
  }
  const long long deadline_ms = args.int_or("deadline-ms", 0);
  const std::string metrics_format = args.get_or("metrics", "");
  if (!metrics_format.empty() && metrics_format != "prom" &&
      metrics_format != "prometheus" && metrics_format != "json") {
    std::cerr << "--metrics: expected prom or json, got '" << metrics_format
              << "'\n";
    return usage();
  }
  const std::string window_format = args.get_or("metrics-window", "");
  if (!window_format.empty() && window_format != "prom" &&
      window_format != "prometheus" && window_format != "json") {
    std::cerr << "--metrics-window: expected prom or json, got '"
              << window_format << "'\n";
    return usage();
  }

  std::atomic<bool> cancel{false};
  obs::MetricRegistry registry;
  core::InfomapOptions opts;
  if (deadline_ms > 0) opts.cancel = &cancel;
  if (!metrics_format.empty() || !window_format.empty()) {
    opts.metrics = &registry;
  }
  DeadlineWatchdog watchdog(deadline_ms, cancel);

  // One-shot windowed view: snapshot the (empty) registry before the run
  // and query after it.  Nothing ticks mid-run, so a tier whose whole
  // window is shorter than the run resets to empty at query time; the
  // extra 1×1h "run" tier always covers the full run.
  obs::WindowConfig window_config;
  window_config.tiers.push_back({3'600'000'000'000ULL, 1, "run"});
  obs::WindowStore window(registry, window_config, obs::mono_now_ns());

  support::WallTimer timer;
  core::InfomapResult result;
  {
    // Root span of the run's trace; kernel-phase spans parent under it and
    // land in the flight recorder for --trace-out.
    obs::TraceSpan run_span("cli.cluster", obs::TraceCat::kSession);
    result = parallel > 0
                 ? core::run_infomap_parallel(g, opts, parallel, engine)
                 : core::run_infomap(g, opts, engine);
  }
  watchdog.disarm();
  std::cerr << "Clustered in " << result.levels << " level(s), "
            << timer.seconds() << " s\n";
  if (result.interrupted) {
    std::cerr << "Deadline of " << deadline_ms
              << " ms hit; reporting the best partition found so far\n";
  }

  std::cout << "communities:\t" << result.num_communities << '\n'
            << "codelength:\t" << result.codelength << " bits\n"
            << "one-level:\t" << result.one_level_codelength << " bits\n"
            << "interrupted:\t" << (result.interrupted ? "yes" : "no") << '\n';

  if (const auto out = args.get("out")) {
    metrics::save_partition(*out, metrics::Partition(
                                      result.communities.begin(),
                                      result.communities.end()));
    std::cerr << "Partition written to " << *out << '\n';
  }

  // The same registry contents the serve METRICS verb scrapes, in the same
  // two formats (Prometheus text / bench JSON envelope).
  if (metrics_format == "prom" || metrics_format == "prometheus") {
    registry.write_prometheus(std::cout);
  } else if (metrics_format == "json") {
    std::cout << serve::OpsSurface::metrics_json(registry, "cli_metrics")
              << '\n';
  }

  // Windowed rates/quantiles of this run (the METRICS WINDOW view).
  if (window_format == "prom" || window_format == "prometheus") {
    window.write_prometheus(std::cout, obs::mono_now_ns());
  } else if (window_format == "json") {
    std::cout << serve::OpsSurface::window_json(window, obs::mono_now_ns(),
                                                "cli_metrics_window")
              << '\n';
  }

  if (const auto trace_out = args.get("trace-out")) {
    std::ofstream f(*trace_out);
    if (!f) {
      std::cerr << "--trace-out: cannot open " << *trace_out << '\n';
      return 1;
    }
    obs::FlightRecorder::instance().write_chrome_json(f);
    f << '\n';
    std::cerr << "Trace written to " << *trace_out << '\n';
  }
  return 0;
}

int cmd_stats(const support::ArgParser& args) {
  const auto& pos = args.positional();
  if (pos.empty()) return usage();
  const auto g = load(pos[0], args.flag("directed"));
  const auto h = graph::degree_histogram(g);
  std::cout << "vertices:\t" << g.num_vertices() << '\n'
            << "arcs:\t" << g.num_arcs() << '\n'
            << "symmetric:\t" << (g.is_symmetric() ? "yes" : "no") << '\n'
            << "mean degree:\t" << h.mean_degree << '\n'
            << "max degree:\t" << h.max_degree << '\n'
            << "power-law gamma:\t" << graph::fit_power_law_exponent(h)
            << '\n';
  for (std::size_t kb : {1, 8}) {
    std::cout << "CAM " << kb << "KB coverage:\t"
              << graph::coverage_at_capacity(h, kb * 1024 / 16) << '\n';
  }
  return 0;
}

int cmd_gen(const support::ArgParser& args) {
  const auto& pos = args.positional();
  if (pos.size() < 2) return usage();
  const auto g = gen::make_dataset(pos[0]);
  graph::save_snap_file(pos[1], g);
  std::cerr << "Wrote " << pos[0] << " stand-in (" << g.num_vertices()
            << " vertices, " << g.num_arcs() << " arcs) to " << pos[1]
            << '\n';
  return 0;
}

int cmd_compare(const support::ArgParser& args) {
  const auto& pos = args.positional();
  if (pos.size() < 3) return usage();
  const auto g = load(pos[0], args.flag("directed"));
  const auto pa = metrics::load_partition(pos[1]);
  const auto pb = metrics::load_partition(pos[2]);
  if (pa.size() != g.num_vertices() || pb.size() != g.num_vertices()) {
    std::cerr << "partition size does not match the graph\n";
    return 1;
  }
  std::cout << "NMI:\t" << metrics::normalized_mutual_information(pa, pb)
            << '\n'
            << "ARI:\t" << metrics::adjusted_rand_index(pa, pb) << '\n'
            << "Q(a):\t" << metrics::modularity(g, pa) << '\n'
            << "Q(b):\t" << metrics::modularity(g, pb) << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const support::ArgParser args(argc, argv, 2, {"directed"});
  if (const auto unknown = args.unknown_keys(
          {"out", "engine", "accumulator", "parallel", "deadline-ms",
           "metrics", "metrics-window", "trace-out"});
      !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << '\n';
    return usage();
  }
  try {
    if (cmd == "cluster") return cmd_cluster(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "compare") return cmd_compare(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
