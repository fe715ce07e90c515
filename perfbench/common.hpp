#pragma once

// Shared plumbing of the end-to-end benchmark: options, sample statistics,
// the benchmark's own span tracer, host probes, and the result report that
// becomes the final JSON line.  The tracer records spans around the
// benchmark's calls into each layer's public API; src/ is not instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "asamap/graph/csr_graph.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (the same rule as numpy's default); the
/// input is copied and sorted.  0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& v);
/// (q3 - q1) / median of a sample: the run's own per-op spread.
[[nodiscard]] double iqr_frac(const std::vector<double>& v);

/// Seeds derived from the benchmark seed, one stream per purpose, so
/// changing one workload's draw order never shifts another's inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// --- tracing ---------------------------------------------------------------

/// The benchmark's span recorder.  Spans live in memory and are folded into
/// per-name totals at the end; a span's self time is its duration minus the
/// time its children cover.  Children can also be attached as measured
/// intervals (add_child) when the time comes from a counter the program
/// already exports rather than from a span the benchmark opened.  Disabled
/// (the untraced runs) every call is a branch and nothing is stored.
class Tracer {
 public:
  struct Total {
    std::string layer;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).  `parent` 0 = root.
  std::uint64_t begin(const char* name, const char* layer,
                      std::uint64_t parent = 0);
  void end(std::uint64_t id);
  /// Attaches a measured child interval of `seconds` to `parent`.
  void add_child(std::uint64_t parent, const char* name, const char* layer,
                 double seconds);

  /// Per-name totals, self times resolved, over the span trees whose root
  /// is named `root`.
  [[nodiscard]] std::map<std::string, Total> totals(
      const std::string& root) const;
  [[nodiscard]] std::uint64_t spans() const;
  /// Spans discarded because the in-memory buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  struct Rec {
    const char* name = nullptr;
    const char* layer = nullptr;
    std::uint64_t parent = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Rec> recs_;  ///< id = index + 1
  std::uint64_t dropped_ = 0;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& t, const char* name, const char* layer, std::uint64_t parent = 0)
      : t_(t), id_(t.begin(name, layer, parent)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::uint64_t id_;
};

// --- host probes -----------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat (all cores).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();
[[nodiscard]] double steal_frac(const CpuTimes& a, const CpuTimes& b);
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

// --- report ----------------------------------------------------------------

/// Everything one run reports.  End-to-end metrics go to the JSON line of
/// an untraced run, per-layer metrics to the JSON line of a traced run;
/// both are also printed as a human-readable table.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation and whether it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records an oracle mismatch: the run is not correct and the check
  /// counts as one failed operation.
  void oracle(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return oracle_failures_ == 0; }

  /// Prints the per-layer self-time table of the span trees of `tracer`
  /// rooted at spans named `op_name`, per op: `ops` ops in total (0 = one
  /// per root span).  Self times add up to the traced op time; the
  /// remainder row is the root's own self time, which no layer span covers.
  void print_layer_table(const Tracer& tracer, const std::string& op_name,
                         double ops, double trace_overhead_frac) const;
  /// The human-readable metric listing and the final JSON line.
  void finish(bool trace) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t oracle_failures_ = 0;
};

// --- inputs ----------------------------------------------------------------

/// The read mix of the serving workloads: 80% MEMBER / 15% SAME / 5%
/// SUMMARY over uniformly drawn vertices, deterministic in `seed`.
[[nodiscard]] std::vector<std::string> make_read_mix(const std::string& graph,
                                                     asamap::graph::VertexId n,
                                                     std::size_t count,
                                                     std::uint64_t seed);

/// `g` with its vertex ids permuted by a seed-driven shuffle: the same
/// graph structure, presented to the program in a different vertex order.
[[nodiscard]] asamap::graph::CsrGraph relabel(const asamap::graph::CsrGraph& g,
                                              std::uint64_t seed);

/// Full-precision `key=` field of a protocol response (NaN when absent).
[[nodiscard]] double field(const std::string& response, const char* key);

/// Checks one read reply against the partition it should have been
/// answered from: `community=` for MEMBER, `same=` for SAME, and
/// `communities=` for SUMMARY.  False on ERR or any mismatch.
[[nodiscard]] bool read_matches(const std::string& request,
                                const std::string& response,
                                const std::vector<std::uint32_t>& partition,
                                std::size_t num_communities);

}  // namespace perfbench
