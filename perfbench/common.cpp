#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "asamap/support/hash.hpp"
#include "asamap/support/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double iqr_frac(const std::vector<double>& v) {
  const double m = median(v);
  return m == 0.0 ? 0.0 : (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return asamap::support::mix64(asamap::support::mix64(seed) ^
                                (stream * 0x9E3779B97F4A7C15ULL));
}

// --- tracing ---------------------------------------------------------------

std::uint64_t Tracer::begin(const char* name, const char* layer,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (recs_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  recs_.push_back(Rec{name, layer, parent, start, 0});
  return recs_.size();
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::uint64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  recs_[id - 1].end = stop;
}

void Tracer::add_child(std::uint64_t parent, const char* name,
                       const char* layer, double seconds) {
  if (!enabled_ || parent == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (recs_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  recs_.push_back(Rec{name, layer, parent, 0,
                      static_cast<std::uint64_t>(std::llround(
                          std::max(seconds, 0.0) * 1e9))});
}

std::map<std::string, Tracer::Total> Tracer::totals(
    const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_s(recs_.size(), 0.0);
  // A parent always precedes its children, so one forward pass resolves
  // every span's tree root.
  std::vector<std::size_t> root_of(recs_.size());
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    root_of[i] = r.parent == 0 ? i : root_of[r.parent - 1];
    if (r.parent != 0 && r.end >= r.start) {
      child_s[r.parent - 1] += static_cast<double>(r.end - r.start) * 1e-9;
    }
  }
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.end < r.start || root != recs_[root_of[i]].name) continue;
    const double dur = static_cast<double>(r.end - r.start) * 1e-9;
    Total& t = out[r.name];
    t.layer = r.layer;
    t.count += 1;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

std::uint64_t Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recs_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// --- host probes -----------------------------------------------------------

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t v[8] = {};
  for (auto& x : v) in >> x;
  for (const auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- report ----------------------------------------------------------------

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = Metric{value, unit};
}

void Report::oracle(bool ok, const std::string& what) {
  std::cout << "oracle " << (ok ? "ok  " : "FAIL") << "  " << what << '\n';
  op(ok);
  if (!ok) ++oracle_failures_;
}

void Report::print_layer_table(const Tracer& tracer, const std::string& op_name,
                               double ops, double trace_overhead_frac) const {
  const auto totals = tracer.totals(op_name);
  const auto root = totals.find(op_name);
  if (root == totals.end() || root->second.count == 0) return;
  if (ops <= 0) ops = static_cast<double>(root->second.count);
  const double op_us = root->second.total_s / ops * 1e6;
  std::printf("\nper-layer self time per op: %s (%.0f traced ops)\n",
              op_name.c_str(), ops);
  std::printf("  %-40s %-6s %14s %8s\n", "span", "layer", "self us/op",
              "share");
  double covered = 0.0;
  for (const auto& [name, t] : totals) {
    if (name == op_name) continue;
    const double self_us = t.self_s / ops * 1e6;
    covered += self_us;
    std::printf("  %-40s %-6s %14.3f %7.1f%%\n", name.c_str(),
                t.layer.c_str(), self_us, 100.0 * self_us / op_us);
  }
  const double rest = op_us - covered;
  std::printf("  %-40s %-6s %14.3f %7.1f%%\n", "(unattributed: root self time)",
              root->second.layer.c_str(), rest, 100.0 * rest / op_us);
  std::printf("  %-40s %-6s %14.3f %7.1f%%\n", "= traced op", "", op_us,
              100.0);
  if (std::isfinite(trace_overhead_frac)) {
    std::printf("  obs.trace_overhead_frac %+.4f (traced vs untraced op)\n",
                trace_overhead_frac);
  }
}

void Report::finish(bool trace) const {
  const auto print = [](const char* title,
                        const std::map<std::string, Metric>& m) {
    std::printf("\n%s\n", title);
    for (const auto& [name, x] : m) {
      std::printf("  %-28s %16.6f %s\n", name.c_str(), x.value,
                  x.unit.c_str());
    }
  };
  print("end-to-end metrics", e2e_);
  print("per-layer metrics", layer_);
  std::printf("\nops attempted=%llu failed=%llu oracle_failures=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(oracle_failures_));

  std::ostringstream js;
  js.precision(12);
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, x] : trace ? layer_ : e2e_) {
    js << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << (std::isfinite(x.value) ? x.value : 0.0) << ", \"unit\": \""
       << x.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << '\n' << js.str() << std::endl;
}

// --- inputs ----------------------------------------------------------------

std::vector<std::string> make_read_mix(const std::string& graph,
                                       asamap::graph::VertexId n,
                                       std::size_t count, std::uint64_t seed) {
  asamap::support::Xoshiro256 rng(seed);
  std::vector<std::string> mix;
  mix.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 80) {
      mix.push_back("MEMBER " + graph + " " +
                    std::to_string(rng.next_below(n)));
    } else if (roll < 95) {
      const auto u = rng.next_below(n);
      const auto v = rng.next_below(n);
      mix.push_back("SAME " + graph + " " + std::to_string(u) + " " +
                    std::to_string(v));
    } else {
      mix.push_back("SUMMARY " + graph);
    }
  }
  return mix;
}

asamap::graph::CsrGraph relabel(const asamap::graph::CsrGraph& g,
                                std::uint64_t seed) {
  const asamap::graph::VertexId n = g.num_vertices();
  std::vector<asamap::graph::VertexId> perm(n);
  for (asamap::graph::VertexId v = 0; v < n; ++v) perm[v] = v;
  asamap::support::Xoshiro256 rng(seed);
  for (asamap::graph::VertexId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  asamap::graph::EdgeList edges;
  edges.reserve(g.num_arcs());
  for (asamap::graph::VertexId u = 0; u < n; ++u) {
    for (const auto& arc : g.out_neighbors(u)) {
      edges.add(perm[u], perm[arc.dst], arc.weight);
    }
  }
  edges.coalesce();
  return asamap::graph::CsrGraph::from_edges(edges, n);
}

double field(const std::string& response, const char* key) {
  const std::string pat = std::string(" ") + key + "=";
  const auto at = response.find(pat);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(response.c_str() + at + pat.size(), nullptr);
}

bool read_matches(const std::string& request, const std::string& response,
                  const std::vector<std::uint32_t>& partition,
                  std::size_t num_communities) {
  if (response.rfind("OK", 0) != 0) return false;
  std::istringstream in(request);
  std::string verb, graph;
  in >> verb >> graph;
  if (verb == "MEMBER") {
    std::uint64_t v = 0;
    in >> v;
    return v < partition.size() &&
           field(response, "community") == static_cast<double>(partition[v]);
  }
  if (verb == "SAME") {
    std::uint64_t u = 0, v = 0;
    in >> u >> v;
    if (u >= partition.size() || v >= partition.size()) return false;
    const double same = partition[u] == partition[v] ? 1.0 : 0.0;
    return field(response, "same") == same;
  }
  if (verb == "SUMMARY") {
    return field(response, "communities") ==
           static_cast<double>(num_communities);
  }
  return false;
}

}  // namespace perfbench
