#pragma once

/// \file metrics.hpp
/// asamap::obs — the unified observability layer's named-metric registry.
///
/// The paper's whole argument is counter-driven (per-kernel time breakdowns,
/// branch-misprediction and CPI tables), and the serving layer needs the
/// same discipline at runtime: one place where every subsystem registers
/// monotonic counters, gauges, and latency histograms under stable
/// Prometheus-style names, and one scrape path that renders them all.
///
/// Concurrency model: registration (the name -> handle lookup) takes a
/// registry mutex, but handles are resolved once and cached by hot paths.
/// Recording through a handle is lock-cheap — counters and gauges are
/// single relaxed atomics, histograms shard per thread (each shard owns a
/// support::LatencyHistogram behind an effectively uncontended mutex) and
/// are merged only on scrape.  Scraping concurrently with recording is safe
/// and TSAN-clean by construction.
///
/// Naming conventions (see DESIGN.md §4d for the full inventory):
///   asamap_<subsystem>_<quantity>[_total]   e.g. asamap_jobs_rejected_total
///   labels as a literal Prometheus label body: `verb="MEMBER"`,
///   `kernel="PageRank"`, `lane="batch"` — comma-separated when several.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asamap/support/histogram.hpp"

namespace asamap::obs {

/// Monotonically increasing event count.  inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A value that can go up and down (queue depth, resident bytes, the last
/// run's codelength).  set()/value() are single atomic ops; add() is a CAS
/// loop (atomic<double>::fetch_add is C++20 but spotty across toolchains).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Latency distribution: per-thread shards over support::LatencyHistogram,
/// merged on scrape.  Each recording thread hashes to its own shard, so the
/// per-record mutex is uncontended in steady state; merged() takes every
/// shard lock briefly, which is what makes scrape-while-record race-free.
class Histogram {
 public:
  static constexpr int kShards = 16;

  void record_ns(std::uint64_t ns) {
    Shard& s = shards_[shard_index()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.h.record_ns(ns);
  }
  void record_seconds(double seconds) {
    Shard& s = shards_[shard_index()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.h.record_seconds(seconds);
  }

  /// One consistent merged view (each shard is merged under its own lock;
  /// recordings that land mid-scrape appear in the next scrape).
  [[nodiscard]] support::LatencyHistogram merged() const {
    support::LatencyHistogram out;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.merge(s.h);
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    support::LatencyHistogram h;
  };

  /// Stable per-thread shard slot: threads are numbered in first-use order
  /// (shared across all Histogram instances — it is a thread id, not a
  /// metric id).
  static int shard_index() noexcept {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned mine =
        next.fetch_add(1, std::memory_order_relaxed);
    return static_cast<int>(mine % kShards);
  }

  std::array<Shard, kShards> shards_;
};

/// Escapes a label *value* for use inside a label body (`\` → `\\`,
/// `"` → `\"`, newline → `\n`); already-escaped sequences pass through, so
/// double-escaping is impossible.  Writers building labels from external
/// text (graph names, file paths) should run it through this; the
/// Prometheus renderer additionally sanitizes every value defensively at
/// scrape time so a raw value cannot corrupt the exposition.
[[nodiscard]] std::string escape_label_value(std::string_view value);

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "summary";
  }
  return "unknown";
}

/// One scraped metric: a point-in-time copy safe to read without locks.
struct MetricSample {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  std::string labels;          ///< label body without braces, may be empty
  double value = 0.0;          ///< counter / gauge value
  support::LatencyHistogram hist;  ///< populated for histograms
};

/// The one Prometheus text writer (METRICS, METRICS WINDOW, METRICS
/// FLEET): a `# TYPE` line per name over its samples, names in
/// first-appearance order; counters as integers, gauges at 9 significant
/// digits, histograms as summaries (p50/p90/p99 + _sum/_count).
void write_prometheus(std::ostream& os, std::span<const MetricSample> samples);

/// The samples as one JSON object keyed `name` or `name{label="v"}`:
/// counters and gauges map to numbers, histograms to {count, sum, mean,
/// min, max, p50, p90, p99, buckets} objects — `buckets` is the sparse
/// LatencyHistogram::encode_buckets() form, the mergeable representation.
/// Lines after the first are prefixed with `indent` so the object nests
/// into a caller's envelope; no trailing newline.
void write_json(std::ostream& os, std::span<const MetricSample> samples,
                const char* indent = "  ");

/// The inverse of write_json, over that object or a `METRICS json`
/// document carrying it as "metrics".  An object value is a histogram
/// (LatencyHistogram::decode), a `_total` name a counter, else a gauge.
/// The text is peer input: a sample with a bad name, a non-finite value
/// (a counter's or histogram field's outside [0, 2^64)) or a count its
/// buckets disagree with is dropped.  False, `out` untouched, when the
/// text is not such a JSON object.
bool parse_metrics_json(std::string_view json, std::vector<MetricSample>& out);

/// The named-metric registry.  Handles returned by counter()/gauge()/
/// histogram() are valid for the registry's lifetime and stable across
/// further registrations; repeated calls with the same (name, labels)
/// return the same handle.  A (name, labels) pair registered under two
/// different kinds is a programming error and throws.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {});

  /// Point-in-time copy of every metric, in registration order.
  [[nodiscard]] std::vector<MetricSample> samples() const;

  /// obs::write_prometheus / obs::write_json over samples().
  void write_prometheus(std::ostream& os) const;
  void write_json(std::ostream& os, const char* indent = "  ") const;

  /// Exact-key scalar lookups (0 when the metric is absent).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name,
                                            std::string_view labels = {}) const;
  [[nodiscard]] double gauge_value(std::string_view name,
                                   std::string_view labels = {}) const;

  /// Sum of every counter registered under `name`, across all label sets.
  [[nodiscard]] std::uint64_t counter_sum(std::string_view name) const;

  /// Merged view of one histogram (exact key); empty when absent.
  [[nodiscard]] support::LatencyHistogram histogram_merged(
      std::string_view name, std::string_view labels = {}) const;

  /// Merged view across every label set of `name`.
  [[nodiscard]] support::LatencyHistogram histogram_merged_all(
      std::string_view name) const;

  /// Sum of recorded values, in seconds, of one histogram (exact key).
  [[nodiscard]] double histogram_total_seconds(
      std::string_view name, std::string_view labels = {}) const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string name;
    std::string labels;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  Entry& find_or_create(MetricKind kind, std::string_view name,
                        std::string_view labels);
  [[nodiscard]] const Entry* find(std::string_view name,
                                  std::string_view labels) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
  std::unordered_map<std::string, std::size_t> index_;  ///< key -> entries_
};

}  // namespace asamap::obs
