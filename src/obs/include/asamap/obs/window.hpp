#pragma once

/// \file window.hpp
/// obs::WindowStore — windowed rates and rolling quantiles on top of the
/// cumulative MetricRegistry (ISSUE 10).
///
/// The registry's counters only ever go up; operators and the health layer
/// need *rates over recent windows* ("requests/sec over the last 10s",
/// "p99 over the last minute").  The store keeps, per configured tier, a
/// fixed ring of buckets; each bucket is a cumulative snapshot of every
/// registered counter and histogram, stamped with the monotonic time it
/// was taken.  A windowed value is then live-minus-oldest: counter deltas
/// divide by the real covered span for rates, histogram deltas subtract
/// bucket counts (support::LatencyHistogram::subtract) so rolling
/// quantiles come from exactly the samples recorded inside the window.
///
/// Ticking is caller-driven: every query passes a monotonic `now_ns` and
/// the store rotates as many buckets as intervals have elapsed — there is
/// no hidden clock thread, which keeps tests deterministic (feed synthetic
/// timestamps) and keeps the record path untouched (recording threads
/// never see the store; only scrapes pay for snapshots).  A gap longer
/// than a tier's whole window resets that tier's ring with one fresh
/// snapshot.
///
/// Default tiers (configurable): fast = 10 × 1s (a 10s window), slow =
/// 6 × 10s (a 60s window) — the fast/slow pair the burn-rate health rules
/// in health.hpp consume.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asamap/obs/metrics.hpp"
#include "asamap/support/histogram.hpp"

namespace asamap::obs {

/// The monotonic clock the serving processes feed into WindowStore and
/// HealthTracker: nanoseconds on the process steady clock.
[[nodiscard]] inline std::uint64_t mono_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct WindowTierConfig {
  std::uint64_t interval_ns = 1'000'000'000;  ///< bucket width
  std::size_t depth = 10;                     ///< buckets in the ring
  const char* label = "fast";                 ///< window= label on output
};

/// 10 × 1s ("fast", a 10s window) and 6 × 10s ("slow", a 60s window).
/// Out of line: GCC 12 reports an inlined copy of an initializer list of
/// these structs as maybe-uninitialized.
std::vector<WindowTierConfig> default_window_tiers();

struct WindowConfig {
  std::vector<WindowTierConfig> tiers = default_window_tiers();
};

class WindowStore {
 public:
  /// The registry must outlive the store.  The first snapshot (bucket 0 of
  /// every tier) is taken at construction, stamped `now_ns`; callers must
  /// pass the same monotonic clock here that they will feed to every later
  /// call (it only has to never go backwards).  Passing a clock that is
  /// already far past `now_ns` would make the first tick look like a
  /// window-sized gap and reset the rings.
  explicit WindowStore(const MetricRegistry& registry,
                       WindowConfig config = {}, std::uint64_t now_ns = 0);

  WindowStore(const WindowStore&) = delete;
  WindowStore& operator=(const WindowStore&) = delete;

  /// Rotates every tier whose interval has elapsed since its last tick.
  /// Queries call this themselves; an explicit tick is only needed to
  /// advance time without reading (e.g. a bench's scraper loop).
  void tick(std::uint64_t now_ns);

  /// Counter increase over `tier`'s window (summed across every label set
  /// of `name`), as of `now_ns`.  0 when the name is unknown.
  [[nodiscard]] std::uint64_t delta(std::string_view name,
                                    std::uint64_t now_ns,
                                    std::size_t tier = 0);

  /// delta() divided by the window's real covered span, in per-second
  /// units.  0 before any time has passed.
  [[nodiscard]] double rate(std::string_view name, std::uint64_t now_ns,
                            std::size_t tier = 0);

  /// The merged histogram of samples recorded inside `tier`'s window,
  /// across every label set of `name` — rolling-window quantiles come from
  /// quantile_seconds() on the result.
  [[nodiscard]] support::LatencyHistogram window_histogram(
      std::string_view name, std::uint64_t now_ns, std::size_t tier = 0);

  /// Seconds the tier's window actually covers right now (ramps up from 0
  /// after a reset until the ring is full).
  [[nodiscard]] double window_seconds(std::size_t tier,
                                      std::uint64_t now_ns);

  [[nodiscard]] std::size_t num_tiers() const { return tiers_.size(); }
  [[nodiscard]] const WindowTierConfig& tier_config(std::size_t t) const {
    return config_.tiers[t];
  }

  /// Every counter's per-tier rate and every histogram's windowed
  /// summary, as `name{...,window="fast"}` Prometheus series (`_rate`
  /// gauges, `_window` summaries, through obs::write_prometheus) or one
  /// JSON object.  Drives the METRICS WINDOW verb.
  void write_prometheus(std::ostream& os, std::uint64_t now_ns);
  void write_json(std::ostream& os, std::uint64_t now_ns,
                  const char* indent = "  ");

 private:
  /// One cumulative snapshot: key (`name` or `name{labels}`) → value.
  struct Snapshot {
    std::uint64_t taken_ns = 0;
    std::unordered_map<std::string, double> counters;
    std::unordered_map<std::string, support::LatencyHistogram> hists;
  };
  struct Tier {
    std::vector<Snapshot> ring;  ///< front = oldest; size = depth once warm
    std::uint64_t last_tick_ns = 0;
  };

  Snapshot take_snapshot(std::uint64_t now_ns) const;
  /// Tier `t`'s view of the `live` counters and histograms (mu_ held): a
  /// counter's value becomes its per-second rate over the window, a
  /// histogram keeps only its in-window samples.  `span` gets the seconds
  /// the window covers.
  std::vector<MetricSample> view_locked(const std::vector<MetricSample>& live,
                                        std::size_t t, std::uint64_t now_ns,
                                        double& span) const;
  void tick_locked(std::uint64_t now_ns);

  const MetricRegistry& registry_;
  WindowConfig config_;
  std::mutex mu_;  ///< guards tiers_; never held while recording metrics
  std::vector<Tier> tiers_;
};

}  // namespace asamap::obs
