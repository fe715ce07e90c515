#pragma once

/// \file histogram.hpp
/// Log-bucketed latency histogram for the serving layer's request metrics.
/// Buckets are base-2 exponents with 4 linear sub-buckets each (HdrHistogram
/// shape), so relative error is bounded at ~12.5% across the full nanosecond
/// to hours range with a fixed 256-slot footprint.  Per-thread instances are
/// merged after a run; no synchronization inside.

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace asamap::support {

class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 4;  // linear slots per power of two
  static constexpr int kBuckets = 256;   // covers the full uint64 ns range

  void record_ns(std::uint64_t ns) {
    counts_[bucket_of(ns)] += 1;
    count_ += 1;
    sum_ns_ += static_cast<double>(ns);
    if (ns < min_ns_) min_ns_ = ns;
    if (ns > max_ns_) max_ns_ = ns;
  }

  void record_seconds(double seconds) { record_ns(to_ns(seconds)); }

  void merge(const LatencyHistogram& other) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    if (other.min_ns_ < min_ns_) min_ns_ = other.min_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
  }

  /// Removes an earlier cumulative snapshot, leaving only the samples
  /// recorded since it — the windowed-metrics delta.  `base` must be a
  /// prefix of this histogram's history (per-bucket counts subtract
  /// saturating, so a racy snapshot degrades to a clamped delta rather than
  /// wrapping).  min/max cannot be subtracted, so they are re-derived from
  /// the surviving buckets' edges: quantiles stay clamped to a range every
  /// remaining sample could actually occupy, rather than to the stale
  /// lifetime extremes.
  void subtract(const LatencyHistogram& base) {
    count_ = 0;
    sum_ns_ = std::fmax(0.0, sum_ns_ - base.sum_ns_);
    min_ns_ = std::numeric_limits<std::uint64_t>::max();
    max_ns_ = 0;
    for (int b = 0; b < kBuckets; ++b) {
      counts_[b] -= counts_[b] > base.counts_[b] ? base.counts_[b]
                                                 : counts_[b];
      if (counts_[b] == 0) continue;
      count_ += counts_[b];
      const auto lo = static_cast<std::uint64_t>(bucket_lo_ns(b));
      const auto hi = static_cast<std::uint64_t>(bucket_lo_ns(b) +
                                                 bucket_width_ns(b) - 1.0);
      if (lo < min_ns_) min_ns_ = lo;
      if (hi > max_ns_) max_ns_ = hi;
    }
    if (count_ == 0) sum_ns_ = 0.0;
  }

  /// Sparse wire form of the bucket array: `b:c` pairs, comma-separated,
  /// empty for an empty histogram.  Together with count/sum/min/max this is
  /// the mergeable representation the router's fleet scrape ships across
  /// processes; decode() below is the exact inverse.
  [[nodiscard]] std::string encode_buckets() const {
    std::string out;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (!out.empty()) out += ',';
      out += std::to_string(b);
      out += ':';
      out += std::to_string(counts_[b]);
    }
    return out;
  }

  /// Rebuilds a histogram from its scraped fields + encode_buckets() text,
  /// so it merges and quantiles exactly like the in-process original.  The
  /// text is peer input: a bucket pair that fails to parse or would wrap
  /// the total is skipped (count() always equals the bucket sum), and the
  /// scalars clamp into range like record_seconds().
  static LatencyHistogram decode(double sum_seconds, double min_seconds,
                                 double max_seconds,
                                 std::string_view buckets) {
    LatencyHistogram h;
    for (std::size_t at = 0; at < buckets.size();) {
      const std::size_t end = std::min(buckets.find(',', at), buckets.size());
      const char* last = buckets.data() + end;
      int b = -1;
      std::uint64_t c = 0;
      const auto [colon, ec] = std::from_chars(buckets.data() + at, last, b);
      at = end + 1;
      if (ec != std::errc() || colon == last || *colon != ':' ||
          std::from_chars(colon + 1, last, c).ptr != last || b < 0 ||
          b >= kBuckets || c == 0 ||
          c > std::numeric_limits<std::uint64_t>::max() - h.count_) {
        continue;
      }
      h.counts_[static_cast<std::size_t>(b)] += c;
      h.count_ += c;
    }
    const double sum_ns = sum_seconds * 1e9;
    h.sum_ns_ = std::isfinite(sum_ns) && sum_ns > 0.0 ? sum_ns : 0.0;
    if (h.count_ > 0) {
      h.min_ns_ = to_ns(min_seconds);
      h.max_ns_ = to_ns(max_seconds);
    }
    return h;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double total_seconds() const noexcept { return sum_ns_ * 1e-9; }
  [[nodiscard]] double mean_seconds() const noexcept {
    return count_ == 0 ? 0.0 : sum_ns_ * 1e-9 / static_cast<double>(count_);
  }
  [[nodiscard]] double min_seconds() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(min_ns_) * 1e-9;
  }
  [[nodiscard]] double max_seconds() const noexcept {
    return static_cast<double>(max_ns_) * 1e-9;
  }

  /// Value at quantile q in [0, 1] (q=0.5 -> p50), interpolated by rank
  /// within the bucket holding that rank: the bucket's m samples are treated
  /// as spread evenly across its value range, so the j-th of them sits at
  /// lo + (j + 0.5)/m * width.  Clamped to the observed min/max so p0/p100
  /// are exact and a single-sample distribution reports the sample itself.
  [[nodiscard]] double quantile_seconds(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return min_seconds();
    if (q >= 1.0) return max_seconds();
    const double target = q * static_cast<double>(count_ - 1);
    double seen = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      const double m = static_cast<double>(counts_[b]);
      if (seen + m > target) {
        const double in_bucket = target - seen;  // in [0, m)
        const double v = bucket_lo_ns(b) +
                         (in_bucket + 0.5) / m * bucket_width_ns(b);
        const double lo = static_cast<double>(min_ns_);
        const double hi = static_cast<double>(max_ns_);
        return std::fmin(std::fmax(v, lo), hi) * 1e-9;
      }
      seen += m;
    }
    return max_seconds();  // unreachable when counts are consistent
  }

 private:
  /// Seconds to the nearest ns (truncating biased every sample low:
  /// 0.9999ns -> bucket 0); negative and NaN give 0, and values past the
  /// uint64 range saturate, where a plain cast would be undefined.
  static std::uint64_t to_ns(double seconds) noexcept {
    const double ns = seconds * 1e9 + 0.5;
    if (!(ns >= 1.0)) return 0;
    if (ns >= std::ldexp(1.0, 64)) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    return static_cast<std::uint64_t>(ns);
  }

  /// ns < 4 map to buckets 0..3; otherwise (exp-1)*4 + top-2-mantissa-bits,
  /// which continues the sequence without gaps (ns=4..7 -> buckets 4..7).
  static int bucket_of(std::uint64_t ns) noexcept {
    if (ns < kSubBuckets) return static_cast<int>(ns);
    const int exp = 63 - std::countl_zero(ns);
    const int sub = static_cast<int>((ns >> (exp - 2)) & 3);
    return (exp - 1) * kSubBuckets + sub;
  }

  /// Lower edge of bucket b's value range, in ns.
  static double bucket_lo_ns(int b) noexcept {
    if (b < kSubBuckets) return static_cast<double>(b);
    const int exp = b / kSubBuckets + 1;
    const int sub = b % kSubBuckets;
    return std::ldexp(static_cast<double>(kSubBuckets + sub), exp - 2);
  }

  /// Width of bucket b's value range, in ns (exact buckets below
  /// kSubBuckets have width 1).
  static double bucket_width_ns(int b) noexcept {
    if (b < kSubBuckets) return 1.0;
    return std::ldexp(1.0, b / kSubBuckets - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
  std::uint64_t min_ns_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns_ = 0;
};

}  // namespace asamap::support
