#pragma once

/// \file harness.hpp
/// The phase harness the bench drivers are built from.

#include <cmath>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "asamap/obs/envelope.hpp"
#include "asamap/obs/format.hpp"

namespace asamap::benchutil {

class Table;

/// One JSON object of a bench artifact whose members, written once each,
/// also print as a console table.  Members keep their write order.
class Section {
 public:
  /// JSON at 9 significant digits (integers exact, non-finite as null).
  template <typename T>
    requires std::is_arithmetic_v<T>
  Section& put(const std::string& key, T v) {
    if constexpr (std::is_integral_v<T>) {
      return set(key, std::to_string(v), std::to_string(v));
    } else {
      return set(key, std::isfinite(v) ? obs::fmt_scrape(v) : "null",
                 obs::fmt_double(v));
    }
  }
  Section& text(const std::string& key, const std::string& value) {
    return set(key, '"' + obs::escape_json(value) + '"', value);
  }
  /// Already-rendered JSON, kept off the console.
  Section& raw(const std::string& key, std::string json) {
    return set(key, std::move(json), "");
  }
  /// A new nested object `key`; with `array`, a new element of array `key`.
  Section& child(const std::string& key, bool array = false);

  /// "Metric | Value" rows; nested keys print as paths ("a.b", "a[1].b").
  void print(std::ostream& out) const;
  /// `{<envelope>, <members>}`, objects opened one member per line.
  void write_document(std::ostream& out, const obs::BenchEnvelope& env) const;

 private:
  struct Field {
    std::string key, json, shown;  ///< empty `shown`: not on the console
    bool array = false;
    std::vector<std::unique_ptr<Section>> nested;
  };
  Section& set(const std::string& key, std::string json, std::string shown);
  void add_rows(Table& t, const std::string& prefix) const;
  void write_members(std::ostream& out, const std::string& indent) const;
  std::vector<Field> fields_;
};

/// Min-of-N per side; the noise floor is the largest (max - min) / min.
struct Interleaved {
  std::vector<double> best, spread;
  double noise_floor = 0.0;

  /// Signed relative cost of `side` over `base`: best[side]/best[base] - 1.
  [[nodiscard]] double overhead(std::size_t side, std::size_t base = 0) const {
    return best[base] > 0.0 ? best[side] / best[base] - 1.0 : 0.0;
  }
};

/// Runs `reps` rounds of every side, round r starting at side r % K, so
/// each side goes first equally often and neighbours share the host's slow
/// stretches.  A side returns one cost sample; lower is better.
Interleaved interleave(int reps,
                       const std::vector<std::function<double()>>& sides);

/// When `on`, runs into `root.child(name)` (`root` for an empty name)
/// under a banner naming it, then prints that section.
struct Phase {
  bool on = false;
  std::string name;
  std::function<void(Section&)> run;
};
void run_phases(const std::vector<Phase>& phases, Section& root,
                std::ostream& out);

}  // namespace asamap::benchutil
