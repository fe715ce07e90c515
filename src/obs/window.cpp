#include "asamap/obs/window.hpp"

#include <algorithm>
#include <iterator>

#include "asamap/obs/format.hpp"

namespace asamap::obs {
namespace {

std::string sample_key(const MetricSample& s) {
  if (s.labels.empty()) return s.name;
  return s.name + '{' + s.labels + '}';
}

}  // namespace

std::vector<WindowTierConfig> default_window_tiers() {
  return {{1'000'000'000ULL, 10, "fast"}, {10'000'000'000ULL, 6, "slow"}};
}

WindowStore::WindowStore(const MetricRegistry& registry, WindowConfig config,
                         std::uint64_t now_ns)
    : registry_(registry), config_(std::move(config)) {
  if (config_.tiers.empty()) config_.tiers = default_window_tiers();
  tiers_.resize(config_.tiers.size());
  const Snapshot initial = take_snapshot(now_ns);
  for (auto& t : tiers_) {
    t.ring.push_back(initial);
    t.last_tick_ns = now_ns;
  }
}

WindowStore::Snapshot WindowStore::take_snapshot(
    std::uint64_t now_ns) const {
  Snapshot snap;
  snap.taken_ns = now_ns;
  for (auto& s : registry_.samples()) {
    switch (s.kind) {
      case MetricKind::kCounter:
        snap.counters.emplace(sample_key(s), s.value);
        break;
      case MetricKind::kHistogram:
        snap.hists.emplace(sample_key(s), std::move(s.hist));
        break;
      case MetricKind::kGauge:
        break;  // gauges are instantaneous; windows add nothing
    }
  }
  return snap;
}

void WindowStore::tick(std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked(now_ns);
}

void WindowStore::tick_locked(std::uint64_t now_ns) {
  // One registry snapshot serves every tier that rotates this tick.
  bool have_snap = false;
  Snapshot snap;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    Tier& tier = tiers_[t];
    const std::uint64_t interval = config_.tiers[t].interval_ns;
    if (now_ns < tier.last_tick_ns + interval) continue;
    const std::uint64_t crossed = (now_ns - tier.last_tick_ns) / interval;
    tier.last_tick_ns += crossed * interval;
    if (!have_snap) {
      snap = take_snapshot(now_ns);
      have_snap = true;
    }
    // Snapshots carry the time they were actually taken, so a gap (missed
    // ticks) shrinks the covered span instead of diluting rates: the
    // window start is whatever the surviving front bucket really saw.
    const std::size_t depth = config_.tiers[t].depth;
    if (crossed >= depth) {
      tier.ring.clear();
      tier.ring.push_back(snap);
      continue;
    }
    for (std::uint64_t k = 0; k < crossed; ++k) tier.ring.push_back(snap);
    while (tier.ring.size() > depth) tier.ring.erase(tier.ring.begin());
  }
}

std::uint64_t WindowStore::delta(std::string_view name,
                                 std::uint64_t now_ns, std::size_t tier) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked(now_ns);
  if (tier >= tiers_.size()) return 0;
  const double live = static_cast<double>(registry_.counter_sum(name));
  double base = 0.0;
  for (const auto& [key, v] : tiers_[tier].ring.front().counters) {
    if (key == name ||
        (key.size() > name.size() && key[name.size()] == '{' &&
         key.compare(0, name.size(), name) == 0)) {
      base += v;
    }
  }
  return live <= base ? 0
                      : static_cast<std::uint64_t>(live - base + 0.5);
}

double WindowStore::rate(std::string_view name, std::uint64_t now_ns,
                         std::size_t tier) {
  const std::uint64_t d = delta(name, now_ns, tier);
  const double span = window_seconds(tier, now_ns);
  return span <= 0.0 ? 0.0 : static_cast<double>(d) / span;
}

support::LatencyHistogram WindowStore::window_histogram(
    std::string_view name, std::uint64_t now_ns, std::size_t tier) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked(now_ns);
  if (tier >= tiers_.size()) return {};
  support::LatencyHistogram live = registry_.histogram_merged_all(name);
  support::LatencyHistogram base;
  for (const auto& [key, h] : tiers_[tier].ring.front().hists) {
    if (key == name ||
        (key.size() > name.size() && key[name.size()] == '{' &&
         key.compare(0, name.size(), name) == 0)) {
      base.merge(h);
    }
  }
  live.subtract(base);
  return live;
}

double WindowStore::window_seconds(std::size_t tier, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked(now_ns);
  if (tier >= tiers_.size()) return 0.0;
  const std::uint64_t start = tiers_[tier].ring.front().taken_ns;
  return now_ns <= start ? 0.0
                         : static_cast<double>(now_ns - start) * 1e-9;
}

std::vector<MetricSample> WindowStore::view_locked(
    const std::vector<MetricSample>& live, std::size_t t,
    std::uint64_t now_ns, double& span) const {
  const Snapshot& front = tiers_[t].ring.front();
  span = now_ns <= front.taken_ns
             ? 0.0
             : static_cast<double>(now_ns - front.taken_ns) * 1e-9;
  std::vector<MetricSample> view;
  for (const MetricSample& s : live) {
    if (s.kind == MetricKind::kGauge) continue;
    MetricSample& w = view.emplace_back(s);
    if (s.kind == MetricKind::kCounter) {
      const auto it = front.counters.find(sample_key(s));
      const double base = it == front.counters.end() ? 0.0 : it->second;
      w.value = span <= 0.0 ? 0.0 : std::max(0.0, s.value - base) / span;
    } else if (const auto it = front.hists.find(sample_key(s));
               it != front.hists.end()) {
      w.hist.subtract(it->second);
    }
  }
  return view;
}

void WindowStore::write_prometheus(std::ostream& os, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked(now_ns);
  const auto live = registry_.samples();
  std::vector<std::vector<MetricSample>> views(tiers_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    double span = 0.0;
    views[t] = view_locked(live, t, now_ns, span);
  }
  // The views as samples of their own, rendered by the cumulative scrape's
  // writer: each counter's rate as a `<name>_rate` gauge, each histogram
  // as a `<name>_window` summary, one series per tier labelled
  // window="<tier>".
  std::vector<MetricSample> rates, hists;
  for (std::size_t i = 0; i < views.front().size(); ++i) {
    for (std::size_t t = 0; t < views.size(); ++t) {
      MetricSample& s = views[t][i];
      s.labels += (s.labels.empty() ? "window=\"" : ",window=\"") +
                  std::string(config_.tiers[t].label) + '"';
      const bool counter = s.kind == MetricKind::kCounter;
      s.name += counter ? "_rate" : "_window";
      if (counter) s.kind = MetricKind::kGauge;
      (counter ? rates : hists).push_back(std::move(s));
    }
  }
  rates.insert(rates.end(), std::make_move_iterator(hists.begin()),
               std::make_move_iterator(hists.end()));
  obs::write_prometheus(os, rates);
}

void WindowStore::write_json(std::ostream& os, std::uint64_t now_ns,
                             const char* indent) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked(now_ns);
  const auto live = registry_.samples();
  os << "{\n";
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    double span = 0.0;
    const auto view = view_locked(live, t, now_ns, span);
    os << indent << "  \"" << config_.tiers[t].label << "\": {\n"
       << indent << "    \"window_seconds\": " << fmt_scrape(span) << ",\n"
       << indent << "    \"interval_seconds\": "
       << fmt_scrape(static_cast<double>(config_.tiers[t].interval_ns) *
                     1e-9)
       << ",\n"
       << indent << "    \"depth\": " << config_.tiers[t].depth << ",\n";
    for (const MetricKind kind : {MetricKind::kCounter, MetricKind::kHistogram}) {
      const bool rates = kind == MetricKind::kCounter;
      os << indent << (rates ? "    \"rates\": {" : "    \"histograms\": {");
      bool first = true;
      for (const auto& s : view) {
        if (s.kind != kind) continue;
        os << (first ? "\n" : ",\n") << indent << "      \""
           << escape_json(sample_key(s)) << "\": ";
        first = false;
        if (rates) {
          os << fmt_scrape(s.value);
          continue;
        }
        const support::LatencyHistogram& h = s.hist;
        os << "{\"count\": " << h.count() << ", \"rate\": "
           << fmt_scrape(span <= 0.0
                             ? 0.0
                             : static_cast<double>(h.count()) / span)
           << ", \"p50\": " << fmt_scrape(h.quantile_seconds(0.5))
           << ", \"p90\": " << fmt_scrape(h.quantile_seconds(0.9))
           << ", \"p99\": " << fmt_scrape(h.quantile_seconds(0.99)) << '}';
      }
      os << '\n' << indent << (rates ? "    },\n" : "    }\n");
    }
    os << indent << "  }" << (t + 1 < tiers_.size() ? ",\n" : "\n");
  }
  os << indent << '}';
}

}  // namespace asamap::obs
