#include "asamap/obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "asamap/obs/format.hpp"
#include "asamap/support/check.hpp"

namespace asamap::obs {
namespace {

std::string make_key(std::string_view name, std::string_view labels) {
  std::string key;
  key.reserve(name.size() + labels.size() + 2);
  key += name;
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

/// Escapes one stretch of label-value text for the exposition format,
/// passing already-escaped sequences (`\\`, `\"`, `\n`) through unchanged
/// so sanitizing is idempotent.
std::string escape_label_chunk(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const char c = v[i];
    if (c == '\\') {
      if (i + 1 < v.size() &&
          (v[i + 1] == '\\' || v[i + 1] == '"' || v[i + 1] == 'n')) {
        out += c;
        out += v[i + 1];
        ++i;
      } else {
        out += "\\\\";
      }
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Renders a stored label body (`key="value",...`) with every label value
/// escaped per the Prometheus exposition rules.  Writers are expected to
/// pass clean values (or run them through escape_label_value), but a raw
/// `"`, `\`, or newline that slipped into a value must not corrupt the
/// scrape: a value's closing quote is recognized only when followed by
/// `,` or end-of-body, so embedded quotes are treated as content.
std::string sanitize_labels(std::string_view labels) {
  std::string out;
  out.reserve(labels.size());
  std::size_t i = 0;
  while (i < labels.size()) {
    const std::size_t eq = labels.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= labels.size() ||
        labels[eq + 1] != '"') {
      // Not the key="value" shape: keep the text but neutralize newlines,
      // which would otherwise break the line-oriented exposition.
      out += escape_label_chunk(labels.substr(i));
      break;
    }
    out.append(labels.substr(i, eq + 2 - i));  // key="
    std::size_t close = eq + 2;
    while (close < labels.size() &&
           !(labels[close] == '"' && (close + 1 == labels.size() ||
                                      labels[close + 1] == ','))) {
      ++close;
    }
    out += escape_label_chunk(
        labels.substr(eq + 2, std::min(close, labels.size()) - (eq + 2)));
    out += '"';
    if (close >= labels.size()) break;
    i = close + 1;
    if (i < labels.size() && labels[i] == ',') {
      out += ',';
      ++i;
    }
  }
  return out;
}

/// `name{labels,extra}` with braces elided when there is nothing to wrap.
std::string prom_series(const std::string& name, const std::string& labels,
                        std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name;
  out += '{';
  out += sanitize_labels(labels);
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

/// A counter sample's value as the integer it renders as, saturating:
/// parsed and summed samples may lie past the uint64 range, where a plain
/// cast would be undefined.
std::uint64_t counter_value(double v) {
  return v >= std::ldexp(1.0, 64) ? std::numeric_limits<std::uint64_t>::max()
         : v > 0.0                ? static_cast<std::uint64_t>(v)
                                  : 0;
}

void write_prometheus_sample(std::ostream& os, const MetricSample& s) {
  switch (s.kind) {
    case MetricKind::kCounter:
      os << prom_series(s.name, s.labels) << ' ' << counter_value(s.value)
         << '\n';
      break;
    case MetricKind::kGauge:
      os << prom_series(s.name, s.labels) << ' ' << fmt_scrape(s.value)
         << '\n';
      break;
    case MetricKind::kHistogram: {
      for (const double q : {0.5, 0.9, 0.99}) {
        os << prom_series(s.name, s.labels,
                          "quantile=\"" + fmt_scrape(q) + "\"")
           << ' ' << fmt_scrape(s.hist.quantile_seconds(q)) << '\n';
      }
      os << prom_series(s.name + "_sum", s.labels) << ' '
         << fmt_scrape(s.hist.total_seconds()) << '\n';
      os << prom_series(s.name + "_count", s.labels) << ' ' << s.hist.count()
         << '\n';
      break;
    }
  }
}

/// Reads the JSON that write_json and the document envelopes emit, front
/// to back: objects, strings, and bare tokens (numbers, literals and the
/// `nan`/`inf` a non-finite gauge renders as).  Arrays never appear.
struct JsonReader {
  std::string_view s;
  std::size_t at = 0;

  void ws() {
    while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at]))) {
      ++at;
    }
  }
  /// Whether `c` comes next, after whitespace.
  bool peek(char c) {
    ws();
    return at < s.size() && s[at] == c;
  }
  bool eat(char c) { return peek(c) && ++at > 0; }

  /// `{ "key": value, ... }`: `member(key)` consumes each value.
  template <class Member>
  bool object(Member&& member) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    std::string key;
    do {
      if (!string(key) || !eat(':') || !member(key)) return false;
    } while (eat(','));
    return eat('}');
  }

  /// A string, unescaped: escape_json writes \" \\ \n \t and \u00XX.
  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (at < s.size()) {
      char c = s[at++];
      if (c == '"') return true;
      if (c == '\\' && at < s.size()) {
        c = s[at++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'u') {
          unsigned code = 0;
          const char* hex = s.data() + at;
          if (s.size() - at < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
              code >= 0x20) {
            return false;
          }
          c = static_cast<char>(code);
          at += 4;
        }
      }
      out += c;
    }
    return false;
  }

  /// A bare token: the run of characters a number or a literal spells.
  std::string_view token() {
    ws();
    const std::size_t from = at;
    while (at < s.size() && (std::isalnum(static_cast<unsigned char>(s[at])) ||
                             std::strchr("+-.", s[at]) != nullptr)) {
      ++at;
    }
    return s.substr(from, at - from);
  }
};

/// `text`, all of it, as a finite double; with `count`, also one a
/// counter or a histogram's sum/min/max holds: in [0, 2^64).
bool number(std::string_view text, double& out, bool count = false) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out) &&
         (!count || (out >= 0.0 && out < std::ldexp(1.0, 64)));
}

/// One member of a registry object, its value consumed from `in`.  A valid
/// sample is appended to `out`; anything else is dropped.  False only when
/// the JSON itself is malformed.
bool read_sample(JsonReader& in, const std::string& key,
                 std::vector<MetricSample>& out) {
  if (std::string skipped; in.peek('"')) return in.string(skipped);
  MetricSample s;
  const std::size_t brace = std::min(key.find('{'), key.size());
  s.name = key.substr(0, brace);
  s.labels = key.substr(std::min(brace + 1, key.size()));
  // A Prometheus name, [a-zA-Z_:][a-zA-Z0-9_:]*, and a braced label body.
  bool valid = !s.name.empty() &&
               !std::isdigit(static_cast<unsigned char>(s.name[0])) &&
               std::all_of(s.name.begin(), s.name.end(), [](char c) {
                 return std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':';
               });
  if (brace < key.size()) {
    valid = valid && s.labels.ends_with('}');
    if (valid) s.labels.pop_back();
  }
  if (!in.peek('{')) {
    s.kind = s.name.ends_with("_total") ? MetricKind::kCounter
                                        : MetricKind::kGauge;
    const std::string_view text = in.token();
    if (text.empty()) return false;
    valid = number(text, s.value, s.kind == MetricKind::kCounter) && valid;
  } else {
    // The derived fields (mean, p50, ...) are read and dropped.
    s.kind = MetricKind::kHistogram;
    double count = -1.0, sum = -1.0, min = -1.0, max = -1.0;
    std::string buckets;
    if (!in.object([&](const std::string& field) {
          if (field == "buckets") return in.string(buckets);
          const std::string_view text = in.token();
          double* v = field == "count" ? &count : field == "sum" ? &sum
                      : field == "min" ? &min : field == "max" ? &max
                                                               : nullptr;
          if (v != nullptr && !number(text, *v, true)) valid = false;
          return !text.empty();
        })) {
      return false;
    }
    s.hist = support::LatencyHistogram::decode(sum, min, max, buckets);
    // A missing field stays -1; a refused bucket pair shows in the count.
    valid = valid && std::min({sum, min, max}) >= 0.0 &&
            static_cast<double>(s.hist.count()) == count;
  }
  if (valid) out.push_back(std::move(s));
  return true;
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  return escape_label_chunk(value);
}

void write_prometheus(std::ostream& os,
                      std::span<const MetricSample> samples) {
  // Exposition format requires all samples of a metric name to sit
  // contiguously under one `# TYPE` line, so group by name (names ordered
  // by first appearance, label sets in sample order within one).
  std::vector<std::string_view> name_order;
  std::unordered_map<std::string_view, std::vector<const MetricSample*>>
      by_name;
  for (const auto& s : samples) {
    auto& group = by_name[s.name];
    if (group.empty()) name_order.push_back(s.name);
    group.push_back(&s);
  }
  for (const std::string_view name : name_order) {
    const auto& group = by_name[name];
    os << "# TYPE " << name << ' ' << to_string(group.front()->kind) << '\n';
    for (const MetricSample* sp : group) write_prometheus_sample(os, *sp);
  }
}

void write_json(std::ostream& os, std::span<const MetricSample> samples,
                const char* indent) {
  if (samples.empty()) {
    os << "{}";
    return;
  }
  os << "{\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    os << indent << "  \"" << escape_json(prom_series(s.name, s.labels))
       << "\": ";
    switch (s.kind) {
      case MetricKind::kCounter: os << counter_value(s.value); break;
      case MetricKind::kGauge: os << fmt_scrape(s.value); break;
      case MetricKind::kHistogram:
        os << "{\"count\": " << s.hist.count()
           << ", \"sum\": " << fmt_scrape(s.hist.total_seconds())
           << ", \"mean\": " << fmt_scrape(s.hist.mean_seconds())
           << ", \"min\": " << fmt_scrape(s.hist.min_seconds())
           << ", \"max\": " << fmt_scrape(s.hist.max_seconds())
           << ", \"p50\": " << fmt_scrape(s.hist.quantile_seconds(0.5))
           << ", \"p90\": " << fmt_scrape(s.hist.quantile_seconds(0.9))
           << ", \"p99\": " << fmt_scrape(s.hist.quantile_seconds(0.99))
           << ", \"buckets\": \"" << s.hist.encode_buckets() << "\"}";
        break;
    }
    os << (i + 1 < samples.size() ? ",\n" : "\n");
  }
  os << indent << '}';
}

bool parse_metrics_json(std::string_view json,
                        std::vector<MetricSample>& out) {
  JsonReader in{json};
  std::vector<MetricSample> top, nested;
  bool has_nested = false;
  const bool ok = in.object([&](const std::string& key) {
    if (key != "metrics" || !in.peek('{')) return read_sample(in, key, top);
    has_nested = true;
    return in.object(
        [&](const std::string& k) { return read_sample(in, k, nested); });
  });
  in.ws();
  if (!ok || in.at != json.size()) return false;
  out = std::move(has_nested ? nested : top);
  return true;
}

MetricRegistry::Entry& MetricRegistry::find_or_create(MetricKind kind,
                                                      std::string_view name,
                                                      std::string_view labels) {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    Entry& e = *entries_[it->second];
    ASAMAP_CHECK(e.kind == kind, "metric '" + key + "' already registered as " +
                                     std::string(to_string(e.kind)));
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = std::string(name);
  entry->labels = std::string(labels);
  switch (kind) {
    case MetricKind::kCounter: entry->c = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: entry->g = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram:
      entry->h = std::make_unique<Histogram>();
      break;
  }
  index_[key] = entries_.size();
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

const MetricRegistry::Entry* MetricRegistry::find(
    std::string_view name, std::string_view labels) const {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : entries_[it->second].get();
}

Counter& MetricRegistry::counter(std::string_view name,
                                 std::string_view labels) {
  return *find_or_create(MetricKind::kCounter, name, labels).c;
}

Gauge& MetricRegistry::gauge(std::string_view name, std::string_view labels) {
  return *find_or_create(MetricKind::kGauge, name, labels).g;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::string_view labels) {
  return *find_or_create(MetricKind::kHistogram, name, labels).h;
}

std::vector<MetricSample> MetricRegistry::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.kind = e->kind;
    s.name = e->name;
    s.labels = e->labels;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e->c->value());
        break;
      case MetricKind::kGauge: s.value = e->g->value(); break;
      case MetricKind::kHistogram: s.hist = e->h->merged(); break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricRegistry::write_prometheus(std::ostream& os) const {
  obs::write_prometheus(os, samples());
}

void MetricRegistry::write_json(std::ostream& os, const char* indent) const {
  obs::write_json(os, samples(), indent);
}

std::uint64_t MetricRegistry::counter_total(std::string_view name,
                                            std::string_view labels) const {
  const Entry* e = find(name, labels);
  return e != nullptr && e->kind == MetricKind::kCounter ? e->c->value() : 0;
}

double MetricRegistry::gauge_value(std::string_view name,
                                   std::string_view labels) const {
  const Entry* e = find(name, labels);
  return e != nullptr && e->kind == MetricKind::kGauge ? e->g->value() : 0.0;
}

std::uint64_t MetricRegistry::counter_sum(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& e : entries_) {
    if (e->kind == MetricKind::kCounter && e->name == name) {
      sum += e->c->value();
    }
  }
  return sum;
}

support::LatencyHistogram MetricRegistry::histogram_merged(
    std::string_view name, std::string_view labels) const {
  const Entry* e = find(name, labels);
  return e != nullptr && e->kind == MetricKind::kHistogram
             ? e->h->merged()
             : support::LatencyHistogram{};
}

support::LatencyHistogram MetricRegistry::histogram_merged_all(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  support::LatencyHistogram out;
  for (const auto& e : entries_) {
    if (e->kind == MetricKind::kHistogram && e->name == name) {
      out.merge(e->h->merged());
    }
  }
  return out;
}

double MetricRegistry::histogram_total_seconds(std::string_view name,
                                               std::string_view labels) const {
  return histogram_merged(name, labels).total_seconds();
}

}  // namespace asamap::obs
