#include "asamap/serve/ops_surface.hpp"

#include <sstream>
#include <utility>

#include "asamap/fault/fault.hpp"
#include "asamap/obs/build_info.hpp"
#include "asamap/obs/envelope.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/protocol.hpp"

namespace asamap::serve {

using namespace protocol;

namespace {

/// The METRICS family's format dispatch: `prom(out)` writes the
/// Prometheus text, `json()` returns the JSON document; any other format is
/// refused naming `what`, before either runs.
template <class Prom, class Json>
std::string by_format(std::string_view what, std::string_view format,
                      Prom&& prom, Json&& json) {
  if (format == "prom" || format == "prometheus") {
    std::ostringstream out;
    prom(out);
    // The envelope owns the terminator, so the renderer's final newline
    // goes.
    std::string text = out.str();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    return enveloped("prometheus", text);
  }
  if (format == "json") return enveloped("json", json());
  return err(ServeCode::kInvalidArgument,
             std::string(what) + ": unknown format '" + std::string(format) +
                 "' (want prom or json)");
}

/// A METRICS-family JSON document: `{`, the envelope fields named `bench`,
/// the members `body` writes (the last one without a trailing comma), `}`.
template <class Body>
std::string json_document(std::string bench, Body&& body) {
  std::ostringstream out;
  out << "{\n";
  obs::write_envelope_fields(out, obs::make_envelope(std::move(bench)), "  ");
  body(out);
  out << "\n}";
  return out.str();
}

}  // namespace

OpsSurface::OpsSurface(obs::MetricRegistry& metrics, obs::WindowStore& window,
                       obs::HealthTracker& health, std::string prefix)
    : metrics_(metrics),
      window_(window),
      health_(health),
      uptime_(metrics.gauge("asamap_uptime_seconds")),
      prefix_(std::move(prefix)) {
  uptime_.set(obs::process_uptime_seconds());
}

std::string OpsSurface::handle(verbs::Id verb,
                               const std::vector<std::string_view>& tokens,
                               const obs::HealthInputs& liveness) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  switch (verb) {
    case verbs::Id::kMetrics:
      return metrics(tokens.size() == 2 ? tokens[1] : "prom");
    case verbs::Id::kMetricsWindow:
      return window(tokens.size() == 3 ? tokens[2] : "prom");
    case verbs::Id::kHealth:
      return health(liveness);
    case verbs::Id::kTraceDump: {
      std::ostringstream out;
      rec.write_chrome_json(out);  // one line, so transcripts stay parseable
      return enveloped("chrome-trace", out.str());
    }
    case verbs::Id::kTraceStatus: {
      const obs::TraceStats stats = rec.stats();
      std::string out = "OK enabled=";
      out += stats.enabled ? '1' : '0';
      out += " rings=" + std::to_string(stats.rings) +
             " capacity=" + std::to_string(stats.ring_capacity) +
             " recorded=" + std::to_string(stats.recorded) +
             " dropped=" + std::to_string(stats.dropped) +
             " dropped_fraction=" + fmt_double(stats.dropped_fraction);
      // The rings hold only the newest events; once most of the run has
      // been overwritten a DUMP is a sliver, not a trace — say so here
      // instead of letting the near-empty dump speak for itself.
      if (stats.dropped_fraction > 0.5) out += " warning=ring_wrapped";
      return out;
    }
    case verbs::Id::kTraceMark: {
      std::string label(tokens[2]);
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        label += ' ';
        label += tokens[i];
      }
      rec.instant(rec.intern(label), obs::TraceCat::kUser);
      return "OK marked=" + label;
    }
    default:
      return err(ServeCode::kInvalidArgument, "not an ops verb");
  }
}

std::string OpsSurface::stats_identity() {
  // Which binary, for how long, built how — so fleet STATS sweeps can spot
  // a stale deploy at a glance.
  const double uptime = obs::process_uptime_seconds();
  uptime_.set(uptime);
  return " uptime=" + fmt_double(uptime) + " rev=" + obs::build_git_rev() +
         " build=" + obs::build_mode() +
         " faults=" + (fault::kFaultInjectionEnabled ? "1" : "0") +
         " accumulator=flat";
}

std::string OpsSurface::metrics_json(const obs::MetricRegistry& metrics,
                                     std::string bench) {
  return json_document(std::move(bench), [&](std::ostream& out) {
    out << "  \"metrics\": ";
    metrics.write_json(out, "  ");
  });
}

std::string OpsSurface::window_json(obs::WindowStore& window,
                                    std::uint64_t now_ns, std::string bench) {
  return json_document(std::move(bench), [&](std::ostream& out) {
    out << "  \"window\": ";
    window.write_json(out, now_ns, "  ");
  });
}

std::string OpsSurface::metrics(std::string_view format) {
  // A dashboard's uptime is never older than the scrape that read it.
  uptime_.set(obs::process_uptime_seconds());
  return by_format(
      "METRICS", format,
      [&](std::ostream& out) { metrics_.write_prometheus(out); },
      [&] { return metrics_json(metrics_, prefix_ + "_metrics"); });
}

std::string OpsSurface::window(std::string_view format) {
  const std::uint64_t now = obs::mono_now_ns();
  return by_format(
      "METRICS WINDOW", format,
      [&](std::ostream& out) { window_.write_prometheus(out, now); },
      [&] { return window_json(window_, now, prefix_ + "_metrics_window"); });
}

std::string OpsSurface::fleet(std::string_view format,
                              const std::function<FleetScrape()>& scrape) {
  return by_format(
      "METRICS FLEET", format,
      [&](std::ostream& out) {
        const FleetScrape found = scrape();
        obs::write_prometheus(out, found.gauges);
        obs::write_prometheus(out, found.series);
      },
      [&] {
        const FleetScrape found = scrape();
        const obs::HealthInputs& in = found.liveness;
        return json_document(
            prefix_ + "_metrics_fleet", [&](std::ostream& out) {
              out << "  \"shards\": " << in.shards_up + in.shards_down
                  << ",\n  \"up\": " << in.shards_up
                  << ",\n  \"down\": " << in.shards_down
                  << ",\n  \"down_list\": \"" << in.down_list
                  << "\",\n  \"fleet\": ";
              obs::write_json(out, found.series, "  ");
            });
      });
}

std::string OpsSurface::health(const obs::HealthInputs& liveness) {
  const obs::HealthReport report =
      health_.evaluate(obs::mono_now_ns(), liveness);
  std::string payload = report.render();
  if (!payload.empty() && payload.back() == '\n') payload.pop_back();
  std::string out = "OK status=";
  out += to_string(report.status);
  out += " slos=" + std::to_string(report.slos.size());
  out += " bytes=" + std::to_string(payload.size());
  out += '\n';
  out += payload;
  return out;
}

}  // namespace asamap::serve
