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

bool is_prom(std::string_view format) {
  return format == "prom" || format == "prometheus";
}

/// A Prometheus rendering as an envelope payload: the envelope owns the
/// terminator, so the renderer's final newline goes.
std::string prom_enveloped(std::string text) {
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return enveloped("prometheus", text);
}

std::string unknown_format(std::string_view what, std::string_view format) {
  return err(ServeCode::kInvalidArgument,
             std::string(what) + ": unknown format '" + std::string(format) +
                 "' (want prom or json)");
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
         " accumulator=hotset";
}

std::string OpsSurface::metrics_json(const obs::MetricRegistry& metrics,
                                     std::string bench) {
  std::ostringstream out;
  out << "{\n";
  obs::write_envelope_fields(out, obs::make_envelope(std::move(bench)), "  ");
  out << "  \"metrics\": ";
  metrics.write_json(out, "  ");
  out << "\n}";
  return out.str();
}

std::string OpsSurface::window_json(obs::WindowStore& window,
                                    std::uint64_t now_ns, std::string bench) {
  std::ostringstream out;
  out << "{\n";
  obs::write_envelope_fields(out, obs::make_envelope(std::move(bench)), "  ");
  out << "  \"window\": ";
  window.write_json(out, now_ns, "  ");
  out << "\n}";
  return out.str();
}

std::string OpsSurface::metrics(std::string_view format) {
  // A dashboard's uptime is never older than the scrape that read it.
  uptime_.set(obs::process_uptime_seconds());
  if (is_prom(format)) {
    std::ostringstream out;
    metrics_.write_prometheus(out);
    return prom_enveloped(out.str());
  }
  if (format == "json") {
    return enveloped("json", metrics_json(metrics_, prefix_ + "_metrics"));
  }
  return unknown_format("METRICS", format);
}

std::string OpsSurface::window(std::string_view format) {
  const std::uint64_t now = obs::mono_now_ns();
  if (is_prom(format)) {
    std::ostringstream out;
    window_.write_prometheus(out, now);
    return prom_enveloped(out.str());
  }
  if (format == "json") {
    return enveloped("json",
                     window_json(window_, now, prefix_ + "_metrics_window"));
  }
  return unknown_format("METRICS WINDOW", format);
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
