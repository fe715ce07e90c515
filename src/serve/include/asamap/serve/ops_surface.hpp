#pragma once

/// \file ops_surface.hpp
/// serve::OpsSurface — the ops verbs every request handler answers the
/// same way, byte for byte: ServeSession and dist::Router both route
/// these to one surface over their own registry (dist::ShardSession passes
/// them through to its inner session).
///
///   METRICS [prom|prometheus|json]       the cumulative registry
///   METRICS WINDOW [prom|prometheus|json] windowed rates + rolling quantiles
///   HEALTH                               SLO verdict + one line per SLO
///   TRACE DUMP | STATUS | MARK <label>   the process flight recorder
///   STATS ... <identity suffix>          uptime= rev= build= faults=
///                                        accumulator=
///
/// Every multi-line answer uses the protocol envelope (protocol.hpp); the
/// JSON payloads open with the obs envelope fields (envelope.hpp), named
/// `<prefix>_metrics` / `<prefix>_metrics_window`.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "asamap/obs/health.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/window.hpp"
#include "asamap/serve/verbs.hpp"

namespace asamap::serve {

class OpsSurface {
 public:
  /// Registers the asamap_uptime_seconds gauge on `metrics`.  The registry,
  /// window and tracker must outlive the surface.  `prefix` is the owner's
  /// name in its JSON documents ("serve", "router").
  OpsSurface(obs::MetricRegistry& metrics, obs::WindowStore& window,
             obs::HealthTracker& health, std::string prefix);

  /// Answers one METRICS / METRICS WINDOW / HEALTH / TRACE request that
  /// verbs::resolve() matched to `verb` (arity already checked).
  /// `liveness` feeds HEALTH's shards SLO — a router's last-known shard
  /// view; the default (no shards) leaves that SLO out.
  [[nodiscard]] std::string handle(
      verbs::Id verb, const std::vector<std::string_view>& tokens,
      const obs::HealthInputs& liveness = {});

  /// The STATS build-identity suffix, leading space included:
  /// ` uptime=<s> rev=<rev> build=<mode> faults=<0|1> accumulator=flat`.
  /// Refreshes the uptime gauge.
  [[nodiscard]] std::string stats_identity();

  /// The `METRICS json` payload: `{`, the envelope fields, then
  /// `"metrics": <registry JSON>` and `}` (no trailing newline).
  [[nodiscard]] static std::string metrics_json(
      const obs::MetricRegistry& metrics, std::string bench);
  /// The `METRICS WINDOW json` payload as of `now_ns`, same shape with a
  /// `"window"` member.
  [[nodiscard]] static std::string window_json(obs::WindowStore& window,
                                               std::uint64_t now_ns,
                                               std::string bench);

 private:
  std::string metrics(std::string_view format);
  std::string window(std::string_view format);
  std::string health(const obs::HealthInputs& liveness);

  obs::MetricRegistry& metrics_;
  obs::WindowStore& window_;
  obs::HealthTracker& health_;
  obs::Gauge& uptime_;
  std::string prefix_;
};

}  // namespace asamap::serve
