#include "asamap/obs/health.hpp"

#include <utility>

#include "asamap/obs/format.hpp"

namespace asamap::obs {

std::string HealthReport::render() const {
  std::string out;
  for (const auto& slo : slos) {
    out += "slo=";
    out += slo.name;
    out += " status=";
    out += to_string(slo.status);
    if (!slo.detail.empty()) {
      out += ' ';
      out += slo.detail;
    }
    out += '\n';
  }
  return out;
}

HealthTracker::HealthTracker(MetricRegistry& registry, WindowStore& window,
                             SloConfig config, std::string requests_counter,
                             std::string errors_counter,
                             std::string latency_histogram,
                             std::string breaker_gauge)
    : registry_(registry),
      window_(window),
      config_(config),
      requests_counter_(std::move(requests_counter)),
      errors_counter_(std::move(errors_counter)),
      latency_histogram_(std::move(latency_histogram)),
      breaker_gauge_(std::move(breaker_gauge)) {
  status_gauge_ = &registry_.gauge("asamap_health_status");
  burn_fast_ = &registry_.gauge("asamap_health_burn_rate", "window=\"fast\"");
  burn_slow_ = &registry_.gauge("asamap_health_burn_rate", "window=\"slow\"");
  p99_fast_ =
      &registry_.gauge("asamap_health_latency_p99_seconds", "window=\"fast\"");
}

HealthReport HealthTracker::evaluate(std::uint64_t now_ns,
                                     const Inputs& inputs) {
  HealthReport report;

  // ---- availability: fast/slow burn rates against the error budget ----
  const double budget = 1.0 - config_.availability_target;
  const auto frac = [&](std::size_t tier) -> double {
    const auto reqs = window_.delta(requests_counter_, now_ns, tier);
    if (reqs == 0) return 0.0;
    const auto errs = window_.delta(errors_counter_, now_ns, tier);
    return static_cast<double>(errs) / static_cast<double>(reqs);
  };
  const double frac_fast = frac(config_.fast_tier);
  const double frac_slow = frac(config_.slow_tier);
  const double burn_fast = budget <= 0.0 ? 0.0 : frac_fast / budget;
  const double burn_slow = budget <= 0.0 ? 0.0 : frac_slow / budget;
  burn_fast_->set(burn_fast);
  burn_slow_->set(burn_slow);
  {
    SloResult slo;
    slo.name = "availability";
    const bool fast_hot = burn_fast >= config_.fast_burn_threshold;
    const bool slow_hot = burn_slow >= config_.slow_burn_threshold;
    slo.status = fast_hot && slow_hot ? SloStatus::kViolated
                 : fast_hot || slow_hot ? SloStatus::kWarn
                                        : SloStatus::kOk;
    slo.detail = "target=" + fmt_double(config_.availability_target) +
                 " err_fraction_fast=" + fmt_double(frac_fast) +
                 " err_fraction_slow=" + fmt_double(frac_slow) +
                 " burn_fast=" + fmt_double(burn_fast) +
                 " burn_slow=" + fmt_double(burn_slow);
    report.slos.push_back(std::move(slo));
  }

  // ---- latency: windowed p99 against the declared bound ----
  {
    const double p99_fast =
        window_.window_histogram(latency_histogram_, now_ns, config_.fast_tier)
            .quantile_seconds(0.99);
    const double p99_slow =
        window_.window_histogram(latency_histogram_, now_ns, config_.slow_tier)
            .quantile_seconds(0.99);
    p99_fast_->set(p99_fast);
    SloResult slo;
    slo.name = "latency_p99";
    const bool fast_over = p99_fast > config_.latency_p99_bound_seconds;
    const bool slow_over = p99_slow > config_.latency_p99_bound_seconds;
    slo.status = fast_over && slow_over ? SloStatus::kViolated
                 : fast_over            ? SloStatus::kWarn
                                        : SloStatus::kOk;
    slo.detail =
        "bound_ms=" + fmt_double(config_.latency_p99_bound_seconds * 1e3) +
        " p99_fast_ms=" + fmt_double(p99_fast * 1e3) +
        " p99_slow_ms=" + fmt_double(p99_slow * 1e3);
    report.slos.push_back(std::move(slo));
  }

  // ---- breaker: open = shedding by design = degraded ----
  if (!breaker_gauge_.empty()) {
    const double state = registry_.gauge_value(breaker_gauge_);
    SloResult slo;
    slo.name = "breaker";
    slo.status = state == 1.0 ? SloStatus::kWarn : SloStatus::kOk;
    slo.detail = std::string("state=") + (state == 1.0   ? "open"
                                          : state == 2.0 ? "half_open"
                                                         : "closed");
    report.slos.push_back(std::move(slo));
  }

  // ---- shard liveness (router view, fed per evaluation) ----
  if (inputs.have_shards) {
    SloResult slo;
    slo.name = "shards";
    const std::size_t total = inputs.shards_up + inputs.shards_down;
    slo.status = inputs.shards_down == 0 ? SloStatus::kOk
                 : inputs.shards_down * 2 > total ? SloStatus::kViolated
                                                  : SloStatus::kWarn;
    slo.detail = "up=" + std::to_string(inputs.shards_up) +
                 " down=" + std::to_string(inputs.shards_down);
    if (!inputs.down_list.empty()) {
      slo.detail += " shards_down=" + inputs.down_list;
    }
    report.slos.push_back(std::move(slo));
  }

  report.status = HealthStatus::kHealthy;
  for (const auto& slo : report.slos) {
    if (slo.status == SloStatus::kViolated) {
      report.status = HealthStatus::kUnhealthy;
      break;
    }
    if (slo.status == SloStatus::kWarn) {
      report.status = HealthStatus::kDegraded;
    }
  }
  status_gauge_->set(static_cast<double>(report.status));
  return report;
}

}  // namespace asamap::obs
