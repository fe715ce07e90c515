#pragma once

/// \file router.hpp
/// Router — the client-facing front of the sharded serving tier (ISSUE 9).
/// A RequestHandler (so the same epoll NetServer serves it) that owns one
/// pooled net::Client per shard endpoint and turns the single-process line
/// protocol into placement + scatter/gather over the block partition of
/// partition_map.hpp:
///
///   MEMBER        → forwarded to the owner shard of the vertex
///   SAME          → owner shard when both vertices co-locate, else two
///                   MEMBER legs composed (version skew ⇒ OK STALE)
///   TOPK          → scatter; shards return full-precision range-partial
///                   flows which the router sums in shard order and sorts
///   SUMMARY       → scatter; vertex counts sum, global fields agree
///   GEN/LOAD/DROP/CLUSTER/ADD_EDGE/DEL_EDGE/APPLY
///                 → broadcast to every shard (replicated ingest)
///   CLUSTER <g> mode=dist
///                 → drives the DCLUSTER superstep protocol of shard.hpp:
///                   per level, scatter PROPOSE, concatenate movers in
///                   shard order, broadcast APPLY, until converged; then
///                   LEVEL, then COMMIT (the live form of
///                   run_distributed_infomap — same kernels, same order,
///                   same codelength)
///   SHARDS        → per-shard up/breaker status
///   METRICS [WINDOW] [prom|json], HEALTH, TRACE, STATS identity
///                 → serve::OpsSurface over the router's own registry and
///                   windows, answered byte for byte as ServeSession does;
///                   HEALTH adds a shards SLO from last-known liveness
///   METRICS FLEET [prom|json]
///                 → federation (ISSUE 10): scrape every shard's `METRICS
///                   json`, re-label each series with shard="K", sum
///                   counters and merge histograms (via the mergeable
///                   `buckets` field) into shard="fleet" aggregates — one
///                   scrape shows the whole tier.  A down shard is reported
///                   (asamap_fleet_shards_down, shard_scraped=0), never an
///                   error.
///   HEALTH FLEET  → live-probes every shard's HEALTH, folds the per-shard
///                   verdicts and liveness into one fleet verdict: any
///                   shard down or degraded ⇒ at least degraded; more than
///                   half down ⇒ unhealthy.  Header leads with `status=`,
///                   payload has one line per SLO and per shard.
///
/// Staleness is labeled, never hidden: every gathered read carries a
/// `vclock=v0:v1:...` vector of the per-shard snapshot versions last seen
/// for that graph; a gather across mismatched versions answers from the
/// newest replica as `OK STALE ... reason=version_skew`; a gather with a
/// shard down answers from a live replica (`SHARD FORWARD`, exact because
/// shards hold full replicas) tagged `degraded=1 shards_down=...`.
///
/// Fault handling reuses the fault layer per shard: a RetryPolicy-bounded
/// retry loop (reconnect + backoff) around every call, a CircuitBreaker
/// per shard so a dead shard costs nothing after it trips, and
/// asamap_router_* metrics for all of it.  Tracing: each request opens a
/// root span and every shard call is prefixed `TRACECTX <trace> <span>`,
/// which the shard adopts — one connected cross-process span tree.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asamap/dist/partition_map.hpp"
#include "asamap/fault/retry.hpp"
#include "asamap/net/client.hpp"
#include "asamap/obs/health.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/window.hpp"
#include "asamap/serve/handler.hpp"
#include "asamap/serve/ops_surface.hpp"
#include "asamap/support/histogram.hpp"

namespace asamap::dist {

struct RouterConfig {
  /// Shard endpoints, in shard-id order (index == shard id).
  std::vector<net::ClientConfig> shards;
  /// Per-call retry bounds (reconnect + resend per attempt).
  fault::RetryPolicy retry;
  /// Per-shard circuit breaker (trips after consecutive call failures; an
  /// open breaker fails the shard immediately so degraded reads stay fast).
  fault::BreakerConfig breaker;
  /// Distributed CLUSTER bounds — mirror DistOptions so mode=dist matches
  /// run_distributed_infomap.
  int dist_max_supersteps = 30;
  int dist_max_levels = 30;
  double dist_min_improvement_bits = 1e-10;
  /// Largest DCLUSTER APPLY mover-list payload per message: an early
  /// superstep on a big graph can move a large fraction of all vertices,
  /// and one comma-joined decimal list would blow the 16 MiB frame cap.
  /// The router splits the list at comma boundaries into `APPLY ... more`
  /// chunks (shards defer recompute to the final chunk, so chunked ==
  /// one-shot).  4 MiB leaves ample headroom for the verb + TRACECTX
  /// prefix.
  std::size_t apply_chunk_bytes = 4u << 20;
  /// Windowed-metrics tiers (METRICS WINDOW) and the SLOs the router's own
  /// HEALTH evaluates over them.
  obs::WindowConfig window;
  obs::SloConfig slo;
};

class Router : public serve::RequestHandler {
 public:
  explicit Router(const RouterConfig& config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Dials every shard; returns how many connected.  Best effort — a shard
  /// that is down reconnects lazily on first use.
  std::size_t connect();

  std::string handle_line(std::string_view line) override;
  obs::MetricRegistry& metrics() noexcept override { return metrics_; }

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }

  /// The windowed view and SLO evaluator over the router's own registry
  /// (METRICS WINDOW / HEALTH); caller-clocked like the serve session's.
  obs::WindowStore& window() noexcept { return window_; }
  obs::HealthTracker& health() noexcept { return health_; }

 private:
  struct Shard {
    explicit Shard(const fault::BreakerConfig& breaker_config)
        : breaker(breaker_config) {}
    net::ClientConfig endpoint;
    std::mutex mu;  ///< serialises the pooled connection
    net::Client client;
    fault::CircuitBreaker breaker;
    std::atomic<bool> up{false};
    obs::Gauge* up_gauge = nullptr;
    obs::Gauge* breaker_gauge = nullptr;
    /// 1 when the last METRICS FLEET / HEALTH FLEET probe reached this
    /// shard, 0 otherwise — the federated view of per-shard liveness.
    obs::Gauge* scraped_gauge = nullptr;
  };

  /// One scatter's outcome: per-shard response + transport success.
  struct Gather {
    std::vector<std::string> responses;
    std::vector<bool> ok;
    std::size_t ok_count = 0;
    [[nodiscard]] bool all_ok() const { return ok_count == ok.size(); }
  };

  struct VerbMetrics {
    obs::Counter* requests = nullptr;
    const char* trace_name = "other";
  };

  std::string dispatch(std::string_view line,
                       const std::vector<std::string_view>& tokens);

  /// One call to shard `i` with retry/reconnect/breaker, TRACECTX-prefixed.
  /// False ⇒ transport-level failure (response untouched); a shard-side
  /// `ERR rejected` (ring full) is retried like a transport failure but
  /// propagated verbatim when attempts run out.
  bool shard_call(std::size_t i, std::string_view line,
                  std::string& response);
  /// shard_call to every shard, in shard order.
  Gather broadcast(std::string_view line);
  /// First live shard's answer to `SHARD FORWARD <line>` — the failover /
  /// fallback read path (exact: shards hold full replicas).  Returns the
  /// shard index or SIZE_MAX.
  std::size_t forward_any(std::string_view line, std::string& response);

  // Verb bodies.
  std::string handle_member(const std::vector<std::string_view>& tokens,
                            std::string_view line);
  std::string handle_same(const std::vector<std::string_view>& tokens,
                          std::string_view line);
  std::string handle_topk(const std::vector<std::string_view>& tokens,
                          std::string_view line);
  std::string handle_summary(const std::vector<std::string_view>& tokens,
                             std::string_view line);
  std::string handle_ingest(std::string_view verb,
                            const std::vector<std::string_view>& tokens,
                            std::string_view line);
  std::string handle_cluster(const std::vector<std::string_view>& tokens);
  std::string run_dist_cluster(const std::string& name);
  std::string handle_shards();
  std::string handle_stats();

  // --- observability plane (ISSUE 10) -------------------------------------

  /// One shard series parsed out of a `METRICS json` scrape: the key split
  /// into name + label body, and either a scalar or a decoded histogram.
  struct FleetSeries {
    std::string name;
    std::string labels;  ///< original label body, no braces, may be empty
    bool is_hist = false;
    double value = 0.0;
    support::LatencyHistogram hist;
  };

  /// METRICS FLEET [prom|json]: scrape every shard, relabel, aggregate.
  std::string fleet_metrics(const std::vector<std::string_view>& tokens);
  /// HEALTH FLEET: live-probe every shard's HEALTH, fold the verdicts.
  std::string fleet_health();
  /// Scrapes shard `i`'s `METRICS json` and parses its asamap_* series.
  /// False ⇒ shard unreachable (out untouched).
  bool scrape_shard_metrics(std::size_t i, std::vector<FleetSeries>& out);
  /// Last-known liveness from the up flags (no network).
  [[nodiscard]] obs::HealthInputs liveness_inputs() const;

  /// Stale/degraded fallback: answer `line` from the newest / any live
  /// replica and re-tag the response.
  std::string stale_fallback(std::string_view line, const std::string& name);
  std::string degraded_fallback(std::string_view line, const std::string& name,
                                const Gather& gather);

  /// Vertex count for `name` (cached from ingest/SUMMARY responses; lazily
  /// fetched via a forwarded SUMMARY).  0 ⇒ unknown.
  graph::VertexId graph_n(const std::string& name, std::string* error_out);
  /// Record a successful response's version/vertices fields for `name`.
  void observe_response(std::size_t shard, const std::string& name,
                        const std::string& response);
  [[nodiscard]] std::string vclock_of(const std::string& name);

  RouterConfig config_;
  obs::MetricRegistry metrics_;
  obs::WindowStore window_;
  obs::HealthTracker health_;
  /// METRICS / METRICS WINDOW / HEALTH / TRACE and the STATS identity, the
  /// same surface ServeSession answers with; HEALTH gets liveness_inputs().
  serve::OpsSurface ops_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unordered_map<std::string_view, VerbMetrics> verb_metrics_;
  VerbMetrics other_verb_metrics_;
  obs::Histogram* request_seconds_ = nullptr;
  obs::Histogram* scatter_seconds_ = nullptr;
  obs::Counter* shard_calls_total_ = nullptr;
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* degraded_total_ = nullptr;
  obs::Counter* stale_total_ = nullptr;
  obs::Counter* errors_total_ = nullptr;
  obs::Gauge* fleet_up_ = nullptr;
  obs::Gauge* fleet_down_ = nullptr;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> stale_{0};

  std::mutex state_mu_;  ///< guards vclock_ and graph_n_
  /// graph → per-shard last-seen snapshot version (0 = never seen).
  std::unordered_map<std::string, std::vector<std::uint64_t>> vclock_;
  std::unordered_map<std::string, graph::VertexId> graph_n_;
};

}  // namespace asamap::dist
