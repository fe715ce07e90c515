#include "asamap/dist/router.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <numeric>
#include <thread>

#include "asamap/obs/tracing.hpp"
#include "asamap/serve/protocol.hpp"
#include "asamap/serve/verbs.hpp"
#include "asamap/support/backoff.hpp"
#include "asamap/support/timer.hpp"

namespace asamap::dist {

using graph::VertexId;
using namespace serve::protocol;

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// `key=` value on the response's first line, matched at token boundaries;
/// empty when absent.
std::string_view field(std::string_view resp, std::string_view key) {
  const std::size_t eol = resp.find('\n');
  if (eol != std::string_view::npos) resp = resp.substr(0, eol);
  std::size_t pos = 0;
  while (pos < resp.size()) {
    pos = resp.find(key, pos);
    if (pos == std::string_view::npos) return {};
    if (pos == 0 || resp[pos - 1] == ' ') {
      const std::size_t start = pos + key.size();
      const std::size_t end = resp.find(' ', start);
      return resp.substr(start, end == std::string_view::npos
                                    ? std::string_view::npos
                                    : end - start);
    }
    ++pos;
  }
  return {};
}

const char* breaker_name(fault::CircuitBreaker::State s) {
  switch (s) {
    case fault::CircuitBreaker::State::kClosed: return "closed";
    case fault::CircuitBreaker::State::kOpen: return "open";
    case fault::CircuitBreaker::State::kHalfOpen: return "half_open";
  }
  return "?";
}

std::string verb_label(std::string_view verb) {
  return "verb=\"" + std::string(verb) + "\"";
}

/// `labels` with `shard="<id>"` appended.
std::string with_shard_label(const std::string& labels,
                             const std::string& shard) {
  return (labels.empty() ? "shard=\"" : labels + ",shard=\"") + shard + '"';
}

}  // namespace

Router::Router(const RouterConfig& config)
    : config_(config),
      window_(metrics_, config_.window, obs::mono_now_ns()),
      health_(metrics_, window_, config_.slo, "asamap_router_requests_total",
              "asamap_router_errors_total", "asamap_router_request_seconds"),
      ops_(metrics_, window_, health_, "router") {
  metrics_.gauge("asamap_router_shards")
      .set(static_cast<double>(config_.shards.size()));
  // Fleet gauges, pre-registered so a fresh scrape (and --print-metrics)
  // enumerates the full schema before any FLEET probe.
  fleet_up_ = &metrics_.gauge("asamap_fleet_shards_up");
  fleet_down_ = &metrics_.gauge("asamap_fleet_shards_down");
  // A verb's rows share one series; the row names are NUL-terminated
  // literals, so .data() doubles as the static trace-span name.
  for (const serve::verbs::Verb& verb : serve::verbs::table()) {
    if (!verb.served_by(serve::verbs::kRouter)) continue;
    verb_metrics_[verb.index()] = {
        &metrics_.counter("asamap_router_requests_total",
                          verb_label(verb.name)),
        verb.name.data()};
  }
  other_verb_metrics_.requests =
      &metrics_.counter("asamap_router_requests_total", verb_label("other"));
  for (VerbMetrics& vm : verb_metrics_) {
    if (vm.requests == nullptr) vm = other_verb_metrics_;
  }
  request_seconds_ = &metrics_.histogram("asamap_router_request_seconds");
  scatter_seconds_ = &metrics_.histogram("asamap_router_scatter_seconds");
  shard_calls_total_ = &metrics_.counter("asamap_router_shard_calls_total");
  retries_total_ = &metrics_.counter("asamap_router_retries_total");
  degraded_total_ = &metrics_.counter("asamap_router_degraded_total");
  stale_total_ = &metrics_.counter("asamap_router_stale_total");
  errors_total_ = &metrics_.counter("asamap_router_errors_total");
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    auto shard = std::make_unique<Shard>(config_.breaker);
    shard->endpoint = config_.shards[i];
    const std::string label = "shard=\"" + std::to_string(i) + "\"";
    shard->up_gauge = &metrics_.gauge("asamap_router_shard_up", label);
    shard->breaker_gauge =
        &metrics_.gauge("asamap_router_breaker_state", label);
    shard->scraped_gauge =
        &metrics_.gauge("asamap_fleet_shard_scraped", label);
    shards_.push_back(std::move(shard));
  }
}

Router::~Router() = default;

std::size_t Router::connect() {
  std::size_t reached = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const bool ok = shard->client.connect(shard->endpoint).ok();
    shard->up.store(ok, std::memory_order_relaxed);
    shard->up_gauge->set(ok ? 1 : 0);
    if (ok) ++reached;
  }
  return reached;
}

bool Router::shard_call(std::size_t i, std::string_view line,
                        std::string& response) {
  Shard& s = *shards_[i];
  if (!s.breaker.allow()) {
    s.breaker_gauge->set(static_cast<double>(static_cast<int>(s.breaker.state())));
    return false;
  }
  // Ship the request under the caller's trace identity so the shard's
  // spans (and its scheduler jobs) parent under this router span.
  const obs::TraceContext ctx = obs::current_trace();
  std::string wire;
  if (ctx.active()) {
    wire = "TRACECTX " + std::to_string(ctx.trace_id) + " " +
           std::to_string(ctx.span_id) + " ";
  }
  wire += line;

  std::string rejected;  // a delivered `ERR rejected` (ring full)
  // Decorrelated jitter, seeded per shard so a fleet-wide blip does not
  // retry every shard in lockstep.
  support::DecorrelatedBackoff backoff(config_.retry.initial_backoff,
                                       config_.retry.max_backoff, i);
  for (int attempt = 0; attempt < config_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_total_->inc();
      std::this_thread::sleep_for(backoff.next());
    }
    std::string resp;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      shard_calls_total_->inc();
      if (!s.client.connected() && !s.client.connect(s.endpoint).ok()) {
        continue;
      }
      if (!s.client.request(wire, resp).ok()) continue;
    }
    if (starts_with(resp, "ERR rejected")) {
      // Shard-side backpressure: retry like a transport failure, but the
      // shard is alive (the rejection was delivered) — count it as breaker
      // success, and when attempts run out propagate the rejection verbatim
      // instead of failing the shard.
      s.breaker.record_success();
      s.up.store(true, std::memory_order_relaxed);
      s.up_gauge->set(1);
      rejected = std::move(resp);
      continue;
    }
    s.breaker.record_success();
    s.up.store(true, std::memory_order_relaxed);
    s.up_gauge->set(1);
    s.breaker_gauge->set(static_cast<double>(static_cast<int>(s.breaker.state())));
    response = std::move(resp);
    return true;
  }
  if (!rejected.empty()) {
    response = std::move(rejected);
    return true;
  }
  s.breaker.record_failure();
  s.up.store(false, std::memory_order_relaxed);
  s.up_gauge->set(0);
  s.breaker_gauge->set(static_cast<double>(static_cast<int>(s.breaker.state())));
  return false;
}

Router::Gather Router::broadcast(std::string_view line) {
  const support::WallTimer timer;
  Gather g;
  g.responses.resize(shards_.size());
  g.ok.assign(shards_.size(), false);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    g.ok[i] = shard_call(i, line, g.responses[i]);
    if (g.ok[i]) ++g.ok_count;
  }
  scatter_seconds_->record_seconds(timer.seconds());
  return g;
}

std::size_t Router::forward_any(std::string_view line,
                                std::string& response) {
  std::string wire = "SHARD FORWARD ";
  wire += line;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shard_call(i, wire, response)) return i;
  }
  return kNoShard;
}

void Router::observe_response(std::size_t shard, const std::string& name,
                              const std::string& response) {
  std::uint64_t version = 0;
  VertexId vertices = 0;
  const bool has_version = parse_num(field(response, "version="), version);
  const bool has_vertices = parse_num(field(response, "vertices="), vertices);
  if (!has_version && !has_vertices) return;
  std::lock_guard<std::mutex> lock(state_mu_);
  if (has_version) {
    auto& clock = vclock_[name];
    clock.resize(shards_.size(), 0);
    clock[shard] = std::max(clock[shard], version);
  }
  // SUMMARY merges report the global count; per-shard partials are tagged
  // with range= and must not clobber the global vertex count.
  if (has_vertices && field(response, "range=").empty()) {
    graph_n_[name] = vertices;
  }
}

std::string Router::vclock_of(const std::string& name) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto& clock = vclock_[name];
  clock.resize(shards_.size(), 0);
  std::string out;
  for (std::size_t i = 0; i < clock.size(); ++i) {
    if (i > 0) out += ':';
    out += std::to_string(clock[i]);
  }
  return out;
}

graph::VertexId Router::graph_n(const std::string& name,
                                std::string* error_out) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = graph_n_.find(name);
    if (it != graph_n_.end() && it->second > 0) return it->second;
  }
  // Learn it from any live replica (also primes the vclock).
  std::string resp;
  const std::size_t idx = forward_any("SUMMARY " + name, resp);
  if (idx == kNoShard) {
    if (error_out) *error_out = err("unavailable", "no shard reachable");
    return 0;
  }
  if (!starts_with(resp, "OK")) {
    if (error_out) *error_out = resp;  // canonical unknown-graph/no-partition
    return 0;
  }
  observe_response(idx, name, resp);
  VertexId n = 0;
  parse_num(field(resp, "vertices="), n);
  if (n == 0 && error_out) {
    *error_out = err("unavailable", "could not determine vertex count");
  }
  return n;
}

std::string Router::handle_line(std::string_view raw) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string_view line = trim_trailing_ws(raw);
  std::vector<std::string_view> tokens;
  tokenize_into(line, tokens);
  serve::verbs::Resolved request =
      serve::verbs::resolve(tokens, serve::verbs::kRouter);
  if (tokens.empty()) return std::move(request.error);
  const VerbMetrics& vm = request.verb != nullptr
                              ? verb_metrics_[request.verb->index()]
                              : other_verb_metrics_;
  vm.requests->inc();
  const support::WallTimer timer;
  std::string response;
  {
    obs::TraceSpan span(vm.trace_name, obs::TraceCat::kSession);
    response = request.error.empty() ? dispatch(*request.verb, line, tokens)
                                     : std::move(request.error);
  }
  request_seconds_->record_seconds(timer.seconds());
  if (starts_with(response, "ERR")) errors_total_->inc();
  return response;
}

std::string Router::dispatch(const serve::verbs::Verb& verb,
                             std::string_view line,
                             const std::vector<std::string_view>& tokens) {
  using serve::verbs::Id;
  switch (verb.id) {
    case Id::kMember: return handle_member(tokens, line);
    case Id::kSame: return handle_same(tokens, line);
    case Id::kTopk: return handle_topk(tokens, line);
    case Id::kSummary: return handle_summary(tokens, line);
    case Id::kCluster:
    case Id::kApply: {
      serve::verbs::JobOptions opts;
      if (std::string e = serve::verbs::parse_job_options(
              verb, tokens, serve::verbs::kRouter, opts);
          !e.empty()) {
        return e;
      }
      if (verb.id == Id::kApply) return handle_ingest(verb, tokens, line);
      return handle_cluster(tokens, opts);
    }
    case Id::kGen:
    case Id::kLoad:
    case Id::kDrop:
    case Id::kAddEdge:
    case Id::kDelEdge:
      return handle_ingest(verb, tokens, line);
    case Id::kShards: return handle_shards();
    case Id::kStats: return handle_stats();
    case Id::kMetricsFleet: return fleet_metrics(tokens);
    case Id::kHealthFleet: return fleet_health();
    case Id::kQuit: return "OK bye";
    default:  // METRICS, METRICS WINDOW, HEALTH, TRACE
      return ops_.handle(verb.id, tokens, liveness_inputs());
  }
}

std::string Router::handle_member(
    const std::vector<std::string_view>& tokens, std::string_view line) {
  VertexId v = 0;
  if (!parse_num(tokens[2], v)) {
    return err("invalid_argument", "bad vertex id");
  }
  const std::string name(tokens[1]);
  std::string error;
  const VertexId n = graph_n(name, &error);
  if (n == 0) return error;
  if (v >= n) {
    return err("invalid_argument",
               "vertex " + std::to_string(v) + " out of range (graph has " +
                   std::to_string(n) + " vertices)");
  }
  std::size_t owner = owner_of(v, n, make_ranges(n, shards_.size()));
  std::string resp;
  if (shard_call(owner, line, resp)) {
    if (starts_with(resp, "ERR not_found wrong_shard")) {
      // The cached vertex count drifted (re-ingest); relearn and retry.
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        graph_n_.erase(name);
      }
      const VertexId n2 = graph_n(name, &error);
      if (n2 == 0) return error;
      owner = owner_of(v, n2, make_ranges(n2, shards_.size()));
      if (!shard_call(owner, line, resp)) resp.clear();
    }
    if (!resp.empty()) {
      observe_response(owner, name, resp);
      if (starts_with(resp, "OK")) resp += " vclock=" + vclock_of(name);
      return resp;
    }
  }
  // Owner down: exact failover to any live replica, labeled degraded.
  return degraded_fallback(line, name, "", "no shard available for MEMBER");
}

std::string Router::handle_same(const std::vector<std::string_view>& tokens,
                                std::string_view line) {
  VertexId u = 0, v = 0;
  if (!parse_num(tokens[2], u) || !parse_num(tokens[3], v)) {
    return err("invalid_argument", "bad vertex id");
  }
  const std::string name(tokens[1]);
  std::string error;
  // Up to one relearn round, mirroring handle_member: a shard answering
  // `wrong_shard` means the cached vertex count drifted (the graph was
  // re-ingested behind the router's back, e.g. directly on the shards) —
  // drop the cache, relearn n from a fresh SUMMARY, recompute owners,
  // retry once.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const VertexId n = graph_n(name, &error);
    if (n == 0) return error;
    if (u >= n || v >= n) {
      return err("invalid_argument", "vertex out of range");
    }
    const auto ranges = make_ranges(n, shards_.size());
    const std::size_t ou = owner_of(u, n, ranges);
    const std::size_t ov = owner_of(v, n, ranges);
    bool relearn = false;
    const auto note_wrong_shard = [&](const std::string& resp) -> bool {
      if (!starts_with(resp, "ERR not_found wrong_shard")) return false;
      std::lock_guard<std::mutex> lock(state_mu_);
      graph_n_.erase(name);
      relearn = true;
      return true;
    };

    if (ou == ov) {
      // Co-located: one shard answers exactly like a single process.
      std::string resp;
      if (shard_call(ou, line, resp)) {
        if (note_wrong_shard(resp) && attempt == 0) continue;
        observe_response(ou, name, resp);
        if (starts_with(resp, "OK")) resp += " vclock=" + vclock_of(name);
        return resp;
      }
      return degraded_fallback(line, name, "", "no shard available for SAME");
    }

    // Cross-shard: one MEMBER leg per owner, composed here.
    bool degraded = false;
    const auto member_leg =
        [&](VertexId vertex, std::size_t owner, std::uint64_t& version,
            std::uint64_t& community, std::string& fail) -> bool {
      const std::string leg = "MEMBER " + name + " " + std::to_string(vertex);
      std::string resp;
      std::size_t responder = owner;
      if (!shard_call(owner, leg, resp)) {
        responder = forward_any(leg, resp);
        if (responder == kNoShard) {
          fail = err("unavailable", "no shard available for SAME");
          return false;
        }
        degraded = true;
      }
      if (!starts_with(resp, "OK")) {
        note_wrong_shard(resp);
        fail = std::move(resp);
        return false;
      }
      observe_response(responder, name, resp);
      if (!parse_num(field(resp, "version="), version) ||
          !parse_num(field(resp, "community="), community)) {
        fail = err("unavailable", "malformed MEMBER response from shard");
        return false;
      }
      return true;
    };

    std::uint64_t vu = 0, cu = 0, vv = 0, cv = 0;
    std::string fail;
    if (!member_leg(u, ou, vu, cu, fail) ||
        !member_leg(v, ov, vv, cv, fail)) {
      if (relearn && attempt == 0) continue;
      return fail;
    }
    if (degraded) {
      degraded_total_->inc();
    }

    std::string out;
    if (vu == vv) {
      out = "OK version=" + std::to_string(vu);
    } else {
      stale_total_->inc();
      out = "OK STALE version=" + std::to_string(std::max(vu, vv));
    }
    out += " u=" + std::to_string(u) + " v=" + std::to_string(v) +
           " cu=" + std::to_string(cu) + " cv=" + std::to_string(cv) +
           " same=" + (cu == cv ? "1" : "0");
    if (vu != vv) out += " reason=version_skew";
    if (degraded) out += " degraded=1";
    out += " vclock=" + vclock_of(name);
    return out;
  }
  return err("unavailable", "SAME owners unstable across retries");
}

std::string Router::stale_fallback(std::string_view line,
                                   const std::string& name) {
  // Answer from the newest replica; shards are full replicas, so its global
  // answer is exact at its version — only cross-shard coherence is lost.
  std::size_t newest = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto& clock = vclock_[name];
    clock.resize(shards_.size(), 0);
    newest = static_cast<std::size_t>(
        std::max_element(clock.begin(), clock.end()) - clock.begin());
  }
  std::string wire = "SHARD FORWARD ";
  wire += line;
  std::string resp;
  std::size_t responder = newest;
  if (!shard_call(newest, wire, resp)) {
    responder = forward_any(line, resp);
    if (responder == kNoShard) {
      return err("unavailable", "no shard reachable");
    }
  }
  if (!starts_with(resp, "OK")) return resp;
  observe_response(responder, name, resp);
  stale_total_->inc();
  std::string out = "OK STALE ";
  out += std::string_view(resp).substr(3);  // past "OK "
  out += " reason=version_skew vclock=" + vclock_of(name);
  return out;
}

std::string Router::degraded_fallback(std::string_view line,
                                      const std::string& name,
                                      const std::string& shards_down,
                                      std::string_view unreachable) {
  std::string resp;
  const std::size_t idx = forward_any(line, resp);
  if (idx == kNoShard) return err("unavailable", unreachable);
  degraded_total_->inc();
  observe_response(idx, name, resp);
  if (!starts_with(resp, "OK")) return resp;
  resp += " degraded=1";
  if (!shards_down.empty()) resp += " shards_down=" + shards_down;
  return resp + " vclock=" + vclock_of(name);
}

std::string Router::Gather::down_list() const {
  std::string down;
  for (std::size_t i = 0; i < ok.size(); ++i) {
    if (!ok[i]) {
      if (!down.empty()) down += ',';
      down += std::to_string(i);
    }
  }
  return down;
}

obs::HealthInputs Router::Gather::liveness() const {
  obs::HealthInputs in;
  in.have_shards = true;
  in.shards_up = ok_count;
  in.shards_down = ok.size() - ok_count;
  in.down_list = down_list();
  return in;
}

std::size_t Router::observe_gather(const Gather& g, const std::string& name) {
  std::size_t first_ok = kNoShard;
  for (std::size_t i = 0; i < g.ok.size(); ++i) {
    if (!g.ok[i]) continue;
    if (first_ok == kNoShard) first_ok = i;
    observe_response(i, name, g.responses[i]);
  }
  return first_ok;
}

std::string Router::gather_partials(std::string_view verb,
                                    std::string_view line,
                                    const std::string& name, Gather& g,
                                    std::uint64_t& version) {
  g = broadcast(line);
  if (g.ok_count == 0) return err("unavailable", "no shard reachable");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!g.ok[i]) continue;
    if (starts_with(g.responses[i], "ERR too_large")) {
      // Shard refused the partial (too many communities) — the forwarded
      // global answer is still exact.
      std::string resp;
      const std::size_t idx = forward_any(line, resp);
      if (idx == kNoShard) return err("unavailable", "no shard reachable");
      observe_response(idx, name, resp);
      if (starts_with(resp, "OK")) resp += " vclock=" + vclock_of(name);
      return resp;
    }
    if (starts_with(g.responses[i], "ERR")) return g.responses[i];
    if (field(g.responses[i], "range=").empty()) {
      // A backend answering globally (a plain asamap_serve started without
      // --shard-id) is not a range shard; merging its reply would drop its
      // TOPK flows or double-count its SUMMARY vertices (and corrupt the
      // cached vertex count).  Refuse loudly — topology misconfiguration.
      return err("misconfigured",
                 "shard " + std::to_string(i) + " returned a non-partial " +
                     std::string(verb) +
                     " reply; backend is not running with "
                     "--shard-id/--shards");
    }
    observe_response(i, name, g.responses[i]);
  }
  if (!g.all_ok()) {
    return degraded_fallback(line, name, g.down_list(), "no shard reachable");
  }
  // All shards answered with range partials: check version coherence.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::uint64_t vi = 0;
    parse_num(field(g.responses[i], "version="), vi);
    if (i == 0) {
      version = vi;
    } else if (vi != version) {
      return stale_fallback(line, name);
    }
  }
  return {};
}

std::string Router::handle_topk(const std::vector<std::string_view>& tokens,
                                std::string_view line) {
  std::size_t k = 0;
  if (!parse_num(tokens[2], k) || k == 0) {
    return err("invalid_argument", "bad k");
  }
  const std::string name(tokens[1]);
  Gather g;
  std::uint64_t version = 0;
  if (std::string answer = gather_partials("TOPK", line, name, g, version);
      !answer.empty()) {
    return answer;
  }

  // Merge: sum per-community partial flows in shard order (matches the
  // left-to-right vertex order of make_snapshot up to final-rounding ulps),
  // then sort exactly like the oracle (flow desc, id asc).
  std::vector<double> flow;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string_view partial = field(g.responses[i], "partial=");
    std::size_t communities = 0;
    parse_num(field(g.responses[i], "communities="), communities);
    // Compare shapes against shard 0 even when it reported 0 communities —
    // `flow.empty()` would silently re-seed from a later shard.
    if (i == 0) {
      flow.assign(communities, 0.0);
    } else if (communities != flow.size()) {
      return stale_fallback(line, name);  // replicas disagree on shape
    }
    while (!partial.empty()) {
      const std::size_t comma = partial.find(',');
      const std::string_view pair = partial.substr(0, comma);
      const std::size_t colon = pair.find(':');
      std::size_t c = 0;
      double f = 0.0;
      if (colon == std::string_view::npos ||
          !parse_num(pair.substr(0, colon), c) ||
          !parse_num(pair.substr(colon + 1), f) || c >= flow.size()) {
        return err("unavailable", "malformed shard partial");
      }
      flow[c] += f;
      partial = comma == std::string_view::npos ? std::string_view{}
                                                : partial.substr(comma + 1);
    }
  }
  std::vector<VertexId> by_flow(flow.size());
  std::iota(by_flow.begin(), by_flow.end(), VertexId{0});
  std::sort(by_flow.begin(), by_flow.end(), [&](VertexId a, VertexId b) {
    if (flow[a] != flow[b]) return flow[a] > flow[b];
    return a < b;
  });
  k = std::min(k, by_flow.size());
  std::string out = "OK version=" + std::to_string(version) +
                    " k=" + std::to_string(k) + " top=";
  for (std::size_t i = 0; i < k; ++i) {
    const VertexId c = by_flow[i];
    if (i > 0) out += ',';
    out += std::to_string(c) + ":" + fmt_double(flow[c]);
  }
  out += " vclock=" + vclock_of(name);
  return out;
}

std::string Router::handle_summary(
    const std::vector<std::string_view>& tokens, std::string_view line) {
  const std::string name(tokens[1]);
  Gather g;
  std::uint64_t version = 0;
  if (std::string answer =
          gather_partials("SUMMARY", line, name, g, version);
      !answer.empty()) {
    return answer;
  }
  std::uint64_t vertices = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::uint64_t range_vertices = 0;
    parse_num(field(g.responses[i], "vertices="), range_vertices);
    vertices += range_vertices;  // ranges partition [0, n)
  }
  const std::string& first = g.responses[0];
  double codelength = 0.0, modularity = 0.0;
  parse_num(field(first, "codelength="), codelength);
  parse_num(field(first, "modularity="), modularity);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    graph_n_[name] = static_cast<VertexId>(vertices);
  }
  std::string out =
      "OK version=" + std::to_string(version) +
      " vertices=" + std::to_string(vertices) +
      " arcs=" + std::string(field(first, "arcs=")) +
      " communities=" + std::string(field(first, "communities=")) +
      " codelength=" + fmt_double(codelength) +
      " modularity=" + fmt_double(modularity) +
      " interrupted=" + std::string(field(first, "interrupted=")) +
      " job=" + std::string(field(first, "job="));
  out += " vclock=" + vclock_of(name);
  return out;
}

std::string Router::handle_ingest(const serve::verbs::Verb& verb,
                                  const std::vector<std::string_view>& tokens,
                                  std::string_view line) {
  const std::string name(tokens[1]);
  const Gather g = broadcast(line);
  if (g.ok_count == 0) return err("unavailable", "no shard reachable");
  const std::size_t first_ok = observe_gather(g, name);
  if (!g.all_ok()) {
    // A replica missed a mutation: refuse rather than silently diverge
    // (reads would keep serving the old state everywhere anyway).
    return err("unavailable", "replicated " + std::string(verb.name) +
                                  " incomplete; shards_down=" + g.down_list());
  }
  if (verb.id == serve::verbs::Id::kDrop) {
    std::lock_guard<std::mutex> lock(state_mu_);
    vclock_.erase(name);
    graph_n_.erase(name);
  }
  return g.responses[first_ok];
}

std::string Router::handle_cluster(
    const std::vector<std::string_view>& tokens,
    const serve::verbs::JobOptions& opts) {
  const std::string name(tokens[1]);
  // The superstep protocol is synchronous and runs each step as an
  // interactive job on every shard: priority= and deadline_ms= were
  // validated and do not apply.
  if (opts.dist) return run_dist_cluster(name);
  std::string replicated = "CLUSTER " + name + " sync";  // forced sync: every
  // replica must publish before the router answers, else reads skew.
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i] != "sync") {
      replicated += ' ';
      replicated += tokens[i];
    }
  }

  const Gather g = broadcast(replicated);
  if (g.ok_count == 0) return err("unavailable", "no shard reachable");
  std::string out = g.responses[observe_gather(g, name)];
  if (!g.all_ok() && starts_with(out, "OK")) {
    // The replicas that answered did publish; the dead one will be skewed
    // when it returns — exactly what vclock/STALE reads are for.
    degraded_total_->inc();
    out += " degraded=1";
  }
  if (starts_with(out, "OK")) out += " vclock=" + vclock_of(name);
  return out;
}

std::string Router::run_dist_cluster(const std::string& name) {
  // The live form of run_distributed_infomap: shards propose over their
  // ranges against replicated module state; the router is the exchange,
  // concatenating movers in shard order and broadcasting one identical
  // apply list.  Same kernels, same order ⇒ same codelength as the
  // simulation with num_ranks == shards.
  const auto fail = [&](const std::string& why) {
    broadcast("DCLUSTER ABORT " + name);  // best effort
    return err("unavailable", "distributed cluster failed: " + why);
  };
  const auto all_ok = [](const Gather& g) {
    // A router with no shards has no replica to step.
    if (g.ok_count == 0 || !g.all_ok()) return false;
    for (const std::string& r : g.responses) {
      if (!starts_with(r, "OK")) return false;
    }
    return true;
  };

  Gather g = broadcast("DCLUSTER BEGIN " + name);
  if (!all_ok(g)) {
    for (std::size_t i = 0; i < g.responses.size(); ++i) {
      if (g.ok[i] && starts_with(g.responses[i], "ERR")) {
        broadcast("DCLUSTER ABORT " + name);
        return g.responses[i];  // canonical (unknown graph, ...)
      }
    }
    return fail("BEGIN incomplete");
  }
  double prev = 0.0;
  parse_num(field(g.responses[0], "codelength="), prev);

  int levels = 0;
  std::uint64_t supersteps = 0;
  for (int level = 0; level < config_.dist_max_levels; ++level) {
    levels = level + 1;
    for (int step = 0; step < config_.dist_max_supersteps; ++step) {
      // Scatter PROPOSE: each shard evaluates its own range.
      std::string movers;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        std::string resp;
        if (!shard_call(i, "DCLUSTER PROPOSE " + name, resp) ||
            !starts_with(resp, "OK")) {
          return fail("PROPOSE shard " + std::to_string(i));
        }
        const std::string_view list = field(resp, "list=");
        if (!list.empty() && list != "-") {
          if (!movers.empty()) movers += ',';
          movers += list;
        }
      }
      if (movers.empty()) break;
      ++supersteps;
      // Broadcast the mover list in bounded chunks: one concatenated list
      // can exceed the 16 MiB frame cap on large graphs.  Non-final chunks
      // carry `more`; shards apply them incrementally and defer recompute
      // to the final chunk, so chunked == one-shot bit for bit.
      std::string_view rest = movers;
      for (;;) {
        std::string_view chunk = rest;
        bool last = true;
        if (rest.size() > config_.apply_chunk_bytes) {
          std::size_t cut = rest.rfind(',', config_.apply_chunk_bytes);
          if (cut == std::string_view::npos) cut = rest.find(',');
          if (cut != std::string_view::npos) {
            chunk = rest.substr(0, cut);
            rest = rest.substr(cut + 1);
            last = false;
          }
        }
        std::string wire = "DCLUSTER APPLY " + name + " ";
        wire += chunk;
        if (!last) wire += " more";
        g = broadcast(wire);
        if (!all_ok(g)) return fail("APPLY incomplete");
        if (last) break;
      }
      std::uint64_t applied = 0;
      double codelength = prev;
      parse_num(field(g.responses[0], "applied="), applied);
      parse_num(field(g.responses[0], "codelength="), codelength);
      if (applied == 0 ||
          prev - codelength < config_.dist_min_improvement_bits) {
        break;
      }
      prev = codelength;
    }
    g = broadcast("DCLUSTER LEVEL " + name);
    if (!all_ok(g)) return fail("LEVEL incomplete");
    std::uint64_t done = 0;
    parse_num(field(g.responses[0], "done="), done);
    if (done == 1) break;
    parse_num(field(g.responses[0], "codelength="), prev);
  }

  g = broadcast("DCLUSTER COMMIT " + name);
  if (!all_ok(g)) return fail("COMMIT incomplete");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    observe_response(i, name, g.responses[i]);
  }
  std::uint64_t version = 0, communities = 0;
  double codelength = 0.0;
  parse_num(field(g.responses[0], "version="), version);
  parse_num(field(g.responses[0], "communities="), communities);
  parse_num(field(g.responses[0], "codelength="), codelength);
  return "OK mode=dist state=done version=" + std::to_string(version) +
         " communities=" + std::to_string(communities) +
         " codelength=" + fmt_double(codelength) +
         " levels=" + std::to_string(levels) +
         " supersteps=" + std::to_string(supersteps) +
         " vclock=" + vclock_of(name);
}

std::string Router::handle_shards() {
  std::string status, breakers;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) {
      status += ',';
      breakers += ',';
    }
    status += shards_[i]->up.load(std::memory_order_relaxed) ? "up" : "down";
    breakers += breaker_name(shards_[i]->breaker.state());
  }
  return "OK shards=" + std::to_string(shards_.size()) +
         " status=" + status + " breakers=" + breakers;
}

std::string Router::handle_stats() {
  return "OK shards=" + std::to_string(shards_.size()) +
         " requests=" + std::to_string(requests_.load()) +
         " retries=" + std::to_string(retries_total_->value()) +
         " degraded=" + std::to_string(degraded_total_->value()) +
         " stale=" + std::to_string(stale_total_->value()) +
         ops_.stats_identity();
}

// --- observability plane (ISSUE 10) ----------------------------------------

obs::HealthInputs Router::liveness_inputs() const {
  Gather g;
  for (const auto& shard : shards_) {
    g.ok.push_back(shard->up.load(std::memory_order_relaxed));
    if (g.ok.back()) ++g.ok_count;
  }
  return g.liveness();
}

Router::Gather Router::probe_fleet(
    std::string_view line,
    const std::function<bool(std::size_t, std::string_view)>& read) {
  Gather g;
  g.ok.assign(shards_.size(), false);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string resp;
    g.ok[i] = shard_call(i, line, resp) && starts_with(resp, "OK") &&
              read(i, resp);
    if (g.ok[i]) ++g.ok_count;
    shards_[i]->scraped_gauge->set(g.ok[i] ? 1 : 0);
  }
  fleet_up_->set(static_cast<double>(g.ok_count));
  fleet_down_->set(static_cast<double>(shards_.size() - g.ok_count));
  return g;
}

std::string Router::fleet_health() {
  // Live probe: one HEALTH per shard (shard_call updates the up/breaker
  // gauges as a side effect, so the probe refreshes the liveness view).
  std::vector<std::string> statuses(shards_.size(), "down");
  const obs::HealthInputs in =
      probe_fleet("HEALTH", [&](std::size_t i, std::string_view resp) {
        statuses[i] = field(resp, "status=");
        if (statuses[i].empty()) statuses[i] = "unknown";
        return true;
      }).liveness();

  const obs::HealthReport report = health_.evaluate(obs::mono_now_ns(), in);
  // Fold shard-reported verdicts: a shard that says degraded or unhealthy
  // makes the fleet at least degraded (reads fail over to replicas, so one
  // sick shard never makes the whole tier unhealthy by itself; losing a
  // majority does, via the shards SLO).
  obs::HealthStatus fleet = report.status;
  for (const std::string& s : statuses) {
    if ((s == "degraded" || s == "unhealthy" || s == "unknown") &&
        fleet == obs::HealthStatus::kHealthy) {
      fleet = obs::HealthStatus::kDegraded;
    }
  }
  std::string payload = report.render();
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    payload += "shard=" + std::to_string(i) + " status=" + statuses[i] + "\n";
  }
  if (!payload.empty() && payload.back() == '\n') payload.pop_back();
  std::string out = "OK status=";
  out += to_string(fleet);
  out += " shards=" + std::to_string(shards_.size());
  out += " up=" + std::to_string(in.shards_up);
  out += " down=" + std::to_string(in.shards_down);
  if (!in.down_list.empty()) out += " shards_down=" + in.down_list;
  out += " bytes=" + std::to_string(payload.size());
  out += '\n';
  out += payload;
  return out;
}

std::string Router::fleet_metrics(
    const std::vector<std::string_view>& tokens) {
  return ops_.fleet(tokens.size() == 3 ? tokens[2] : "prom", [&] {
    serve::OpsSurface::FleetScrape found;
    // Counters (the *_total convention) sum and histograms merge through
    // their decoded buckets into one shard="fleet" sample per series; a
    // gauge has no meaningful sum.
    std::vector<obs::MetricSample> fleet;
    std::unordered_map<std::string, std::size_t> fleet_index;
    const Gather g = probe_fleet(
        "METRICS json", [&](std::size_t i, std::string_view resp) {
          std::vector<obs::MetricSample> shard;
          const std::size_t nl = resp.find('\n');
          if (nl == std::string_view::npos ||
              !obs::parse_metrics_json(resp.substr(nl + 1), shard)) {
            return false;
          }
          const std::string id = std::to_string(i);
          for (obs::MetricSample& s : shard) {
            if (s.kind != obs::MetricKind::kGauge) {
              const auto [it, fresh] = fleet_index.try_emplace(
                  s.name + '\x01' + s.labels, fleet.size());
              if (fresh) {
                fleet.push_back({s.kind, s.name,
                                 with_shard_label(s.labels, "fleet"), 0.0,
                                 {}});
              }
              obs::MetricSample& agg = fleet[it->second];
              agg.value += s.value;
              agg.hist.merge(s.hist);
            }
            s.labels = with_shard_label(s.labels, id);
            found.series.push_back(std::move(s));
          }
          return true;
        });
    found.series.insert(found.series.end(),
                        std::make_move_iterator(fleet.begin()),
                        std::make_move_iterator(fleet.end()));
    found.liveness = g.liveness();
    // The router's own fleet gauges, which the probe just set.
    found.gauges = {
        {obs::MetricKind::kGauge, "asamap_fleet_shards_up", "",
         fleet_up_->value(), {}},
        {obs::MetricKind::kGauge, "asamap_fleet_shards_down", "",
         fleet_down_->value(), {}}};
    return found;
  });
}

}  // namespace asamap::dist
