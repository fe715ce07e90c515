#include "asamap/serve/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asamap/dyn/incremental.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/protocol.hpp"
#include "asamap/support/hash.hpp"
#include "asamap/support/timer.hpp"

namespace asamap::serve {

using namespace protocol;

namespace {

std::string verb_label(std::string_view verb) {
  return "verb=\"" + std::string(verb) + "\"";
}

/// The session's config copy with every subsystem pointed at the session
/// metric registry and fault injector — the one place the pointers are
/// threaded through, so a caller-supplied SessionConfig cannot accidentally
/// split the registry (or miss the injection sites).
SessionConfig with_metrics(SessionConfig c, obs::MetricRegistry* reg,
                           fault::FaultInjector* faults) {
  c.registry.metrics = reg;
  c.scheduler.metrics = reg;
  c.infomap.metrics = reg;  // clustering jobs record kernel spans here
  c.registry.faults = faults;
  c.scheduler.faults = faults;
  return c;
}

}  // namespace

ServeSession::ServeSession(const SessionConfig& config)
    : config_(with_metrics(config, &metrics_, &faults_)),
      registry_(config_.registry),
      store_(),
      breaker_(config_.breaker),
      window_(metrics_, config_.window, obs::mono_now_ns()),
      health_(metrics_, window_, config_.slo, "asamap_serve_requests_total",
              "asamap_serve_errors_total", "asamap_serve_request_seconds",
              "asamap_breaker_state"),
      ops_(metrics_, window_, health_, "serve"),
      scheduler_(config_.scheduler) {
  // A verb's rows share one series; the row names are NUL-terminated
  // literals, so .data() doubles as the static trace-span name.
  for (const verbs::Verb& verb : verbs::table()) {
    if (!verb.served_by(verbs::kSession)) continue;
    const std::string label = verb_label(verb.name);
    verb_metrics_[verb.index()] = {
        &metrics_.counter("asamap_serve_requests_total", label),
        &metrics_.histogram("asamap_serve_request_seconds", label),
        verb.name.data()};
  }
  const std::string other = verb_label("other");
  other_verb_metrics_ = {
      &metrics_.counter("asamap_serve_requests_total", other),
      &metrics_.histogram("asamap_serve_request_seconds", other)};
  for (VerbMetrics& vm : verb_metrics_) {
    if (vm.requests == nullptr) vm = other_verb_metrics_;
  }
  errors_total_ = &metrics_.counter("asamap_serve_errors_total");
  // Robustness metrics, pre-registered so the scrape schema is stable
  // whether or not any fault/degradation ever happens.
  faults_.attach_metrics(&metrics_);
  stale_serves_ = &metrics_.counter("asamap_stale_serves_total");
  // Dynamic-graph metrics (DESIGN.md §4f), pre-registered for the same
  // reason: the scrape schema must not depend on whether mutations arrived.
  delta_adds_ = &metrics_.counter("asamap_delta_records_total", "op=\"add\"");
  delta_dels_ = &metrics_.counter("asamap_delta_records_total", "op=\"del\"");
  delta_pending_ = &metrics_.gauge("asamap_delta_pending");
  delta_compactions_ = &metrics_.counter("asamap_delta_compactions_total");
  delta_folded_ = &metrics_.counter("asamap_delta_folded_records_total");
  apply_full_ = &metrics_.counter("asamap_delta_applies_total", "mode=\"full\"");
  apply_incr_ = &metrics_.counter("asamap_delta_applies_total", "mode=\"incr\"");
  apply_seconds_ = &metrics_.histogram("asamap_delta_apply_seconds");
  incr_published_ = &metrics_.counter("asamap_incr_publishes_total");
  incr_skipped_ = &metrics_.counter("asamap_incr_skipped_total",
                                    "reason=\"no_improvement\"");
  incr_active_ = &metrics_.gauge("asamap_incr_active_vertices");
  breaker_state_ = &metrics_.gauge("asamap_breaker_state");
  breaker_state_->set(0);  // closed
  breaker_to_open_ =
      &metrics_.counter("asamap_breaker_transitions_total", "to=\"open\"");
  breaker_to_half_open_ = &metrics_.counter("asamap_breaker_transitions_total",
                                            "to=\"half_open\"");
  breaker_to_closed_ =
      &metrics_.counter("asamap_breaker_transitions_total", "to=\"closed\"");
  breaker_.set_listener([this](fault::CircuitBreaker::State s) {
    breaker_state_->set(static_cast<double>(s));
    switch (s) {
      case fault::CircuitBreaker::State::kOpen:
        breaker_to_open_->inc();
        // Shed batch-lane queued work before interactive: the breaker
        // opening means submissions are failing, and queued batch jobs are
        // the load we can drop without hurting interactive callers.
        scheduler_.shed(JobPriority::kBatch);
        break;
      case fault::CircuitBreaker::State::kHalfOpen:
        breaker_to_half_open_->inc();
        break;
      case fault::CircuitBreaker::State::kClosed:
        breaker_to_closed_->inc();
        break;
    }
  });
}

ServeSession::~ServeSession() { scheduler_.shutdown(); }

ServeStatus ServeSession::load_text(const std::string& name,
                                    std::string_view text, bool undirected) {
  const ServeStatus status = registry_.put_text(name, text, undirected);
  // Replace semantics: pending deltas patched the *previous* base graph.
  if (status.ok()) reset_deltas(name);
  return status;
}

ServeStatus ServeSession::load_file(const std::string& name,
                                    const std::string& path, bool undirected) {
  const ServeStatus status = registry_.put_file(name, path, undirected);
  if (status.ok()) reset_deltas(name);
  return status;
}

ServeStatus ServeSession::gen_chung_lu(const std::string& name,
                                       graph::VertexId n, std::uint64_t edges,
                                       std::uint64_t seed) {
  if (n == 0 || edges == 0) {
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "GEN requires n > 0 and edges > 0");
  }
  if (n < 2) {  // the generator's own precondition, which would throw
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "GEN requires n >= 2");
  }
  if (n > config_.registry.max_vertex_id) {
    return ServeStatus::error(
        ServeCode::kTooLarge,
        "requested " + std::to_string(n) + " vertices exceeds limit " +
            std::to_string(config_.registry.max_vertex_id));
  }
  gen::ChungLuParams params;
  params.n = n;
  params.target_edges = edges;
  // Parameter fingerprint: identical GEN requests dedup to one resident
  // graph, like identical text uploads.
  std::uint64_t fp = support::mix64(0x67656eULL ^ n);
  fp = support::mix64(fp ^ edges);
  fp = support::mix64(fp ^ seed);
  const ServeStatus status =
      registry_.put_graph(name, gen::chung_lu(params, seed), fp);
  if (status.ok()) reset_deltas(name);
  return status;
}

bool ServeSession::drop(const std::string& name) {
  reset_deltas(name);  // discard pending mutations and release the pin
  const bool had_graph = registry_.erase(name);
  store_.drop(name);
  return had_graph;
}

SubmitResult ServeSession::submit_recluster(const std::string& name,
                                            JobPriority priority,
                                            std::chrono::milliseconds deadline) {
  GraphRegistry::GraphPtr graph = registry_.get(name);
  if (!graph) {
    return {0, ServeStatus::error(ServeCode::kNotFound,
                                  "unknown graph '" + name + "'")};
  }
  // The job captures the graph shared_ptr: eviction or DROP mid-flight
  // cannot pull the memory out from under the run.
  return scheduler_.submit(
      [this, name, graph](const JobContext& ctx) {
        // `cluster.sweep` injection (chaos builds): error -> the job fails,
        // cancel -> a real cooperative cancel, latency -> a stalled sweep,
        // partial -> the run completes but its publish is lost.
        const fault::FaultDecision sweep_fault =
            fault::check(&faults_, fault::Site::kClusterSweep);
        if (sweep_fault.effect == fault::Effect::kError) {
          throw std::runtime_error("injected cluster.sweep fault");
        }
        if (sweep_fault.effect == fault::Effect::kCancel) {
          scheduler_.cancel(ctx.id);
          return;
        }
        if (sweep_fault.effect == fault::Effect::kLatency) {
          std::this_thread::sleep_for(sweep_fault.latency);
        }
        core::InfomapOptions opts = config_.infomap;
        opts.cancel = ctx.stop;
        core::InfomapResult result =
            core::run_infomap_parallel(*graph, opts, config_.cluster_threads);
        // A cancelled or expired job publishes nothing — readers only ever
        // see partitions from runs that were allowed to finish.
        if (ctx.stop_requested()) return;
        if (sweep_fault.effect == fault::Effect::kPartialWrite) return;
        obs::TraceSpan publish_span("snapshot.publish",
                                    obs::TraceCat::kSession);
        PartitionSnapshot snap = make_snapshot(graph, result);
        snap.build_job = ctx.id;
        store_.publish(name, std::move(snap));
      },
      priority, deadline);
}

PartitionStore::SnapshotPtr ServeSession::snapshot(const std::string& name) {
  return store_.snapshot(name);
}

// --- dynamic graphs (DESIGN.md §4f) ----------------------------------------

ServeSession::DeltaStatePtr ServeSession::delta_state(const std::string& name) {
  std::lock_guard<std::mutex> lock(delta_mu_);
  DeltaStatePtr& slot = deltas_[name];
  if (!slot) slot = std::make_shared<DeltaState>();
  return slot;
}

void ServeSession::reset_deltas(const std::string& name) {
  DeltaStatePtr ds;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    const auto it = deltas_.find(name);
    if (it == deltas_.end()) return;
    ds = std::move(it->second);
    deltas_.erase(it);
  }
  std::lock_guard<std::mutex> lock(ds->mu);
  const std::size_t pending = ds->log.pending();
  if (pending > 0) {
    ds->log.truncate(pending);
    delta_pending_->add(-static_cast<double>(pending));
  }
  // An APPLY job still holding this (now orphaned) state folds an empty log
  // and re-clusters whatever graph the name resolves to — harmless.
  registry_.set_pinned(name, false);
}

ServeStatus ServeSession::add_edge(const std::string& name, graph::VertexId u,
                                   graph::VertexId v, graph::Weight w) {
  return mutate_edge(name, u, v, w, /*is_add=*/true, nullptr, nullptr);
}

ServeStatus ServeSession::del_edge(const std::string& name, graph::VertexId u,
                                   graph::VertexId v) {
  return mutate_edge(name, u, v, 0.0, /*is_add=*/false, nullptr, nullptr);
}

ServeStatus ServeSession::mutate_edge(const std::string& name,
                                      graph::VertexId u, graph::VertexId v,
                                      graph::Weight w, bool is_add,
                                      std::size_t* pending_out,
                                      bool* folded_out) {
  if (u == v) {
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "self-loops carry no flow; rejected");
  }
  if (is_add && !(w > 0.0)) {
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "ADD_EDGE weight must be > 0");
  }
  if (u > config_.registry.max_vertex_id ||
      v > config_.registry.max_vertex_id) {
    return ServeStatus::error(
        ServeCode::kTooLarge,
        "vertex id exceeds limit " +
            std::to_string(config_.registry.max_vertex_id));
  }
  const GraphRegistry::GraphPtr base = registry_.get(name);
  if (!base) {
    return ServeStatus::error(ServeCode::kNotFound,
                              "unknown graph '" + name + "'");
  }
  // New vertices arrive with their first edge, but only within headroom of
  // the current count — one wild endpoint must not inflate the next fold.
  const std::uint64_t limit = std::uint64_t{base->num_vertices()} +
                              config_.delta_new_vertex_headroom;
  if (u >= limit || v >= limit) {
    return ServeStatus::error(
        ServeCode::kTooLarge,
        "endpoint " + std::to_string(std::max(u, v)) +
            " exceeds vertex headroom (graph has " +
            std::to_string(base->num_vertices()) + " vertices, headroom " +
            std::to_string(config_.delta_new_vertex_headroom) + ")");
  }
  const DeltaStatePtr ds = delta_state(name);
  std::lock_guard<std::mutex> lock(ds->mu);
  if (is_add) {
    ds->log.add_edge(u, v, w);
    delta_adds_->inc();
  } else {
    ds->log.del_edge(u, v);
    delta_dels_->inc();
  }
  delta_pending_->add(1.0);
  bool folded = false;
  // Threshold fold: bound the log's memory without waiting for an APPLY.
  // Skipped while an APPLY is in flight — its own fold is imminent, and two
  // concurrent folds of the same base would race on the republish.
  if (ds->log.pending() >= config_.delta_compact_threshold &&
      !apply_inflight_locked(*ds)) {
    folded = fold_delta_locked(name, *ds, nullptr, nullptr).ok();
  }
  refresh_delta_pin_locked(name, *ds);
  if (pending_out != nullptr) *pending_out = ds->log.pending();
  if (folded_out != nullptr) *folded_out = folded;
  return {};
}

ServeStatus ServeSession::fold_delta_locked(
    const std::string& name, DeltaState& ds,
    GraphRegistry::GraphPtr* merged_out,
    std::vector<graph::VertexId>* touched_out) {
  GraphRegistry::GraphPtr base = registry_.get(name);
  if (!base) {
    return ServeStatus::error(
        ServeCode::kNotFound,
        "graph '" + name + "' is gone; pending mutations are orphaned");
  }
  const std::vector<dyn::DeltaRecord> batch = ds.log.snapshot();
  if (batch.empty()) {
    if (merged_out != nullptr) *merged_out = std::move(base);
    if (touched_out != nullptr) touched_out->clear();
    return {};
  }
  obs::TraceSpan span("delta.compact", obs::TraceCat::kSession);
  const dyn::DeltaView view(*base, batch);
  // Fingerprint 0: a merged graph is never content-identical to an upload.
  const ServeStatus put = registry_.put_graph(name, view.materialize(), 0);
  if (!put.ok()) return put;
  // Only now consume the batch: a fold that failed above lost nothing.
  ds.log.truncate(batch.size());
  ds.compactions += 1;
  ds.last_batch = batch.size();
  delta_pending_->add(-static_cast<double>(batch.size()));
  delta_compactions_->inc();
  delta_folded_->inc(batch.size());
  if (touched_out != nullptr) *touched_out = view.touched();
  if (merged_out != nullptr) *merged_out = registry_.get(name);
  return {};
}

bool ServeSession::apply_inflight_locked(const DeltaState& ds) const {
  if (ds.apply_job == 0) return false;
  const JobState s = scheduler_.state(ds.apply_job);
  return s == JobState::kQueued || s == JobState::kRunning;
}

void ServeSession::refresh_delta_pin_locked(const std::string& name,
                                            DeltaState& ds) {
  registry_.set_pinned(name,
                       !ds.log.empty() || apply_inflight_locked(ds));
}

SubmitResult ServeSession::submit_apply(const std::string& name,
                                        bool incremental, JobPriority priority,
                                        std::chrono::milliseconds deadline) {
  if (!registry_.get(name)) {
    return {0, ServeStatus::error(ServeCode::kNotFound,
                                  "unknown graph '" + name + "'")};
  }
  const DeltaStatePtr ds = delta_state(name);
  // Check-and-submit under ds->mu so two racing APPLYs cannot both pass the
  // in-flight test (lock order: DeltaState::mu -> scheduler internals).
  std::lock_guard<std::mutex> lock(ds->mu);
  if (apply_inflight_locked(*ds)) {
    return {0, ServeStatus::error(ServeCode::kUnavailable,
                                  "APPLY already in flight for '" + name +
                                      "' (job " +
                                      std::to_string(ds->apply_job) + ")")};
  }
  const SubmitResult submitted = scheduler_.submit(
      [this, name, ds, incremental](const JobContext& ctx) {
        apply_job_body(name, ds, incremental, ctx);
      },
      priority, deadline);
  if (submitted.accepted()) {
    ds->apply_job = submitted.id;
    refresh_delta_pin_locked(name, *ds);
  }
  return submitted;
}

void ServeSession::apply_job_body(const std::string& name,
                                  const DeltaStatePtr& ds, bool incremental,
                                  const JobContext& ctx) {
  obs::TraceSpan apply_span("delta.apply", obs::TraceCat::kSession);
  support::WallTimer wall;
  // Re-derive the pin on every exit (early returns, throws): once this body
  // is done the job is terminal, so only un-folded records keep it held.
  struct PinGuard {
    ServeSession* session;
    const std::string& name;
    const DeltaStatePtr& ds;
    ~PinGuard() {
      std::lock_guard<std::mutex> lock(ds->mu);
      session->registry_.set_pinned(name, !ds->log.empty());
    }
  } pin_guard{this, name, ds};
  // Same chaos surface as CLUSTER's job body (`cluster.sweep`).
  const fault::FaultDecision sweep_fault =
      fault::check(&faults_, fault::Site::kClusterSweep);
  if (sweep_fault.effect == fault::Effect::kError) {
    throw std::runtime_error("injected cluster.sweep fault");
  }
  if (sweep_fault.effect == fault::Effect::kCancel) {
    scheduler_.cancel(ctx.id);
    return;
  }
  if (sweep_fault.effect == fault::Effect::kLatency) {
    std::this_thread::sleep_for(sweep_fault.latency);
  }

  GraphRegistry::GraphPtr merged;
  std::vector<graph::VertexId> touched;
  {
    std::lock_guard<std::mutex> lock(ds->mu);
    const ServeStatus fold = fold_delta_locked(name, *ds, &merged, &touched);
    if (!fold.ok()) {
      throw std::runtime_error("APPLY fold failed: " +
                               std::string(fold.text()));
    }
  }
  if (ctx.stop_requested()) return;

  const PartitionStore::SnapshotPtr prev = store_.snapshot(name);
  // Warm start needs a previous membership that still fits the merged
  // graph; without one (never clustered) fall back to a full recluster.
  const bool warm = incremental && prev != nullptr &&
                    prev->communities.size() <= merged->num_vertices();
  core::InfomapOptions opts = config_.infomap;
  opts.cancel = ctx.stop;
  dyn::WarmStart plan;
  if (warm) {
    obs::TraceSpan warm_span("delta.warm_start", obs::TraceCat::kSession);
    plan = dyn::plan_warm_start(prev->communities, merged->num_vertices(),
                                touched);
    opts.warm_start = &plan.init;
    opts.active_seed = &plan.active_seed;
    incr_active_->set(static_cast<double>(plan.active_seed.size()));
  }
  const core::InfomapResult result =
      core::run_infomap_parallel(*merged, opts, config_.cluster_threads);
  if (ctx.stop_requested()) return;
  if (sweep_fault.effect == fault::Effect::kPartialWrite) return;

  // Publish-on-improvement: for a warm run, initial_codelength is the
  // carried-over partition's L on the merged graph — if the re-sweep could
  // not beat it, the old snapshot keeps serving and we record why.
  const bool published =
      !warm ||
      result.codelength < result.initial_codelength - config_.incr_publish_epsilon;
  (warm ? apply_incr_ : apply_full_)->inc();
  if (published) {
    obs::TraceSpan publish_span("snapshot.publish", obs::TraceCat::kSession);
    PartitionSnapshot snap = make_snapshot(merged, result);
    snap.build_job = ctx.id;
    store_.publish(name, std::move(snap));
    if (warm) incr_published_->inc();
  } else {
    incr_skipped_->inc();
  }
  apply_seconds_->record_seconds(wall.seconds());
  std::lock_guard<std::mutex> lock(ds->mu);
  if (warm) {
    ds->applies_incr += 1;
    if (published) {
      ds->incr_published += 1;
      ds->last_skip = "none";
    } else {
      ds->incr_skipped += 1;
      ds->last_skip = "no_improvement";
    }
  } else {
    ds->applies_full += 1;
  }
}

ServeSession::DeltaStatus ServeSession::delta_status(const std::string& name) {
  DeltaStatus out;
  out.pinned = registry_.pinned(name);
  DeltaStatePtr ds;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    const auto it = deltas_.find(name);
    if (it != deltas_.end()) ds = it->second;
  }
  if (!ds) return out;
  std::lock_guard<std::mutex> lock(ds->mu);
  out.known = true;
  const dyn::DeltaLogStats ls = ds->log.stats();
  out.pending = ls.pending;
  out.adds = ls.adds;
  out.dels = ls.dels;
  out.compactions = ds->compactions;
  out.applies_full = ds->applies_full;
  out.applies_incr = ds->applies_incr;
  out.last_batch = ds->last_batch;
  out.incr_published = ds->incr_published;
  out.incr_skipped = ds->incr_skipped;
  out.last_skip = ds->last_skip;
  out.apply_inflight = apply_inflight_locked(*ds);
  out.apply_job = ds->apply_job;
  return out;
}

std::string ServeSession::degraded_cluster(const std::string& name,
                                           const char* reason) {
  const auto snap = store_.snapshot(name);
  if (!snap) return {};
  stale_serves_->inc();
  return "OK STALE version=" + std::to_string(snap->version) + " graph=" +
         name + " reason=" + reason +
         " communities=" + std::to_string(snap->num_communities) +
         " codelength=" + fmt_double(snap->codelength);
}

std::string ServeSession::io_fault() {
  const fault::FaultDecision fault =
      fault::check(&faults_, fault::Site::kSessionIo);
  if (fault.effect == fault::Effect::kLatency) {
    std::this_thread::sleep_for(fault.latency);
  } else if (fault.effect != fault::Effect::kNone) {
    return err(ServeCode::kUnavailable, "injected session.io fault");
  }
  return {};
}

std::string ServeSession::ingested(const std::string& name,
                                   const ServeStatus& status) {
  if (!status.ok()) return err(status);
  const auto g = registry_.get(name);
  return "OK graph=" + name + " vertices=" +
         std::to_string(g->num_vertices()) +
         " arcs=" + std::to_string(g->num_arcs());
}

std::string ServeSession::snapshot_fields(const PartitionSnapshot& snap) {
  return " version=" + std::to_string(snap.version) +
         " communities=" + std::to_string(snap.num_communities) +
         " codelength=" + fmt_double(snap.codelength);
}

std::string ServeSession::handle_line(std::string_view line) {
  support::WallTimer wall;
  std::vector<std::string_view> tokens;
  tokenize_into(trim_trailing_ws(line), tokens);
  const verbs::Resolved request = verbs::resolve(tokens, verbs::kSession);
  const VerbMetrics& vm = request.verb != nullptr
                              ? verb_metrics_[request.verb->index()]
                              : other_verb_metrics_;
  std::string response;
  {
    // Root span of this request's trace: jobs submitted inside inherit the
    // context, so everything the verb triggers lands under one trace id.
    obs::TraceSpan span(vm.trace_name, obs::TraceCat::kSession);
    response = handle_line_impl(request, tokens);
  }
  record(vm, wall.seconds(), response);
  return response;
}

void ServeSession::record(const VerbMetrics& vm, double seconds,
                          std::string_view response) {
  vm.requests->inc();
  vm.latency->record_seconds(seconds);
  if (response.rfind("ERR", 0) == 0) errors_total_->inc();
}

void ServeSession::record_request(verbs::Id verb, double seconds,
                                  std::string_view response) {
  record(verb_metrics_[static_cast<std::size_t>(verb)], seconds, response);
}

void ServeSession::handle_batch(const std::vector<std::string_view>& lines,
                                std::vector<std::string>& responses) {
  responses.clear();
  responses.reserve(lines.size());
  SnapshotCache cache;
  // Reused across calls on the same thread: the read fast path must not pay
  // a vector allocation per request.
  thread_local std::vector<std::string_view> tokens;
  // Pipelined batches repeat the same verb run after run, so the verb-table
  // lookup is memoised on the previous verb.
  std::string_view last_name;
  const verbs::Verb* last_verb = nullptr;
  for (const std::string_view raw : lines) {
    const std::string_view line = trim_trailing_ws(raw);
    tokenize_into(line, tokens);
    const std::string_view name =
        tokens.empty() ? std::string_view{} : tokens[0];
    if (name != last_name) {
      last_name = name;
      last_verb = verbs::find(name, verbs::kSession);
    }
    if (last_verb == nullptr || !last_verb->read) {
      // Non-read verbs take the full handle_line path (root span, metrics,
      // fault sites) and may publish or drop snapshots — reset the memo so
      // later reads in this batch observe what they changed.
      cache = SnapshotCache{};
      responses.push_back(handle_line(line));
      continue;
    }
    // Read fast path: no root trace span (the transport owns the batch
    // span), snapshot acquire memoised across the run.
    support::WallTimer wall;
    const VerbMetrics& vm = verb_metrics_[last_verb->index()];
    std::string response = io_fault();
    if (response.empty()) {
      verbs::Resolved request =
          verbs::select(*last_verb, tokens, verbs::kSession);
      response = request.error.empty()
                     ? handle_read(last_verb->id, tokens, &cache)
                     : std::move(request.error);
    }
    record(vm, wall.seconds(), response);
    responses.push_back(std::move(response));
  }
}

std::string ServeSession::handle_line_impl(
    const verbs::Resolved& request,
    const std::vector<std::string_view>& tokens) {
  if (tokens.empty()) return request.error;

  // FAULTS is exempt from `session.io` so an operator can always inspect
  // or CLEAR a plan.
  if (request.verb == nullptr || request.verb->name != "FAULTS") {
    if (std::string fault = io_fault(); !fault.empty()) return fault;
  }
  if (!request.error.empty()) return request.error;

  const verbs::Verb& verb = *request.verb;
  switch (verb.id) {
    case verbs::Id::kGen: {
      graph::VertexId n = 0;
      std::uint64_t edges = 0;
      std::uint64_t seed = 42;
      if (!parse_num(tokens[2], n) || !parse_num(tokens[3], edges) ||
          (tokens.size() == 5 && !parse_num(tokens[4], seed))) {
        return err(ServeCode::kInvalidArgument,
                   "GEN: numeric argument expected");
      }
      const std::string name(tokens[1]);
      return ingested(name, gen_chung_lu(name, n, edges, seed));
    }

    case verbs::Id::kLoad: {
      const bool undirected = !(tokens.size() == 4 && tokens[3] == "directed");
      const std::string name(tokens[1]);
      return ingested(name,
                      load_file(name, std::string(tokens[2]), undirected));
    }

    case verbs::Id::kDrop: {
      const std::string name(tokens[1]);
      if (!drop(name)) {
        return err(ServeCode::kNotFound, "unknown graph '" + name + "'");
      }
      return "OK dropped=" + name;
    }

    case verbs::Id::kCluster: {
      verbs::JobOptions opts;
      if (std::string e =
              verbs::parse_job_options(verb, tokens, verbs::kSession, opts);
          !e.empty()) {
        return e;
      }
      const std::string name(tokens[1]);
      // Graceful degradation: under memory pressure or an open breaker, a
      // re-cluster would only add load — answer from the last published
      // snapshot, explicitly marked STALE, instead of rejecting.
      if (registry_.under_pressure()) {
        if (auto stale = degraded_cluster(name, "memory_pressure");
            !stale.empty()) {
          return stale;
        }
        // Never clustered: fall through and try anyway (best effort).
      }
      if (!breaker_.allow()) {
        if (auto stale = degraded_cluster(name, "breaker_open");
            !stale.empty()) {
          return stale;
        }
        return err(ServeCode::kUnavailable,
                   "circuit breaker open and no snapshot to degrade to");
      }
      const SubmitResult submitted =
          submit_recluster(name, opts.priority, opts.deadline);
      if (!submitted.accepted()) {
        if (submitted.status.code == ServeCode::kRejected ||
            submitted.status.code == ServeCode::kShutdown) {
          breaker_.record_failure();
          if (auto stale = degraded_cluster(name, "queue_full");
              !stale.empty()) {
            return stale;
          }
        } else {
          // Client-side failure (unknown graph): the service answered fine —
          // resolve a half-open probe as success, not failure.
          breaker_.record_success();
        }
        return err(submitted.status);
      }
      breaker_.record_success();
      if (!opts.sync) {
        return "OK job=" + std::to_string(submitted.id) +
               " state=" + to_string(scheduler_.state(submitted.id));
      }
      const JobState terminal = scheduler_.wait(submitted.id);
      std::string out = "OK job=" + std::to_string(submitted.id) +
                        " state=" + to_string(terminal);
      if (terminal == JobState::kDone) {
        if (const auto snap = store_.snapshot(name)) {
          out += snapshot_fields(*snap);
        }
      }
      return out;
    }

    case verbs::Id::kAddEdge:
    case verbs::Id::kDelEdge: {
      const bool is_add = verb.id == verbs::Id::kAddEdge;
      graph::VertexId u = 0, v = 0;
      double w = 1.0;
      if (!parse_num(tokens[2], u) || !parse_num(tokens[3], v) ||
          (tokens.size() == 5 && !parse_num(tokens[4], w))) {
        return err(ServeCode::kInvalidArgument,
                   std::string(verb.name) + ": numeric argument expected");
      }
      const std::string name(tokens[1]);
      std::size_t pending = 0;
      bool folded = false;
      const ServeStatus status =
          mutate_edge(name, u, v, w, is_add, &pending, &folded);
      if (!status.ok()) return err(status);
      std::string out = "OK graph=" + name + " op=";
      out += is_add ? "add" : "del";
      out += " u=" + std::to_string(u) + " v=" + std::to_string(v);
      if (is_add) out += " w=" + fmt_double(w);
      out += " pending=" + std::to_string(pending) + " folded=";
      out += folded ? '1' : '0';
      return out;
    }

    case verbs::Id::kApply: {
      verbs::JobOptions opts;
      if (std::string e =
              verbs::parse_job_options(verb, tokens, verbs::kSession, opts);
          !e.empty()) {
        return e;
      }
      const std::string name(tokens[1]);
      // `published=` in the sync answer compares snapshot versions across
      // the job, not a flag out of the body — the observable truth.
      const auto pre = store_.snapshot(name);
      const std::uint64_t pre_version = pre ? pre->version : 0;
      const SubmitResult submitted = submit_apply(
          name, opts.incremental, opts.priority, opts.deadline);
      if (!submitted.accepted()) return err(submitted.status);
      const char* mode = opts.incremental ? "incr" : "full";
      if (!opts.sync) {
        return "OK job=" + std::to_string(submitted.id) + " mode=" + mode +
               " state=" + to_string(scheduler_.state(submitted.id));
      }
      const JobState terminal = scheduler_.wait(submitted.id);
      std::string out = "OK job=" + std::to_string(submitted.id) +
                        " mode=" + mode + " state=" + to_string(terminal);
      if (terminal == JobState::kDone) {
        const auto snap = store_.snapshot(name);
        const bool published = snap && snap->version != pre_version;
        out += " published=";
        out += published ? '1' : '0';
        if (snap) out += snapshot_fields(*snap);
        if (!published) {
          out += " reason=";
          out += delta_status(name).last_skip;
        }
      }
      return out;
    }

    case verbs::Id::kDeltaStatus: {
      const std::string name(tokens[2]);
      const DeltaStatus st = delta_status(name);
      if (!st.known && !registry_.get(name)) {
        return err(ServeCode::kNotFound, "unknown graph '" + name + "'");
      }
      std::string out =
          "OK graph=" + name + " pending=" + std::to_string(st.pending) +
          " adds=" + std::to_string(st.adds) +
          " dels=" + std::to_string(st.dels) +
          " compactions=" + std::to_string(st.compactions) +
          " last_batch=" + std::to_string(st.last_batch) +
          " applies_full=" + std::to_string(st.applies_full) +
          " applies_incr=" + std::to_string(st.applies_incr) +
          " incr_published=" + std::to_string(st.incr_published) +
          " incr_skipped=" + std::to_string(st.incr_skipped) +
          " last_skip=" + st.last_skip + " inflight=";
      out += st.apply_inflight ? '1' : '0';
      out += " apply_job=" + std::to_string(st.apply_job) + " pinned=";
      out += st.pinned ? '1' : '0';
      return out;
    }

    case verbs::Id::kWait:
    case verbs::Id::kCancel: {
      std::uint64_t id = 0;
      if (!parse_num(tokens[1], id) || id == 0) {
        return err(ServeCode::kInvalidArgument, "bad job id");
      }
      if (verb.id == verbs::Id::kCancel) {
        const bool accepted = scheduler_.cancel(id);
        return "OK job=" + std::to_string(id) +
               " cancelled=" + (accepted ? "1" : "0") +
               " state=" + to_string(scheduler_.state(id));
      }
      return "OK job=" + std::to_string(id) +
             " state=" + to_string(scheduler_.wait(id));
    }

    case verbs::Id::kMember:
    case verbs::Id::kSame:
    case verbs::Id::kTopk:
    case verbs::Id::kSummary:
      return handle_read(verb.id, tokens, nullptr);

    case verbs::Id::kStats: {
      const RegistryStats reg = registry_.stats();
      const SchedulerStats sch = scheduler_.stats();
      return "OK graphs=" + std::to_string(reg.entries) +
             " resident_bytes=" + std::to_string(reg.resident_bytes) +
             " dedup_hits=" + std::to_string(reg.dedup_hits) +
             " evictions=" + std::to_string(reg.evictions) +
             " snapshots=" + std::to_string(store_.size()) +
             " submitted=" + std::to_string(sch.submitted) +
             " completed=" + std::to_string(sch.completed) +
             " failed=" + std::to_string(sch.failed) +
             " rejected=" + std::to_string(sch.rejected) +
             " cancelled=" + std::to_string(sch.cancelled) +
             " expired=" + std::to_string(sch.expired) +
             " queued_interactive=" + std::to_string(sch.queued_interactive) +
             " queued_batch=" + std::to_string(sch.queued_batch) +
             " running=" + std::to_string(sch.running) +
             " retries=" +
             std::to_string(reg.ingest_retries + sch.dispatch_retries) +
             " shed=" + std::to_string(sch.shed) + " breaker=" +
             fault::to_string(breaker_.state()) + ops_.stats_identity();
    }

    case verbs::Id::kFaultsStatus: {
      std::string out = "OK enabled=";
      out += fault::kFaultInjectionEnabled ? '1' : '0';
      out += " armed=";
      out += faults_.armed() ? '1' : '0';
      out += " rules=" + std::to_string(faults_.rule_count()) +
             " injected=" + std::to_string(faults_.injected_total()) +
             " breaker=";
      out += fault::to_string(breaker_.state());
      return out;
    }

    case verbs::Id::kFaultsClear:
      faults_.clear();
      return "OK armed=0";

    case verbs::Id::kFaultsLoad: {
      fault::PlanParseResult parsed =
          fault::load_fault_plan_file(std::string(tokens[2]));
      if (!parsed.ok()) {
        return err(ServeCode::kInvalidArgument,
                   "line " + std::to_string(parsed.error->line) + ": " +
                       parsed.error->message);
      }
      const std::size_t rules = parsed.plan.rules.size();
      const std::uint64_t seed = parsed.plan.seed;
      faults_.load(std::move(parsed.plan));
      std::string out = "OK loaded=" + std::string(tokens[2]) +
                        " seed=" + std::to_string(seed) +
                        " rules=" + std::to_string(rules) + " armed=";
      out += faults_.armed() ? '1' : '0';
      return out;
    }

    case verbs::Id::kQuit:
      return "OK bye";

    default:  // METRICS, METRICS WINDOW, HEALTH, TRACE
      return ops_.handle(verb.id, tokens);
  }
}

std::string ServeSession::handle_read(
    verbs::Id verb, const std::vector<std::string_view>& tokens,
    SnapshotCache* cache) {
  const auto need_snapshot =
      [&](std::string_view name,
          PartitionStore::SnapshotPtr& snap) -> std::string {
    if (cache && cache->snap && std::string_view(cache->name) == name) {
      snap = cache->snap;  // the batch's memoised acquire
      return {};
    }
    std::string key(name);
    snap = store_.snapshot(key);
    if (snap) {
      if (cache) {
        cache->name = std::move(key);
        cache->snap = snap;
      }
      return {};
    }
    if (!registry_.get(key)) {
      return err(ServeCode::kNotFound, "unknown graph '" + key + "'");
    }
    return err(ServeCode::kNoPartition,
               "graph '" + key + "' has no published partition; CLUSTER it");
  };

  if (verb == verbs::Id::kMember) {
    graph::VertexId v = 0;
    if (!parse_num(tokens[2], v)) {
      return err(ServeCode::kInvalidArgument, "bad vertex id");
    }
    PartitionStore::SnapshotPtr snap;
    if (auto e = need_snapshot(tokens[1], snap); !e.empty()) {
      return e;
    }
    if (v >= snap->communities.size()) {
      return err(ServeCode::kInvalidArgument,
                 "vertex " + std::to_string(v) + " out of range (graph has " +
                     std::to_string(snap->communities.size()) + " vertices)");
    }
    const auto c = snap->communities[v];
    return "OK version=" + std::to_string(snap->version) +
           " vertex=" + std::to_string(v) + " community=" + std::to_string(c) +
           " flow=" + fmt_double(snap->community_flow[c]);
  }

  if (verb == verbs::Id::kSame) {
    graph::VertexId u = 0, v = 0;
    if (!parse_num(tokens[2], u) || !parse_num(tokens[3], v)) {
      return err(ServeCode::kInvalidArgument, "bad vertex id");
    }
    PartitionStore::SnapshotPtr snap;
    if (auto e = need_snapshot(tokens[1], snap); !e.empty()) {
      return e;
    }
    if (u >= snap->communities.size() || v >= snap->communities.size()) {
      return err(ServeCode::kInvalidArgument, "vertex out of range");
    }
    const auto cu = snap->communities[u];
    const auto cv = snap->communities[v];
    return "OK version=" + std::to_string(snap->version) +
           " u=" + std::to_string(u) + " v=" + std::to_string(v) +
           " cu=" + std::to_string(cu) + " cv=" + std::to_string(cv) +
           " same=" + (cu == cv ? "1" : "0");
  }

  if (verb == verbs::Id::kTopk) {
    std::size_t k = 0;
    if (!parse_num(tokens[2], k) || k == 0) {
      return err(ServeCode::kInvalidArgument, "bad k");
    }
    PartitionStore::SnapshotPtr snap;
    if (auto e = need_snapshot(tokens[1], snap); !e.empty()) {
      return e;
    }
    k = std::min(k, snap->by_flow.size());
    std::string out = "OK version=" + std::to_string(snap->version) +
                      " k=" + std::to_string(k) + " top=";
    for (std::size_t i = 0; i < k; ++i) {
      const auto c = snap->by_flow[i];
      if (i > 0) out += ',';
      out += std::to_string(c) + ":" + fmt_double(snap->community_flow[c]);
    }
    return out;
  }

  // SUMMARY (the only other read row).
  PartitionStore::SnapshotPtr snap;
  if (auto e = need_snapshot(tokens[1], snap); !e.empty()) {
    return e;
  }
  return "OK version=" + std::to_string(snap->version) +
         " vertices=" + std::to_string(snap->communities.size()) +
         " arcs=" + std::to_string(snap->graph->num_arcs()) +
         " communities=" + std::to_string(snap->num_communities) +
         " codelength=" + fmt_double(snap->codelength) +
         " modularity=" + fmt_double(snap->modularity) +
         " interrupted=" + (snap->interrupted ? "1" : "0") +
         " job=" + std::to_string(snap->build_job);
}

}  // namespace asamap::serve
