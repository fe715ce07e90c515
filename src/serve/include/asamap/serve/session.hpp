#pragma once

/// \file session.hpp
/// The embeddable service facade: one ServeSession owns a GraphRegistry, a
/// PartitionStore, and a JobScheduler, and exposes both a typed API (used
/// by the load generator and tests) and a line protocol (used by the
/// asamap_serve driver and scripted sessions).
///
/// Line protocol — one request line in, one response line out.  Responses
/// start with `OK` or `ERR <code>`; fields are `key=value` tokens.  Every
/// request form, with its arguments, is a row of the verb table
/// (verbs.hpp); docs/OPERATIONS.md says what each one answers.
///
/// METRICS (plain and WINDOW forms), HEALTH, and TRACE DUMP are the
/// multi-line responses.  They are self-describing: an
/// `OK format=<fmt> bytes=N` header line followed by exactly N payload
/// bytes (Prometheus text or bench-envelope JSON for METRICS; one line of
/// Chrome trace-event JSON for TRACE DUMP).  A client reads the header,
/// then N bytes, then the message terminator of its transport (the newline
/// of the text protocol; nothing extra inside a binary frame) — no guessing
/// where an embedded-newline payload ends.
///
/// HEALTH answers with the same envelope shape but leads with the verdict:
/// `OK status=healthy|degraded|unhealthy slos=N bytes=M` then M bytes of
/// one `slo=<name> status=ok|warn|violated <detail>` line per SLO — the
/// obs::HealthTracker evaluation (availability burn rates over the fast and
/// slow windows, windowed latency p99 against its bound, breaker state).
/// Clients that only want the verdict parse `status=` from the header and
/// skip the payload.
///
/// Tracing: every request runs inside a TraceSpan named after its verb, so
/// one CLUSTER line yields a connected span tree (verb -> queue.wait ->
/// job.run -> the four kernel phases -> snapshot.publish) in the process
/// flight recorder, exportable via TRACE DUMP (see asamap/obs/tracing.hpp).
///
/// Robustness semantics (DESIGN.md §4e):
///  - CLUSTER degrades instead of failing where it can: when the circuit
///    breaker is open, the registry is under memory pressure, or the
///    scheduler rejects with backpressure, the response is the last
///    published snapshot annotated `OK STALE version=N reason=...` rather
///    than an error (readers were going to see that snapshot anyway).
///  - The per-session circuit breaker trips after K consecutive
///    backpressure failures, sheds the batch lane, and half-opens on a
///    timer; its state is the asamap_breaker_state gauge (0/1/2 =
///    closed/open/half_open).
///  - FAULTS LOAD arms a deterministic fault plan (builds configured with
///    ASAMAP_FAULT_INJECTION only; otherwise ERR unavailable).  FAULTS
///    itself is exempt from the session.io injection site so an operator
///    can always CLEAR a misbehaving plan.
///
/// Dynamic graphs (DESIGN.md §4f): ADD_EDGE/DEL_EDGE append to a per-graph
/// DeltaLog without touching the served CSR; APPLY folds the pending batch
/// into a fresh CSR (republished through the registry) and re-clusters —
/// `recluster=incr` (the default) warm-starts from the previous snapshot,
/// re-sweeps only the batch's active set, and publishes a new version only
/// when codelength improves (otherwise the old snapshot keeps serving and
/// DELTA STATUS reports last_skip=no_improvement).  A graph with pending
/// deltas or an in-flight APPLY is pinned against LRU eviction.  Folding
/// also auto-triggers when pending reaches delta_compact_threshold.
/// Re-ingesting or dropping a name discards its pending deltas.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/dyn/delta_log.hpp"
#include "asamap/fault/fault.hpp"
#include "asamap/fault/retry.hpp"
#include "asamap/obs/health.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/window.hpp"
#include "asamap/serve/graph_registry.hpp"
#include "asamap/serve/handler.hpp"
#include "asamap/serve/job_scheduler.hpp"
#include "asamap/serve/ops_surface.hpp"
#include "asamap/serve/partition_store.hpp"
#include "asamap/serve/status.hpp"
#include "asamap/serve/verbs.hpp"

namespace asamap::serve {

struct SessionConfig {
  RegistryConfig registry;
  SchedulerConfig scheduler;
  /// Threads per clustering job (0 = all available).  Tests pin this to 1
  /// so thread-level concurrency comes from the scheduler and readers, not
  /// nested OpenMP teams.
  int cluster_threads = 0;
  core::InfomapOptions infomap;
  /// Circuit-breaker thresholds for CLUSTER submissions (consecutive
  /// backpressure failures trip it; see retry.hpp).
  fault::BreakerConfig breaker;
  /// Pending delta records at which a mutation auto-folds the log into a
  /// fresh CSR (APPLY always folds).  Folding costs one merged-CSR rebuild;
  /// the threshold bounds both the log's memory and the merge debt a later
  /// APPLY has to pay.
  std::size_t delta_compact_threshold = 65536;
  /// Minimum codelength improvement (bits) an incremental APPLY must find
  /// to publish a new snapshot version; below it the previous snapshot
  /// keeps serving and the skip is recorded.
  double incr_publish_epsilon = 1e-9;
  /// ADD_EDGE/DEL_EDGE endpoints may exceed the current vertex count (new
  /// vertices arrive with their first edge) by at most this headroom — a
  /// lone `ADD_EDGE g 0 268000000` must not demand a quarter-billion CSR
  /// slots at the next fold.
  graph::VertexId delta_new_vertex_headroom = 65536;
  /// Windowed-metrics tiers (METRICS WINDOW) and the SLOs HEALTH evaluates
  /// over them.  Defaults: 10s fast / 60s slow windows, 99.9% availability,
  /// 50ms p99 bound.
  obs::WindowConfig window;
  obs::SloConfig slo;
};

class ServeSession : public RequestHandler {
 public:
  explicit ServeSession(const SessionConfig& config = {});
  ~ServeSession() override;

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // --- typed API ---------------------------------------------------------

  ServeStatus load_text(const std::string& name, std::string_view text,
                        bool undirected = true);
  ServeStatus load_file(const std::string& name, const std::string& path,
                        bool undirected = true);
  /// Generates a Chung-Lu power-law graph into the registry (deduplicated
  /// by generator parameters).
  ServeStatus gen_chung_lu(const std::string& name, graph::VertexId n,
                           std::uint64_t edges, std::uint64_t seed = 42);
  bool drop(const std::string& name);

  /// Enqueues a re-cluster of `name` on the scheduler.  The job runs
  /// run_infomap_parallel (the native flat engine) against the
  /// graph snapshot it captured at submission; a publish only happens when
  /// the job was neither cancelled nor expired.
  SubmitResult submit_recluster(
      const std::string& name, JobPriority priority = JobPriority::kBatch,
      std::chrono::milliseconds deadline = {});

  /// Current snapshot for a graph; nullptr when never clustered.  All
  /// query answers derived from one SnapshotPtr are mutually consistent.
  [[nodiscard]] PartitionStore::SnapshotPtr snapshot(const std::string& name);

  /// Counts a request a wrapper answered without handle_line (a shard's
  /// range-partial reads) in this session's per-verb request and latency
  /// series, and an ERR `response` in its error counter, exactly as
  /// handle_line would have.
  void record_request(verbs::Id verb, double seconds,
                      std::string_view response);

  // --- dynamic graphs (DESIGN.md §4f) ------------------------------------

  /// Appends one edge mutation to `name`'s delta log (w > 0 for add_edge;
  /// self-loops rejected).  The served CSR and snapshot are untouched until
  /// APPLY or threshold-triggered auto-folding; the graph is pinned against
  /// eviction while mutations are pending.
  ServeStatus add_edge(const std::string& name, graph::VertexId u,
                       graph::VertexId v, graph::Weight w = 1.0);
  ServeStatus del_edge(const std::string& name, graph::VertexId u,
                       graph::VertexId v);

  /// Enqueues an APPLY job: fold the pending batch into a fresh CSR,
  /// republish it through the registry, and re-cluster.  `incremental`
  /// warm-starts from the previous snapshot and publishes only on
  /// codelength improvement (falls back to a full recluster when the graph
  /// has never been clustered); otherwise a from-scratch recluster that
  /// always publishes.  At most one APPLY per graph is in flight — a second
  /// submission is rejected with kUnavailable.
  SubmitResult submit_apply(const std::string& name, bool incremental = true,
                            JobPriority priority = JobPriority::kBatch,
                            std::chrono::milliseconds deadline = {});

  /// Point-in-time counters for one graph's delta machinery (the typed
  /// DELTA STATUS answer).
  struct DeltaStatus {
    bool known = false;  ///< a delta log exists for this name
    std::size_t pending = 0;
    std::uint64_t adds = 0;
    std::uint64_t dels = 0;
    std::uint64_t compactions = 0;   ///< folds (APPLY or threshold)
    std::uint64_t applies_full = 0;  ///< completed APPLY recluster=full
    std::uint64_t applies_incr = 0;  ///< completed APPLY recluster=incr
    std::uint64_t last_batch = 0;    ///< records folded by the last fold
    std::uint64_t incr_published = 0;
    std::uint64_t incr_skipped = 0;
    const char* last_skip = "none";  ///< why the last incr did not publish
    bool apply_inflight = false;
    std::uint64_t apply_job = 0;  ///< last APPLY job id (0 = never)
    bool pinned = false;          ///< registry pin currently held
  };
  [[nodiscard]] DeltaStatus delta_status(const std::string& name);

  GraphRegistry& registry() noexcept { return registry_; }
  PartitionStore& store() noexcept { return store_; }
  JobScheduler& scheduler() noexcept { return scheduler_; }

  /// The session-wide metric registry: every subsystem (graph registry,
  /// scheduler, clustering jobs, the protocol handler itself) publishes
  /// here.  Safe to scrape from any thread while requests are in flight.
  obs::MetricRegistry& metrics() noexcept override { return metrics_; }
  [[nodiscard]] const obs::MetricRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// The session fault injector (armed via FAULTS LOAD or directly in
  /// tests) and the CLUSTER circuit breaker.
  fault::FaultInjector& faults() noexcept { return faults_; }
  fault::CircuitBreaker& breaker() noexcept { return breaker_; }

  /// The windowed view over metrics() (METRICS WINDOW) and the SLO
  /// evaluator over it (HEALTH).  Both are caller-clocked; the protocol
  /// handlers feed the process steady clock, tests feed synthetic time.
  obs::WindowStore& window() noexcept { return window_; }
  obs::HealthTracker& health() noexcept { return health_; }

  // --- line protocol ------------------------------------------------------

  /// Executes one protocol line, returning the response (without trailing
  /// newline; multi-line only for METRICS / TRACE DUMP, see the envelope
  /// note above).  Trailing whitespace — including the '\r' a CRLF client
  /// sends — is stripped before parsing.  Never throws.
  std::string handle_line(std::string_view line) override;

  /// Executes a pipelined batch of protocol lines, appending one response
  /// per line to `responses` (cleared first), in order.
  ///
  /// The point of the batch form is the read fast path: a contiguous run of
  /// read verbs (MEMBER / SAME / TOPK / SUMMARY) against the same graph is
  /// answered under a SINGLE snapshot acquire — every answer in the run
  /// reports the same `version=`, and the per-request cost drops to parse +
  /// lookup + format (no root trace span, no store lock, no per-call
  /// allocation churn).  Any non-read verb flushes the cached snapshot
  /// before executing, so a read after a write inside one batch observes
  /// whatever the write published; non-read verbs go through the exact
  /// handle_line path (root span, fault sites, metrics) unchanged.
  void handle_batch(const std::vector<std::string_view>& lines,
                    std::vector<std::string>& responses) override;

 private:
  /// Per-verb handles, pre-registered at construction so the request path
  /// never allocates label strings.
  struct VerbMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency = nullptr;
    /// Static verb name used as the request's root trace-span label.
    const char* trace_name = "other";
  };

  /// Per-graph dynamic-graph state.  `mu` orders mutations, folds, and
  /// APPLY submissions for one graph; the lock order is DeltaState::mu ->
  /// registry/scheduler/store internals, never the reverse.
  struct DeltaState {
    std::mutex mu;
    dyn::DeltaLog log;
    std::uint64_t apply_job = 0;  ///< last APPLY job id (0 = never)
    std::uint64_t compactions = 0;
    std::uint64_t applies_full = 0;
    std::uint64_t applies_incr = 0;
    std::uint64_t last_batch = 0;
    std::uint64_t incr_published = 0;
    std::uint64_t incr_skipped = 0;
    const char* last_skip = "none";  ///< static strings only
  };
  using DeltaStatePtr = std::shared_ptr<DeltaState>;

  std::string handle_line_impl(const verbs::Resolved& request,
                               const std::vector<std::string_view>& tokens);
  /// One answered request into `vm` and, for an ERR, the error counter.
  void record(const VerbMetrics& vm, double seconds,
              std::string_view response);
  /// The `session.io` injection site (chaos builds): sleeps through a
  /// latency fault; any other fault is returned as the request's answer.
  std::string io_fault();
  /// The GEN / LOAD answer for `status`.
  std::string ingested(const std::string& name, const ServeStatus& status);
  /// ` version=V communities=C codelength=L` of a sync CLUSTER / APPLY.
  static std::string snapshot_fields(const PartitionSnapshot& snap);

  /// One-entry snapshot memo for a batch's contiguous read run: while the
  /// run keeps naming the same graph, every read reuses this SnapshotPtr
  /// (version-consistency within the run is the documented guarantee, the
  /// skipped store lock is the speed).  Reset whenever a non-read verb
  /// executes.
  struct SnapshotCache {
    std::string name;
    PartitionStore::SnapshotPtr snap;
  };

  /// The one implementation of the four read verbs, shared by
  /// handle_line_impl (cache == nullptr: acquire per call) and handle_batch
  /// (cache != nullptr) so the two paths cannot drift apart.
  std::string handle_read(verbs::Id verb,
                          const std::vector<std::string_view>& tokens,
                          SnapshotCache* cache);

  /// The degraded CLUSTER answer: the last published snapshot annotated
  /// `OK STALE version=N reason=<reason>`, or "" when the graph has never
  /// been clustered (the caller falls back to an error / best effort).
  std::string degraded_cluster(const std::string& name, const char* reason);

  /// Find-or-create the delta state for a graph name.
  DeltaStatePtr delta_state(const std::string& name);
  /// Removes a name's delta state (DROP / re-ingest), returning the pending
  /// gauge to truth.
  void reset_deltas(const std::string& name);
  /// Shared ADD_EDGE/DEL_EDGE body; reports the post-append pending count
  /// and whether the append tripped a threshold fold.
  ServeStatus mutate_edge(const std::string& name, graph::VertexId u,
                          graph::VertexId v, graph::Weight w, bool is_add,
                          std::size_t* pending_out, bool* folded_out);
  /// Folds the pending batch into a fresh CSR and republishes it under
  /// `name` (no-op on an empty log).  Call with ds.mu held.  On success the
  /// log is truncated past the folded batch and `merged_out`/`touched_out`
  /// (when non-null) receive the republished graph and the batch's distinct
  /// endpoints.
  ServeStatus fold_delta_locked(const std::string& name, DeltaState& ds,
                                GraphRegistry::GraphPtr* merged_out,
                                std::vector<graph::VertexId>* touched_out);
  /// True while ds.apply_job exists and is not terminal.  ds.mu held.
  [[nodiscard]] bool apply_inflight_locked(const DeltaState& ds) const;
  /// Re-derives the graph's eviction pin from (pending deltas || in-flight
  /// APPLY).  ds.mu held.
  void refresh_delta_pin_locked(const std::string& name, DeltaState& ds);
  /// The APPLY job body: fold, (maybe) warm-start, recluster, publish on
  /// improvement.
  void apply_job_body(const std::string& name, const DeltaStatePtr& ds,
                      bool incremental, const JobContext& ctx);

  /// First member: destroyed last, after the scheduler has joined its
  /// workers — jobs record into this registry until they finish.
  obs::MetricRegistry metrics_;
  /// Second: the registry/scheduler configs point at it, and running jobs
  /// consult it until the scheduler joins.
  fault::FaultInjector faults_;
  SessionConfig config_;
  GraphRegistry registry_;
  PartitionStore store_;
  fault::CircuitBreaker breaker_;
  /// Windowed view + SLO evaluator over metrics_ (declared after it; both
  /// only read the registry, so destruction order is free).
  obs::WindowStore window_;
  obs::HealthTracker health_;
  /// METRICS / HEALTH / TRACE and the STATS identity over the three above.
  OpsSurface ops_;
  /// Indexed by verbs::Id; a row the session does not serve counts under
  /// verb="other", like an unknown verb.
  std::array<VerbMetrics, verbs::kCount> verb_metrics_;
  VerbMetrics other_verb_metrics_;
  obs::Counter* errors_total_ = nullptr;
  obs::Counter* stale_serves_ = nullptr;
  // Dynamic-graph metrics, pre-registered at construction (scrape schema is
  // stable whether or not any mutation ever arrives).
  obs::Counter* delta_adds_ = nullptr;
  obs::Counter* delta_dels_ = nullptr;
  obs::Gauge* delta_pending_ = nullptr;  ///< pending records, all graphs
  obs::Counter* delta_compactions_ = nullptr;
  obs::Counter* delta_folded_ = nullptr;
  obs::Counter* apply_full_ = nullptr;
  obs::Counter* apply_incr_ = nullptr;
  obs::Histogram* apply_seconds_ = nullptr;
  obs::Counter* incr_published_ = nullptr;
  obs::Counter* incr_skipped_ = nullptr;
  obs::Gauge* incr_active_ = nullptr;  ///< last warm start's seed size
  std::mutex delta_mu_;                ///< guards the deltas_ map shape
  std::unordered_map<std::string, DeltaStatePtr> deltas_;
  obs::Gauge* breaker_state_ = nullptr;
  obs::Counter* breaker_to_open_ = nullptr;
  obs::Counter* breaker_to_half_open_ = nullptr;
  obs::Counter* breaker_to_closed_ = nullptr;
  /// Last member: destroyed first, so worker threads join before the
  /// registry/store they reference go away.
  JobScheduler scheduler_;
};

}  // namespace asamap::serve
