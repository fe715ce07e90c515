#include "asamap/dist/shard.hpp"

#include <functional>
#include <utility>

#include "asamap/dist/distributed.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/protocol.hpp"
#include "asamap/serve/verbs.hpp"
#include "asamap/support/timer.hpp"

namespace asamap::dist {

using graph::VertexId;
using namespace serve::protocol;
// Values the router merges go out at full precision: summed partials then
// equal what a local sum of the same terms produces.
using obs::kExactDigits;

namespace {

/// Tail of `line` starting at token `tokens[from]` — the verbatim rest of
/// the request for SHARD FORWARD / TRACECTX delegation (preserves inner
/// spacing past the prefix, which tokenization would not).
std::string_view line_tail(std::string_view line,
                           const std::vector<std::string_view>& tokens,
                           std::size_t from) {
  if (from >= tokens.size()) return {};
  const auto off =
      static_cast<std::size_t>(tokens[from].data() - line.data());
  return line.substr(off);
}

/// Communities above which a range-partial TOPK response is refused (the
/// router falls back to SHARD FORWARD).  Bounds the response well under
/// the 16 MiB frame cap.
constexpr std::size_t kMaxPartialCommunities = 200000;

}  // namespace

/// One in-flight distributed clustering, the shard half of the superstep
/// protocol.  It steps the same core::MultilevelRun and SuperstepExecutor
/// phases run_distributed_infomap loops over, so the converged codelength
/// matches the simulation when the router concatenates movers in shard
/// order.  One process is one rank: the executor holds a single heap.
struct ShardSession::DclusterState {
  serve::GraphRegistry::GraphPtr graph;
  core::MultilevelRun run;
  SuperstepExecutor steps{1};
  /// Moves applied by earlier `APPLY ... more` chunks of the current
  /// superstep; folded into the final chunk's `applied=` total.
  std::size_t pending_applied = 0;

  // The router drives levels and convergence; the protocol has no
  // refinement pass.
  explicit DclusterState(serve::GraphRegistry::GraphPtr g)
      : graph(std::move(g)), run(*graph, {.refine_sweeps = 0}) {
    begin_level();
  }

  void begin_level() {
    run.begin_level(steps);
    pending_applied = 0;
  }
};

ShardSession::ShardSession(serve::ServeSession& inner,
                           const ShardConfig& config)
    : inner_(inner), config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.shard_id >= config_.shards) config_.shard_id = 0;
  obs::MetricRegistry& m = inner_.metrics();
  m.gauge("asamap_shard_id").set(static_cast<double>(config_.shard_id));
  m.gauge("asamap_shard_count").set(static_cast<double>(config_.shards));
  requests_total_ = &m.counter("asamap_shard_requests_total");
  wrong_shard_total_ = &m.counter("asamap_shard_wrong_shard_total");
  forwards_total_ = &m.counter("asamap_shard_forwards_total");
  dcluster_steps_total_ = &m.counter("asamap_shard_dcluster_steps_total");
  dcluster_step_seconds_ =
      &m.histogram("asamap_shard_dcluster_step_seconds");
}

ShardSession::~ShardSession() = default;

std::string ShardSession::handle_line(std::string_view line) {
  requests_total_->inc();
  return dispatch(trim_trailing_ws(line));
}

std::string ShardSession::dispatch(std::string_view line) {
  std::vector<std::string_view> tokens;
  tokenize_into(line, tokens);
  const serve::verbs::Resolved request =
      serve::verbs::resolve(tokens, serve::verbs::kShard);
  // The inner session answers what the shard does not serve, and the
  // malformed forms of the reads both serve, so its request and error
  // counters see them as they would without the shard.
  if (request.verb == nullptr ||
      !request.verb->served_by(serve::verbs::kShard) ||
      (!request.error.empty() &&
       request.verb->served_by(serve::verbs::kSession))) {
    return inner_.handle_line(line);
  }
  if (!request.error.empty()) return request.error;
  const serve::verbs::Verb& verb = *request.verb;
  switch (verb.id) {
    case serve::verbs::Id::kTracectx: {
      std::uint64_t trace_id = 0;
      std::uint64_t span_id = 0;
      if (!parse_num(tokens[1], trace_id) || !parse_num(tokens[2], span_id)) {
        return serve::verbs::usage_error(verb);
      }
      // Adopt the router's identity: spans recorded while handling the
      // inner line (including scheduler hops) parent under the router's
      // span, so a merged TRACE DUMP from both processes renders one
      // connected tree.
      obs::TraceScope scope(obs::TraceContext{trace_id, span_id});
      obs::TraceSpan span("shard.request", obs::TraceCat::kSession);
      return dispatch(line_tail(line, tokens, 3));
    }
    case serve::verbs::Id::kShardInfo:
      return "OK shard=" + std::to_string(config_.shard_id) +
             " shards=" + std::to_string(config_.shards);
    case serve::verbs::Id::kShardForward:
      forwards_total_->inc();
      // Failover path: answer from the full replica, range checks waived.
      return inner_.handle_line(line_tail(line, tokens, 2));
    case serve::verbs::Id::kMember:
    case serve::verbs::Id::kSame:
    case serve::verbs::Id::kTopk:
    case serve::verbs::Id::kSummary:
      return handle_ranged_read(verb.id, tokens, line);
    default:  // DCLUSTER <op>
      return handle_dcluster(verb, tokens);
  }
}

std::shared_ptr<const ShardSession::RangeView> ShardSession::range_view(
    const std::string& name) {
  const serve::PartitionStore::SnapshotPtr snap = inner_.snapshot(name);
  if (!snap) return nullptr;
  // The cached view is immutable: a republish builds a fresh RangeView and
  // swaps the map slot, so a concurrent worker still rendering TOPK/SUMMARY
  // from the old view keeps it alive through its shared_ptr.
  std::lock_guard<std::mutex> lock(range_mu_);
  std::shared_ptr<const RangeView>& slot = range_views_[name];
  if (slot && slot->snap == snap) return slot;
  auto rv = std::make_shared<RangeView>();
  const auto n = static_cast<VertexId>(snap->communities.size());
  rv->range = range_of(n, config_.shard_id, config_.shards);
  rv->partial_flow.assign(snap->num_communities, 0.0);
  // Same per-vertex terms as make_snapshot — only the grouping differs, so
  // a router summing shard partials in order reproduces the oracle values
  // to within final-rounding ulps.
  const double total = snap->graph->total_arc_weight();
  if (total > 0.0) {
    for (VertexId v = rv->range.begin; v < rv->range.end; ++v) {
      rv->partial_flow[snap->communities[v]] +=
          snap->graph->out_weight(v) / total;
    }
  }
  rv->snap = snap;
  slot = std::move(rv);
  return slot;
}

std::string ShardSession::handle_ranged_read(
    serve::verbs::Id verb, const std::vector<std::string_view>& tokens,
    std::string_view line) {
  // Bad arguments and graphs without a snapshot fall through to the inner
  // session, whose error texts are the canonical ones.
  const std::string name(tokens[1]);

  if (verb == serve::verbs::Id::kMember || verb == serve::verbs::Id::kSame) {
    const serve::PartitionStore::SnapshotPtr snap = inner_.snapshot(name);
    if (!snap) return inner_.handle_line(line);
    const auto n = static_cast<VertexId>(snap->communities.size());
    const auto ranges = make_ranges(n, config_.shards);
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      VertexId v = 0;
      if (!parse_num(tokens[i], v)) return inner_.handle_line(line);
      if (v >= n) return inner_.handle_line(line);  // inner's range error
      const std::uint32_t owner = owner_of(v, n, ranges);
      if (owner != config_.shard_id) {
        wrong_shard_total_->inc();
        return err("not_found",
                   "wrong_shard vertex=" + std::to_string(v) +
                       " owner=" + std::to_string(owner) +
                       " shard=" + std::to_string(config_.shard_id));
      }
    }
    return inner_.handle_line(line);
  }

  if (verb == serve::verbs::Id::kTopk) {
    std::size_t k = 0;
    if (!parse_num(tokens[2], k) || k == 0) return inner_.handle_line(line);
    const std::shared_ptr<const RangeView> rv = range_view(name);
    if (!rv) return inner_.handle_line(line);
    if (rv->partial_flow.size() > kMaxPartialCommunities) {
      return err("too_large",
                 "partial merge over " +
                     std::to_string(rv->partial_flow.size()) +
                     " communities; use SHARD FORWARD");
    }
    std::string out = "OK version=" + std::to_string(rv->snap->version) +
                      " shard=" + std::to_string(config_.shard_id) +
                      " shards=" + std::to_string(config_.shards) +
                      " range=" + std::to_string(rv->range.begin) + ":" +
                      std::to_string(rv->range.end) +
                      " k=" + std::to_string(k) +
                      " communities=" + std::to_string(rv->partial_flow.size()) +
                      " partial=";
    for (std::size_t c = 0; c < rv->partial_flow.size(); ++c) {
      if (c > 0) out += ',';
      out += std::to_string(c) + ":" +
             fmt_double(rv->partial_flow[c], kExactDigits);
    }
    return out;
  }

  // SUMMARY
  const std::shared_ptr<const RangeView> rv = range_view(name);
  if (!rv) return inner_.handle_line(line);
  const auto& snap = *rv->snap;
  return "OK version=" + std::to_string(snap.version) +
         " shard=" + std::to_string(config_.shard_id) +
         " shards=" + std::to_string(config_.shards) +
         " range=" + std::to_string(rv->range.begin) + ":" +
         std::to_string(rv->range.end) +
         " vertices=" + std::to_string(rv->range.size()) +
         " arcs=" + std::to_string(snap.graph->num_arcs()) +
         " communities=" + std::to_string(snap.num_communities) +
         " codelength=" + fmt_double(snap.codelength, kExactDigits) +
         " modularity=" + fmt_double(snap.modularity, kExactDigits) +
         " interrupted=" + (snap.interrupted ? "1" : "0") +
         " job=" + std::to_string(snap.build_job);
}

std::string ShardSession::run_step(const char* label,
                                   const std::function<std::string()>& fn) {
  std::string result;
  // The superstep runs as an interactive job so it shares the scheduler's
  // queueing, stop flags, and trace plumbing with every other unit of work
  // in the process; wait() makes the protocol step synchronous.
  auto submitted = inner_.scheduler().submit(
      [&](const serve::JobContext&) { result = fn(); },
      serve::JobPriority::kInteractive);
  if (!submitted.accepted()) {
    return err("rejected", "dcluster step rejected: " +
                               std::string(submitted.status.text()));
  }
  const serve::JobState state = inner_.scheduler().wait(submitted.id);
  if (state != serve::JobState::kDone) {
    return err("unavailable",
               std::string("dcluster step ") + label + " did not complete");
  }
  return result;
}

std::string ShardSession::handle_dcluster(
    const serve::verbs::Verb& verb,
    const std::vector<std::string_view>& tokens) {
  using serve::verbs::Id;
  const std::string name(tokens[2]);
  dcluster_steps_total_->inc();
  const support::WallTimer timer;
  std::lock_guard<std::mutex> lock(dc_mu_);

  std::string response;
  if (verb.id == Id::kDclusterBegin) {
    auto graph = inner_.registry().get(name);
    if (!graph) {
      return err("not_found", "unknown graph '" + name + "'");
    }
    response = run_step("begin", [&]() -> std::string {
      auto dc = std::make_unique<DclusterState>(graph);
      std::string out =
          "OK graph=" + name +
          " n=" + std::to_string(dc->run.network().num_nodes()) +
          " codelength=" +
          fmt_double(dc->run.state().codelength(), kExactDigits);
      dcluster_[name] = std::move(dc);
      return out;
    });
  } else {
    const auto it = dcluster_.find(name);
    if (it == dcluster_.end()) {
      return err("not_found", "no dcluster in progress for '" + name + "'");
    }
    DclusterState& dc = *it->second;
    switch (verb.id) {
      case Id::kDclusterPropose:
        response = run_step("propose", [&]() -> std::string {
          const core::LevelSweep lv = dc.run.current();
          std::vector<VertexId> movers;
          dc.steps.propose(lv,
                           range_of(lv.fn.num_nodes(), config_.shard_id,
                                    config_.shards),
                           0, movers);
          std::string list;
          for (const VertexId v : movers) {
            if (!list.empty()) list += ',';
            list += std::to_string(v);
          }
          return "OK movers=" + std::to_string(movers.size()) +
                 " list=" + (list.empty() ? "-" : list);
        });
        break;
      case Id::kDclusterApply: {
        // `more` marks a non-final chunk of the superstep's mover list: apply
        // its moves now, but defer recompute and the active-set swap to the
        // final chunk — chunked APPLY is bitwise identical to one big list
        // while keeping every frame under the 16 MiB cap.
        const bool more = tokens.size() == 5;
        if (more && tokens[4] != "more") return serve::verbs::usage_error(verb);
        // The router concatenates every shard's movers in shard order; each
        // replica applies the full list identically, so all replicas hold
        // the same module state without shipping aggregates.
        std::vector<VertexId> movers;
        if (tokens[3] != "-") {
          std::string_view list = tokens[3];
          while (!list.empty()) {
            const std::size_t comma = list.find(',');
            const std::string_view tok = list.substr(0, comma);
            VertexId v = 0;
            if (!parse_num(tok, v) || v >= dc.run.network().num_nodes()) {
              return err("invalid_argument", "bad mover list");
            }
            movers.push_back(v);
            list = comma == std::string_view::npos ? std::string_view{}
                                                   : list.substr(comma + 1);
          }
        }
        response = run_step("apply", [&]() -> std::string {
          dc.pending_applied += dc.steps.apply(dc.run.current(), movers);
          if (more) {
            return "OK more=1 applied=" + std::to_string(dc.pending_applied);
          }
          const std::size_t applied = dc.pending_applied;
          dc.pending_applied = 0;
          dc.steps.end_superstep(dc.run.state());
          return "OK applied=" + std::to_string(applied) + " codelength=" +
                 fmt_double(dc.run.state().codelength(), kExactDigits);
        });
        break;
      }
      case Id::kDclusterLevel:
        response = run_step("level", [&]() -> std::string {
          if (!dc.run.end_level(1)) {
            return "OK done=1 communities=" +
                   std::to_string(dc.run.level_communities());
          }
          dc.begin_level();
          return "OK done=0 n=" + std::to_string(dc.run.network().num_nodes()) +
                 " codelength=" +
                 fmt_double(dc.run.state().codelength(), kExactDigits);
        });
        break;
      case Id::kDclusterCommit: {
        bool finished = false;
        response = run_step("commit", [&]() -> std::string {
          finished = true;  // finish() ends the run even if publishing fails
          const core::InfomapResult result = dc.run.finish(dc.steps);
          const std::uint64_t version =
              inner_.store().publish(name,
                                     serve::make_snapshot(dc.graph, result));
          return "OK version=" + std::to_string(version) +
                 " communities=" + std::to_string(result.num_communities) +
                 " codelength=" + fmt_double(result.codelength, kExactDigits);
        });
        if (finished) dcluster_.erase(name);
        break;
      }
      default:  // ABORT
        dcluster_.erase(name);
        response = "OK aborted=" + name;
        break;
    }
  }
  dcluster_step_seconds_->record_seconds(timer.seconds());
  return response;
}

}  // namespace asamap::dist
