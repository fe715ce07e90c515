#pragma once

/// \file shard.hpp
/// ShardSession — one shard of the sharded serving tier (ISSUE 9): a
/// RequestHandler that wraps a full ServeSession and narrows it to the
/// contiguous vertex range `[n*id/N, n*(id+1)/N)` of partition_map.hpp.
///
/// Placement model: every shard ingests the same graph (GEN is
/// deterministic; LOAD reads the same file), so each shard's registry and
/// snapshot are complete replicas — what the range partitions is
/// *serving responsibility* and *proposal work*, not storage.  That keeps
/// single-shard reads bitwise identical to a single-process session and
/// gives the router a free failover path (`SHARD FORWARD`, which answers
/// from the replica ignoring the range check) when a shard dies.
///
/// Protocol, on top of the ServeSession line protocol:
///
///   SHARD INFO                       → OK shard=I shards=N
///   SHARD FORWARD <line...>          execute <line> ignoring range checks
///   TRACECTX <tid> <sid> <line...>   adopt the router's trace context,
///                                    then execute <line> under a
///                                    "shard.request" span — the bridge
///                                    that makes one cross-process span
///                                    tree out of router + shard recorders
///   MEMBER/SAME                      ERR not_found wrong_shard owner=J
///                                    when a vertex is outside the range
///   TOPK <g> <k>                     range-partial: all communities'
///                                    partial flows over own vertices, at
///                                    full precision, for router merging
///   SUMMARY <g>                      range-partial vertex count + global
///                                    codelength/modularity at full
///                                    precision
///   DCLUSTER BEGIN|PROPOSE|APPLY|LEVEL|COMMIT|ABORT <g> ...
///                                    one shard's half of the distributed
///                                    clustering superstep protocol: each
///                                    verb steps the core::MultilevelRun
///                                    and SuperstepExecutor phases that
///                                    run_distributed_infomap loops over
///                                    (see router.hpp for the driver side).
///                                    Steps run as kInteractive jobs on the
///                                    inner session's JobScheduler.
///                                    `APPLY <g> <list> more` applies one
///                                    bounded chunk of the superstep's mover
///                                    list and defers recompute/active-set
///                                    swap to the final chunk (sent without
///                                    `more`), so the router can keep every
///                                    frame under the 16 MiB cap without
///                                    changing apply semantics.
///
/// Everything else (GEN/LOAD/CLUSTER/METRICS/...) passes through to the
/// inner session unchanged.  asamap_shard_* metrics are registered on the
/// inner session's registry so one METRICS scrape shows both.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asamap/dist/partition_map.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/serve/handler.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/serve/verbs.hpp"

namespace asamap::dist {

struct ShardConfig {
  std::uint32_t shard_id = 0;
  std::uint32_t shards = 1;
};

class ShardSession : public serve::RequestHandler {
 public:
  /// The inner session must outlive the shard wrapper.
  ShardSession(serve::ServeSession& inner, const ShardConfig& config);
  ~ShardSession() override;

  ShardSession(const ShardSession&) = delete;
  ShardSession& operator=(const ShardSession&) = delete;

  std::string handle_line(std::string_view line) override;
  obs::MetricRegistry& metrics() noexcept override {
    return inner_.metrics();
  }

  [[nodiscard]] const ShardConfig& config() const noexcept { return config_; }
  [[nodiscard]] serve::ServeSession& inner() noexcept { return inner_; }

 private:
  struct DclusterState;  ///< superstep engine state, one per graph (.cpp)

  /// Range-partial flow view of one published snapshot, memoised per graph
  /// until the snapshot pointer changes.  Immutable once cached: a snapshot
  /// republish swaps in a freshly built view, so concurrent readers keep a
  /// consistent shared_ptr while they render their response.
  struct RangeView {
    serve::PartitionStore::SnapshotPtr snap;
    std::vector<double> partial_flow;  ///< per community, own range only
    ShardRange range;
  };

  std::string dispatch(std::string_view line);
  std::string handle_ranged_read(serve::verbs::Id verb,
                                 const std::vector<std::string_view>& tokens,
                                 std::string_view line);
  std::string handle_dcluster(const serve::verbs::Verb& verb,
                              const std::vector<std::string_view>& tokens);
  /// Runs `fn` as a kInteractive job on the inner scheduler, synchronously.
  /// Returns an ERR line on rejection/failure, else `fn`'s response.
  std::string run_step(const char* label,
                       const std::function<std::string()>& fn);

  /// The range view for `name`'s current snapshot (nullptr when the graph
  /// has no published partition).  Returned by value so the view stays
  /// alive across a concurrent republish on another worker thread.
  std::shared_ptr<const RangeView> range_view(const std::string& name);

  serve::ServeSession& inner_;
  ShardConfig config_;

  obs::Counter* requests_total_ = nullptr;
  obs::Counter* wrong_shard_total_ = nullptr;
  obs::Counter* forwards_total_ = nullptr;
  obs::Counter* dcluster_steps_total_ = nullptr;
  obs::Histogram* dcluster_step_seconds_ = nullptr;

  std::mutex range_mu_;  ///< guards the range_views_ map (views immutable)
  std::unordered_map<std::string, std::shared_ptr<const RangeView>>
      range_views_;

  std::mutex dc_mu_;  ///< serialises the superstep engine
  std::unordered_map<std::string, std::unique_ptr<DclusterState>> dcluster_;
};

}  // namespace asamap::dist
