#pragma once

/// \file verbs.hpp
/// The verb table: the one description of the line protocol that every
/// request handler (ServeSession, dist::ShardSession, dist::Router) reads.
/// A row is one request form — a verb, plus a sub-verb for the grouped
/// forms (`TRACE DUMP`, `FAULTS LOAD`, `DCLUSTER PROPOSE`, ...) — with its
/// allowed token count, its usage line, the roles that serve it and
/// whether it is a snapshot read (the batched fast path).
///
/// resolve() is the one lookup + arity check: it answers with the row a
/// request names or with the protocol's `ERR` line for it, so a handler
/// only `switch`es on the row id.  Usage texts exist nowhere else.
///
/// Which rows a role sees: the rows it serves, plus every row the session
/// serves — a shard passes those through to its inner session, and the
/// router answers the ones it does not route (WAIT, CANCEL, DELTA, FAULTS)
/// as shard-local after the same arity check the session makes.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asamap/serve/job_scheduler.hpp"

namespace asamap::serve::verbs {

enum class Id : std::uint8_t {
  kGen,
  kLoad,
  kDrop,
  kCluster,
  kAddEdge,
  kDelEdge,
  kApply,
  kDeltaStatus,
  kWait,
  kCancel,
  kMember,
  kSame,
  kTopk,
  kSummary,
  kShards,
  kStats,
  kMetrics,
  kMetricsWindow,
  kMetricsFleet,
  kHealth,
  kHealthFleet,
  kTraceDump,
  kTraceStatus,
  kTraceMark,
  kFaultsLoad,
  kFaultsClear,
  kFaultsStatus,
  kQuit,
  kShardInfo,
  kShardForward,
  kTracectx,
  kDclusterBegin,
  kDclusterPropose,
  kDclusterApply,
  kDclusterLevel,
  kDclusterCommit,
  kDclusterAbort,
};
inline constexpr std::size_t kCount =
    static_cast<std::size_t>(Id::kDclusterAbort) + 1;

/// Role bits of Verb::roles.
enum Role : std::uint8_t { kSession = 1, kShard = 2, kRouter = 4 };

/// Token count of a row without an upper bound.
inline constexpr std::uint8_t kUnbounded = 255;

struct Verb {
  Id id;
  std::string_view name;  ///< tokens[0]; a string literal, so NUL-terminated
  std::string_view sub;   ///< tokens[1] of a grouped form, else empty
  std::uint8_t min_tokens;  ///< whole request, verb (and sub) included
  std::uint8_t max_tokens;  ///< kUnbounded: no limit
  std::string_view args;    ///< the usage line's arguments, after the sub
  std::uint8_t roles;       ///< Role bits of the handlers that serve it
  bool read = false;        ///< snapshot read: ServeSession's batch fast path
  bool chaos = false;       ///< needs a -DASAMAP_FAULT_INJECTION=ON build

  [[nodiscard]] constexpr bool served_by(Role role) const noexcept {
    return (roles & role) != 0;
  }
  [[nodiscard]] constexpr std::size_t index() const noexcept {
    return static_cast<std::size_t>(id);
  }
};

/// Every row, grouped by name (a verb's rows are adjacent).
[[nodiscard]] std::span<const Verb> table() noexcept;

/// The first row named `name` that `role` sees, or nullptr.
[[nodiscard]] const Verb* find(std::string_view name, Role role) noexcept;

/// The outcome of resolving a request.  `verb` is the row when `error` is
/// empty; on an error it is the row (or the first row of the verb) the
/// request named, for per-verb accounting, and nullptr for an empty
/// request or an unknown verb.
struct Resolved {
  const Verb* verb = nullptr;
  std::string error;
};

/// Resolves a request within the rows of `head`'s verb (find()'s result):
/// picks the row by sub-verb, checks the token count, and refuses a row the
/// role sees but does not serve.
[[nodiscard]] Resolved select(const Verb& head,
                              const std::vector<std::string_view>& tokens,
                              Role role);

/// find() then select(); an empty request or an unknown verb is an error.
[[nodiscard]] Resolved resolve(const std::vector<std::string_view>& tokens,
                               Role role);

/// `ERR invalid_argument usage: <form>`, for a handler whose argument
/// fails to parse in a way only the usage line explains.
[[nodiscard]] std::string usage_error(const Verb& verb);

/// The options of a CLUSTER or APPLY request.
struct JobOptions {
  bool sync = false;
  bool incremental = true;  ///< APPLY recluster=incr (the default) | full
  bool dist = false;        ///< CLUSTER mode=dist, router only
  JobPriority priority = JobPriority::kBatch;
  std::chrono::milliseconds deadline{};
};

/// Parses the options after `<VERB> <name>` of a CLUSTER or APPLY request
/// into `out`: `sync`, `priority=interactive|batch`, `deadline_ms=N`, plus
/// `recluster=full|incr` for APPLY and, for the router, `mode=dist` for
/// CLUSTER.  Returns the ERR line for an unknown option or a bad value,
/// else "".
[[nodiscard]] std::string parse_job_options(
    const Verb& verb, const std::vector<std::string_view>& tokens, Role role,
    JobOptions& out);

}  // namespace asamap::serve::verbs
