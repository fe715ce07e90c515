#include "asamap/serve/verbs.hpp"

#include <array>

#include "asamap/fault/fault.hpp"
#include "asamap/serve/protocol.hpp"

namespace asamap::serve::verbs {

using namespace protocol;

namespace {

constexpr std::uint8_t kAll = kSession | kShard | kRouter;
// Served by the session and the router; a shard passes these through.
constexpr std::uint8_t kServed = kSession | kRouter;

// Row order is Id order, and it is also the order each role registers its
// per-verb metrics in, so a scrape lists verbs the way this table does.
constexpr std::array<Verb, kCount> kTable{{
    {Id::kGen, "GEN", "", 4, 5, "<name> <n> <edges> [seed]", kServed},
    {Id::kLoad, "LOAD", "", 3, 4, "<name> <path> [directed]", kServed},
    {Id::kDrop, "DROP", "", 2, 2, "<name>", kServed},
    {Id::kCluster, "CLUSTER", "", 2, kUnbounded,
     "<name> [sync] [priority=interactive|batch] [deadline_ms=N] [mode=dist]",
     kServed},
    {Id::kAddEdge, "ADD_EDGE", "", 4, 5, "<name> <u> <v> [w]", kServed},
    {Id::kDelEdge, "DEL_EDGE", "", 4, 4, "<name> <u> <v>", kServed},
    {Id::kApply, "APPLY", "", 2, kUnbounded,
     "<name> [recluster=full|incr] [sync] [priority=interactive|batch] "
     "[deadline_ms=N]",
     kServed},
    {Id::kDeltaStatus, "DELTA", "STATUS", 3, 3, "<name>", kSession},
    {Id::kWait, "WAIT", "", 2, 2, "<job>", kSession},
    {Id::kCancel, "CANCEL", "", 2, 2, "<job>", kSession},
    {Id::kMember, "MEMBER", "", 3, 3, "<name> <vertex>", kAll, true},
    {Id::kSame, "SAME", "", 4, 4, "<name> <u> <v>", kAll, true},
    {Id::kTopk, "TOPK", "", 3, 3, "<name> <k>", kAll, true},
    {Id::kSummary, "SUMMARY", "", 2, 2, "<name>", kAll, true},
    {Id::kShards, "SHARDS", "", 1, kUnbounded, "", kRouter},
    {Id::kStats, "STATS", "", 1, kUnbounded, "", kServed},
    {Id::kMetrics, "METRICS", "", 1, 2, "[WINDOW] [prom|json]", kServed},
    {Id::kMetricsWindow, "METRICS", "WINDOW", 2, 3, "[prom|json]", kServed},
    {Id::kMetricsFleet, "METRICS", "FLEET", 2, 3, "[prom|json]", kRouter},
    {Id::kHealth, "HEALTH", "", 1, 1, "", kServed},
    {Id::kHealthFleet, "HEALTH", "FLEET", 2, 2, "", kRouter},
    {Id::kTraceDump, "TRACE", "DUMP", 2, 2, "", kServed},
    {Id::kTraceStatus, "TRACE", "STATUS", 2, 2, "", kServed},
    {Id::kTraceMark, "TRACE", "MARK", 3, kUnbounded, "<label>", kServed},
    {Id::kFaultsLoad, "FAULTS", "LOAD", 3, 3, "<path>", kSession, false, true},
    {Id::kFaultsClear, "FAULTS", "CLEAR", 2, 2, "", kSession, false, true},
    {Id::kFaultsStatus, "FAULTS", "STATUS", 2, 2, "", kSession},
    {Id::kQuit, "QUIT", "", 1, kUnbounded, "", kServed},
    {Id::kShardInfo, "SHARD", "INFO", 2, 2, "", kShard},
    {Id::kShardForward, "SHARD", "FORWARD", 3, kUnbounded, "<line>", kShard},
    {Id::kTracectx, "TRACECTX", "", 4, kUnbounded, "<trace> <span> <line>",
     kShard},
    {Id::kDclusterBegin, "DCLUSTER", "BEGIN", 3, 3, "<graph>", kShard},
    {Id::kDclusterPropose, "DCLUSTER", "PROPOSE", 3, 3, "<graph>", kShard},
    {Id::kDclusterApply, "DCLUSTER", "APPLY", 4, 5, "<graph> <list> [more]",
     kShard},
    {Id::kDclusterLevel, "DCLUSTER", "LEVEL", 3, 3, "<graph>", kShard},
    {Id::kDclusterCommit, "DCLUSTER", "COMMIT", 3, 3, "<graph>", kShard},
    {Id::kDclusterAbort, "DCLUSTER", "ABORT", 3, 3, "<graph>", kShard},
}};

constexpr bool rows_in_id_order() {
  for (std::size_t i = 0; i < kTable.size(); ++i) {
    if (kTable[i].index() != i) return false;
  }
  return true;
}
static_assert(rows_in_id_order(), "kTable rows must follow Id order");

/// One past the last row of `head`'s verb.
const Verb* group_end(const Verb& head) noexcept {
  const Verb* v = &head;
  while (v != kTable.data() + kTable.size() && v->name == head.name) ++v;
  return v;
}

bool sees(const Verb& verb, Role role) noexcept {
  return verb.served_by(role) || verb.served_by(kSession);
}

/// `VERB [SUB] [args]`: a row's usage line.
std::string form(const Verb& verb) {
  std::string out(verb.name);
  for (const std::string_view part : {verb.sub, verb.args}) {
    if (part.empty()) continue;
    out += ' ';
    out += part;
  }
  return out;
}

std::string usage(std::string_view forms) {
  return err(ServeCode::kInvalidArgument, "usage: " + std::string(forms));
}

}  // namespace

std::span<const Verb> table() noexcept { return kTable; }

const Verb* find(std::string_view name, Role role) noexcept {
  for (const Verb& verb : kTable) {
    if (verb.name == name && sees(verb, role)) return &verb;
  }
  return nullptr;
}

Resolved select(const Verb& head, const std::vector<std::string_view>& tokens,
                Role role) {
  const Verb* plain = nullptr;
  const Verb* row = nullptr;
  bool group_chaos = false;
  const Verb* const end = group_end(head);
  for (const Verb* v = &head; v != end; ++v) {
    if (!sees(*v, role)) continue;
    group_chaos = group_chaos || v->chaos;
    if (v->sub.empty()) {
      plain = v;
    } else if (tokens.size() >= 2 && tokens[1] == v->sub) {
      row = v;
    }
  }
  if (row == nullptr) row = plain;
  // A build without fault injection refuses every FAULTS form but STATUS
  // before looking at its arguments.
  if (!fault::kFaultInjectionEnabled && tokens.size() >= 2 &&
      (row != nullptr ? row->chaos : group_chaos)) {
    return {&head, err(ServeCode::kUnavailable,
                       "fault injection compiled out; configure with "
                       "-DASAMAP_FAULT_INJECTION=ON")};
  }
  if (row == nullptr) {
    std::string forms;
    for (const Verb* v = &head; v != end; ++v) {
      if (!sees(*v, role)) continue;
      if (!forms.empty()) forms += " | ";
      forms += form(*v);
    }
    return {&head, usage(forms)};
  }
  if (tokens.size() < row->min_tokens ||
      (row->max_tokens != kUnbounded && tokens.size() > row->max_tokens)) {
    return {row, usage(form(*row))};
  }
  if (!row->served_by(role)) {
    return {row, err(ServeCode::kInvalidArgument,
                     "verb '" + std::string(row->name) +
                         "' is shard-local; connect to a shard directly")};
  }
  return {row, {}};
}

Resolved resolve(const std::vector<std::string_view>& tokens, Role role) {
  if (tokens.empty()) {
    return {nullptr, err(ServeCode::kInvalidArgument, "empty request")};
  }
  const Verb* head = find(tokens[0], role);
  if (head == nullptr) {
    return {nullptr, err(ServeCode::kInvalidArgument,
                         "unknown command '" + std::string(tokens[0]) + "'")};
  }
  return select(*head, tokens, role);
}

std::string usage_error(const Verb& verb) { return usage(form(verb)); }

std::string parse_job_options(const Verb& verb,
                              const std::vector<std::string_view>& tokens,
                              Role role, JobOptions& out) {
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view opt = tokens[i];
    if (opt == "sync") {
      out.sync = true;
    } else if (opt == "priority=interactive") {
      out.priority = JobPriority::kInteractive;
    } else if (opt == "priority=batch") {
      out.priority = JobPriority::kBatch;
    } else if (starts_with(opt, "deadline_ms=")) {
      std::int64_t ms = 0;
      if (!parse_num(opt.substr(12), ms) || ms < 0) {
        return err(ServeCode::kInvalidArgument,
                   std::string(verb.name) + ": bad deadline_ms value");
      }
      out.deadline = std::chrono::milliseconds(ms);
    } else if (verb.id == Id::kApply && opt == "recluster=incr") {
      out.incremental = true;
    } else if (verb.id == Id::kApply && opt == "recluster=full") {
      out.incremental = false;
    } else if (verb.id == Id::kCluster && role == kRouter &&
               opt == "mode=dist") {
      out.dist = true;
    } else {
      return err(ServeCode::kInvalidArgument,
                 std::string(verb.name) + ": unknown option '" +
                     std::string(opt) + "'");
    }
  }
  return {};
}

}  // namespace asamap::serve::verbs
