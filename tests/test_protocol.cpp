/// Tests generated from the verb table (asamap/serve/verbs.hpp): the three
/// request handlers answer every malformed form alike, and a seeded
/// mutation fuzzer over valid-arity requests finds no crash and no reply
/// outside the protocol's shapes.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "asamap/dist/router.hpp"
#include "asamap/dist/shard.hpp"
#include "asamap/serve/protocol.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/serve/verbs.hpp"
#include "asamap/support/rng.hpp"

using namespace asamap;
namespace verbs = serve::verbs;

namespace {

serve::SessionConfig small_config() {
  serve::SessionConfig config;
  config.cluster_threads = 1;
  config.scheduler.workers = 2;
  return config;
}

/// `verb [sub]` followed by filler arguments up to `count` tokens.
std::string form_of(const verbs::Verb& verb, std::size_t count) {
  std::string line(verb.name);
  std::size_t tokens = 1;
  if (!verb.sub.empty()) {
    line += ' ';
    line += verb.sub;
    ++tokens;
  }
  for (; tokens < count; ++tokens) line += " x";
  return line;
}

/// The too-few and too-many forms of every row the session serves.
std::vector<std::string> malformed_forms() {
  std::vector<std::string> forms;
  for (const verbs::Verb& verb : verbs::table()) {
    if (!verb.served_by(verbs::kSession)) continue;
    const std::size_t prefix = verb.sub.empty() ? 1 : 2;
    if (verb.min_tokens > prefix) {
      forms.push_back(form_of(verb, verb.min_tokens - 1u));
    }
    if (verb.max_tokens != verbs::kUnbounded) {
      forms.push_back(form_of(verb, verb.max_tokens + 1u));
    }
  }
  return forms;
}

}  // namespace

// A malformed request gets one answer whichever role receives it: the
// session, a shard wrapping one, or the router (which must not need a
// shard to refuse it).
TEST(ProtocolPin, MalformedFormsMatchAcrossRoles) {
  const serve::SessionConfig config = small_config();
  serve::ServeSession session(config);
  serve::ServeSession inner(config);
  dist::ShardSession shard(inner, dist::ShardConfig{0, 2});
  dist::Router router{dist::RouterConfig{}};
  const std::vector<std::string> forms = malformed_forms();
  ASSERT_GT(forms.size(), 30u);
  for (const std::string& line : forms) {
    const std::string want = session.handle_line(line);
    EXPECT_EQ(want.rfind("ERR ", 0), 0u) << line << " -> " << want;
    EXPECT_EQ(shard.handle_line(line), want) << line;
    EXPECT_EQ(router.handle_line(line), want) << line;
  }
  // The forms whose router answers once differed from the session's.
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"GEN", "ERR invalid_argument usage: GEN <name> <n> <edges> [seed]"},
      {"LOAD g", "ERR invalid_argument usage: LOAD <name> <path> [directed]"},
      {"DROP", "ERR invalid_argument usage: DROP <name>"},
      {"APPLY",
       "ERR invalid_argument usage: APPLY <name> [recluster=full|incr] "
       "[sync] [priority=interactive|batch] [deadline_ms=N]"},
      {"CLUSTER",
       "ERR invalid_argument usage: CLUSTER <name> [sync] "
       "[priority=interactive|batch] [deadline_ms=N] [mode=dist]"},
      {"WAIT", "ERR invalid_argument usage: WAIT <job>"},
  };
  for (const auto& [line, want] : pins) {
    EXPECT_EQ(session.handle_line(line), want) << line;
    EXPECT_EQ(router.handle_line(line), want) << line;
  }
}

// Well-formed requests for a verb the router does not route are refused
// as shard-local, after the session's own arity check.
TEST(ProtocolPin, RouterRefusesShardLocalVerbs) {
  dist::Router router{dist::RouterConfig{}};
  EXPECT_EQ(router.handle_line("WAIT 3"),
            "ERR invalid_argument verb 'WAIT' is shard-local; connect to a "
            "shard directly");
  EXPECT_EQ(router.handle_line("DELTA STATUS g"),
            "ERR invalid_argument verb 'DELTA' is shard-local; connect to a "
            "shard directly");
  EXPECT_EQ(router.handle_line("DCLUSTER BEGIN g"),
            "ERR invalid_argument unknown command 'DCLUSTER'");
}

namespace {

/// Graph names: the first argument of most verbs.
const std::vector<std::string> kNames = {"g", "h", "nosuch"};

/// Argument tokens the fuzzer draws from: names, numbers at and past the
/// edges of their types, and every option spelling the protocol knows.
const std::vector<std::string>& token_pool() {
  static const std::vector<std::string> pool = {
      "g", "h", "nosuch", "0", "1", "2", "7", "31", "-1", "1.5", "abc",
      "18446744073709551616", "sync", "priority=interactive",
      "priority=batch", "priority=", "deadline_ms=0", "deadline_ms=5",
      "deadline_ms=-3", "deadline_ms=x", "recluster=incr", "recluster=full",
      "mode=dist", "directed", "prom", "prometheus", "json", "yaml",
      "WINDOW", "FLEET", "STATUS", "-", "more", "1,2,3"};
  return pool;
}

/// A seeded generator of valid-arity requests from the verb table, with
/// guard rails: GEN stays small, LOAD and FAULTS LOAD read only files of
/// `dir`, and WAIT / CANCEL name only jobs this run created.
class RequestFuzzer {
 public:
  RequestFuzzer(std::uint64_t seed, std::string dir)
      : rng_(seed), dir_(std::move(dir)) {}

  /// Records the `job=` of a reply so WAIT / CANCEL can name it.
  void observe(const std::string& reply) {
    const std::size_t at = reply.find(" job=");
    if (reply.rfind("OK", 0) != 0 || at == std::string::npos) return;
    std::uint64_t id = 0;
    const std::size_t start = at + 5;
    const std::string_view digits = std::string_view(reply).substr(
        start, reply.find(' ', start) - start);
    if (serve::protocol::parse_num(digits, id) && id > 0) jobs_.insert(id);
  }

  std::string next() {
    const auto rows = verbs::table();
    const verbs::Verb& verb = rows[rng_.next_below(rows.size())];
    const std::size_t hi = verb.max_tokens == verbs::kUnbounded
                               ? verb.min_tokens + 3u
                               : verb.max_tokens;
    const std::size_t count = rng_.next_in(verb.min_tokens, hi);
    std::vector<std::string> tokens = {std::string(verb.name)};
    if (!verb.sub.empty()) tokens.emplace_back(verb.sub);
    const std::size_t first_arg = verb.sub.empty() ? 1 : 2;
    while (tokens.size() < count) {
      tokens.push_back(tokens.size() == first_arg ? pick(kNames)
                                                  : pick(token_pool()));
    }
    for (std::size_t m = rng_.next_below(3); m > 0; --m) {
      if (tokens.size() > first_arg) {
        mutate(tokens[rng_.next_in(first_arg, tokens.size() - 1)]);
      }
    }
    guard(verb.id, tokens);
    std::string line;
    for (const std::string& tok : tokens) {
      if (!line.empty()) line += rng_.next_below(4) == 0 ? " \t " : " ";
      line += tok;
    }
    if (rng_.next_below(8) == 0) line += "\r\n";
    return line;
  }

 private:
  const std::string& pick(const std::vector<std::string>& from) {
    return from[rng_.next_below(from.size())];
  }

  /// One character-level edit that keeps the token non-empty and blank-free
  /// (so the request keeps its arity).
  void mutate(std::string& tok) {
    static constexpr std::string_view kBytes = "09az=,:-.\"\\%\x01\x7f\xff";
    const char c = kBytes[rng_.next_below(kBytes.size())];
    const std::size_t at = rng_.next_below(tok.size() + 1);
    switch (rng_.next_below(4)) {
      case 0: tok.insert(at, 1, c); break;
      case 1: if (tok.size() > 1) tok.erase(at % tok.size(), 1); break;
      case 2: tok[at % tok.size()] = c; break;
      default: tok = pick(token_pool()); break;
    }
  }

  void guard(verbs::Id id, std::vector<std::string>& tokens) {
    const auto small = [&](std::string& tok) {
      std::uint64_t v = 0;
      if (serve::protocol::parse_num(tok, v) && v > 200) tok = "50";
    };
    const auto file = [&](std::string& tok) {
      static const std::vector<std::string> names = {
          "graph.txt", "bad.txt", "plan.txt", "missing.txt"};
      tok = dir_ + "/" + pick(names);
    };
    switch (id) {
      case verbs::Id::kGen:
        for (std::size_t i = 2; i < tokens.size(); ++i) small(tokens[i]);
        break;
      case verbs::Id::kLoad:
      case verbs::Id::kFaultsLoad:
        file(tokens[2]);
        break;
      case verbs::Id::kWait:
      case verbs::Id::kCancel: {
        // A job id this run did not create becomes one it did (or the
        // invalid 0 before any job exists).
        std::uint64_t v = 0;
        if (serve::protocol::parse_num(tokens[1], v) && v != 0 &&
            jobs_.count(v) == 0) {
          auto it = jobs_.begin();
          std::advance(it, rng_.next_below(jobs_.size()));
          tokens[1] = jobs_.empty() ? "0" : std::to_string(*it);
        }
        break;
      }
      default:
        break;
    }
  }

  support::Xoshiro256 rng_;
  std::string dir_;
  std::set<std::uint64_t> jobs_;
};

/// Empty when `reply` has a protocol shape: one `OK…` / `ERR…` line, or
/// an `OK … bytes=N` header followed by exactly N payload bytes.
std::string shape_error(const std::string& reply) {
  if (reply.rfind("OK", 0) != 0 && reply.rfind("ERR ", 0) != 0) {
    return "neither OK nor ERR";
  }
  const std::size_t nl = reply.find('\n');
  if (nl == std::string::npos) return {};
  const std::string_view header = std::string_view(reply).substr(0, nl);
  const std::size_t at = header.rfind(" bytes=");
  std::size_t declared = 0;
  if (reply.rfind("OK", 0) != 0 || at == std::string_view::npos ||
      !serve::protocol::parse_num(header.substr(at + 7), declared)) {
    return "multi-line reply without an envelope header";
  }
  if (declared != reply.size() - nl - 1) return "envelope byte count is off";
  return {};
}

}  // namespace

/// A fresh directory under the system temp dir, removed with its files
/// however the test ends.
struct TempDir {
  std::string path = (std::filesystem::temp_directory_path() /
                      "asamap_protocol_fuzz_XXXXXX")
                         .string();
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(ProtocolFuzz, TableMutantsGetWellFormedReplies) {
  TempDir temp;
  std::string& dir = temp.path;
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  std::ofstream(dir + "/graph.txt") << "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n";
  std::ofstream(dir + "/bad.txt") << "0 1\nnot an edge\n";
  std::ofstream(dir + "/plan.txt") << "seed 7\nsite session.io error p=0.05\n";

  constexpr int kRequests = 6000;
  std::size_t ok = 0;
  serve::ServeSession session(small_config());
  dist::Router router{dist::RouterConfig{}};
  RequestFuzzer fuzzer(20240607, dir);
  // A clustered graph up front, so reads reach their handlers too.
  ASSERT_EQ(session.handle_line("GEN g 40 120 1").rfind("OK", 0), 0u);
  ASSERT_EQ(session.handle_line("CLUSTER g sync").rfind("OK", 0), 0u);
  for (int i = 0; i < kRequests; ++i) {
    const std::string line = fuzzer.next();
    const std::string reply = session.handle_line(line);
    fuzzer.observe(reply);
    EXPECT_EQ(shape_error(reply), "") << line << " -> " << reply;
    if (reply.rfind("OK", 0) == 0) ++ok;
    const std::string routed = router.handle_line(line);
    EXPECT_EQ(shape_error(routed), "") << line << " -> " << routed;
  }
  // The mutants must not all be refused at the parser: some reach the
  // handlers' success paths.
  EXPECT_GT(ok, static_cast<std::size_t>(kRequests / 10));
}

// Two faults the fuzzer found: a one-vertex GEN reached the generator's
// precondition check, whose exception ended the process, and a router
// without shards read the first reply of an empty gather.
TEST(ProtocolFuzz, FoundFaultsStayFixed) {
  serve::ServeSession session(small_config());
  EXPECT_EQ(session.handle_line("GEN g 1 5"),
            "ERR invalid_argument GEN requires n >= 2");
  dist::Router router{dist::RouterConfig{}};
  EXPECT_EQ(router.handle_line("CLUSTER g mode=dist"),
            "ERR unavailable distributed cluster failed: BEGIN incomplete");
}
