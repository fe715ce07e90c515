#pragma once

// Helpers for the OpsPin tests (test_serve.cpp, test_dist.cpp): they pin
// what a client sees from the ops verbs (METRICS, METRICS WINDOW, HEALTH,
// TRACE and the STATS identity suffix) while leaving out the values that
// move between runs (latencies, uptime, timestamps).

#include <set>
#include <string>
#include <vector>

namespace ops_pin {

/// The header line of an enveloped response, with its trailing `bytes=N`
/// rewritten to `bytes=<payload>` when N counts the bytes after the header
/// line exactly and to `bytes=<N of M>` when it does not.  One EXPECT_EQ
/// then pins the header text and the envelope's byte count together.
/// `payload` (optional) receives the bytes after the header line.
inline std::string pinned_header(const std::string& resp,
                                 std::string* payload = nullptr) {
  const std::size_t nl = resp.find('\n');
  if (nl == std::string::npos) return "<no payload line> " + resp;
  const std::string header = resp.substr(0, nl);
  const std::string body = resp.substr(nl + 1);
  if (payload != nullptr) *payload = body;
  const std::size_t at = header.rfind(" bytes=");
  if (at == std::string::npos) return "<no bytes=> " + header;
  const std::string declared = header.substr(at + 7);
  const std::string count = std::to_string(body.size());
  return header.substr(0, at) + " bytes=" +
         (declared == count ? std::string("<payload>")
                            : "<" + declared + " of " + count + ">");
}

/// The first line of `resp` with the value of every `key=` in `keys`
/// replaced by `#`.
inline std::string masked(const std::string& resp,
                          const std::set<std::string>& keys) {
  const std::string line = resp.substr(0, resp.find('\n'));
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t end = line.find(' ', pos);
    std::string tok = line.substr(pos, end == std::string::npos
                                           ? std::string::npos
                                           : end - pos);
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos && keys.count(tok.substr(0, eq)) != 0) {
      tok = tok.substr(0, eq + 1) + "#";
    }
    out += tok;
    if (end == std::string::npos) break;
    out += ' ';
    pos = end + 1;
  }
  return out;
}

/// The top-level keys of a JSON scrape payload, in order (the renderers
/// write one top-level member per line, indented by two spaces).
inline std::vector<std::string> top_level_keys(const std::string& payload) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t eol = payload.find('\n', pos);
    const std::string line = payload.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    if (line.rfind("  \"", 0) == 0) {
      keys.push_back(line.substr(3, line.find('"', 3) - 3));
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return keys;
}

/// The value of a top-level `"key": "<value>"` string member.
inline std::string string_member(const std::string& payload,
                                 const std::string& key) {
  const std::string needle = "\n  \"" + key + "\": \"";
  const std::size_t at = payload.find(needle);
  if (at == std::string::npos) return "<missing>";
  const std::size_t start = at + needle.size();
  return payload.substr(start, payload.find('"', start) - start);
}

/// The `slo=<name> status=<verdict>` head of every HEALTH payload line.
inline std::vector<std::string> slo_heads(const std::string& payload) {
  std::vector<std::string> heads;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t eol = payload.find('\n', pos);
    const std::string line = payload.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    const std::size_t second = line.find(' ', line.find(' ') + 1);
    heads.push_back(line.substr(0, second));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return heads;
}

}  // namespace ops_pin
