#pragma once

/// \file protocol.hpp
/// The line-protocol kit shared by every request handler (ServeSession,
/// dist::ShardSession, dist::Router): request tokenizing, numeric parsing,
/// and the `ERR <code> <message>` / `OK format=<fmt> bytes=N` response
/// shapes.  Header-inline because ServeSession's batched read fast path
/// runs it once per request.

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "asamap/obs/format.hpp"
#include "asamap/serve/status.hpp"

namespace asamap::serve::protocol {

using obs::fmt_double;

/// CRLF / sloppy-client tolerance: strip the line terminator residue before
/// parsing.  Tokens split only on space/tab, so without this a telnet
/// client's `MEMBER g 5\r` reaches the parser with the '\r' welded onto the
/// last token and the request fails with a bogus parse error.
[[nodiscard]] inline std::string_view trim_trailing_ws(std::string_view line) {
  while (!line.empty()) {
    const char c = line.back();
    if (c != '\r' && c != '\n' && c != ' ' && c != '\t') break;
    line.remove_suffix(1);
  }
  return line;
}

/// Splits `line` on runs of spaces/tabs into `tokens` (cleared first; the
/// views point into `line`).  Takes the vector by reference so a hot loop
/// reuses one allocation.
inline void tokenize_into(std::string_view line,
                          std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
}

/// Parses the whole of `tok` as a number; false on any leftover character.
template <typename T>
bool parse_num(std::string_view tok, T& out) {
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc{} && ptr == tok.data() + tok.size();
}

[[nodiscard]] inline bool starts_with(std::string_view s,
                                      std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

/// `ERR <code> <message>`.
[[nodiscard]] inline std::string err(std::string_view code,
                                     std::string_view message) {
  std::string out = "ERR ";
  out += code;
  out += ' ';
  out += message;
  return out;
}

[[nodiscard]] inline std::string err(ServeCode code, std::string_view message) {
  return err(to_string(code), message);
}

[[nodiscard]] inline std::string err(const ServeStatus& status) {
  return err(status.code, status.text());
}

/// The multi-line response envelope: `OK format=<fmt> bytes=N` then exactly
/// N payload bytes.  The transport's message terminator (the text
/// protocol's newline / the binary frame length) follows the payload and is
/// NOT part of N — so a client reads the header line, then N bytes, done.
[[nodiscard]] inline std::string enveloped(std::string_view format,
                                          std::string_view payload) {
  std::string out = "OK format=";
  out += format;
  out += " bytes=" + std::to_string(payload.size());
  out += '\n';
  out += payload;
  return out;
}

}  // namespace asamap::serve::protocol
