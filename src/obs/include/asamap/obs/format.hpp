#pragma once

/// \file format.hpp
/// The number and string formatting every text renderer shares: the obs
/// exposition writers (Prometheus text, registry/window JSON, HEALTH), the
/// JSON envelope and the line-protocol responses.  Header-inline because
/// the serve read fast path formats a flow per request.

#include <cstdio>
#include <string>
#include <string_view>

namespace asamap::obs {

/// Significant digits that round-trip any double exactly.
inline constexpr int kExactDigits = 17;

/// `%.<digits>g`: 6 significant digits on protocol lines and HEALTH
/// details, kExactDigits where a double must survive a text round trip.
[[nodiscard]] inline std::string fmt_double(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

/// The metric scrapes' rendering (Prometheus text, registry and window
/// JSON): 9 significant digits.
[[nodiscard]] inline std::string fmt_scrape(double v) {
  return fmt_double(v, 9);
}

/// Escapes `s` for a JSON double-quoted literal.
[[nodiscard]] inline std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace asamap::obs
