#pragma once

/// \file envelope.hpp
/// The provenance envelope of every JSON document the project writes:
/// committed BENCH_*.json artifacts, `asamap_cli --metrics json` and the
/// `METRICS ... json` scrapes.  Each stamps the same fields — document
/// name, host thread count, git revision, UTC timestamp — so a diff of
/// two documents carries its own context.

#include <ostream>
#include <string>

namespace asamap::obs {

struct BenchEnvelope {
  std::string bench;          ///< document name, e.g. "serve_throughput"
  int host_max_threads = 1;   ///< omp_get_max_threads() at startup
  /// True when the host offers a single hardware thread.  Multi-thread
  /// numbers in such an artifact measure oversubscription, not scaling —
  /// readers (and CI assertions) must not treat self-speedup as meaningful.
  bool single_core_caveat = false;
  /// build_git_rev(): the revision the binary was configured from.
  std::string git_rev;
  std::string timestamp_utc;  ///< ISO-8601 Z, e.g. "2026-08-06T12:00:00Z"
};

/// Collects the envelope for `bench_name` from the running process
/// (OpenMP thread count, baked-in revision, wall clock).  Never shells out,
/// so serving binaries may call it on the request path.
BenchEnvelope make_envelope(std::string bench_name);

/// Writes the envelope fields as the opening members of a JSON object:
///   "bench": "...", "host_max_threads": N, "single_core_caveat": bool,
///   "git_rev": "...", "timestamp_utc": "..."
/// one per line with `indent`, each line comma-terminated so the caller
/// continues the object directly.
void write_envelope_fields(std::ostream& os, const BenchEnvelope& env,
                           const char* indent = "  ");

}  // namespace asamap::obs
