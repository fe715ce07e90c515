#include "asamap/obs/envelope.hpp"

#include <ctime>
#include <utility>

#include <omp.h>

#include "asamap/obs/build_info.hpp"
#include "asamap/obs/format.hpp"

namespace asamap::obs {
namespace {

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

BenchEnvelope make_envelope(std::string bench_name) {
  BenchEnvelope env;
  env.bench = std::move(bench_name);
  env.host_max_threads = omp_get_max_threads();
  env.single_core_caveat = env.host_max_threads <= 1;
  env.git_rev = build_git_rev();
  env.timestamp_utc = utc_now_iso8601();
  return env;
}

void write_envelope_fields(std::ostream& os, const BenchEnvelope& env,
                           const char* indent) {
  os << indent << "\"bench\": \"" << escape_json(env.bench) << "\",\n"
     << indent << "\"host_max_threads\": " << env.host_max_threads << ",\n"
     << indent << "\"single_core_caveat\": "
     << (env.single_core_caveat ? "true" : "false") << ",\n"
     << indent << "\"git_rev\": \"" << escape_json(env.git_rev) << "\",\n"
     << indent << "\"timestamp_utc\": \"" << escape_json(env.timestamp_utc)
     << "\",\n";
}

}  // namespace asamap::obs
