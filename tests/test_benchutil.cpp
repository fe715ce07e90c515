// Tests for the bench plumbing: table rendering, formatting helpers, the
// phase harness (Section, interleave, the overhead gates), and the
// experiment runners' result invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "asamap/benchutil/experiments.hpp"
#include "asamap/benchutil/harness.hpp"
#include "asamap/benchutil/table.hpp"
#include "asamap/gen/generators.hpp"

namespace {

using namespace asamap;
using benchutil::Table;

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-cell", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("a-much-longer-cell"), std::string::npos);
  // All lines have equal length (alignment).
  std::istringstream lines(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsRowWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Fmt, Numbers) {
  EXPECT_EQ(benchutil::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(benchutil::fmt(2.0, 0), "2");
  EXPECT_EQ(benchutil::fmt_pct(0.59, 0), "59%");
  EXPECT_EQ(benchutil::fmt_pct(0.1234, 1), "12.3%");
}

TEST(Fmt, CountsWithSeparators) {
  EXPECT_EQ(benchutil::fmt_count(0), "0");
  EXPECT_EQ(benchutil::fmt_count(999), "999");
  EXPECT_EQ(benchutil::fmt_count(1000), "1,000");
  EXPECT_EQ(benchutil::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(benchutil::fmt_count(117185083), "117,185,083");
}

TEST(Section, OneWriteFeedsTheTableAndTheJson) {
  benchutil::Section root;
  root.put("requests", std::uint64_t{12345678901234}).put("rate", 1.0 / 3.0);
  benchutil::Section& lat = root.child("latency_seconds");
  lat.put("p50", 1.25e-06);
  lat.child("tail").put("p99", 2.0).put("bad", std::nan(""));
  root.child("parallel", true).put("threads", 1);
  root.child("parallel", true).put("threads", 2);
  root.text("plan", "a \"b\"").raw("metrics", "{\"x\": 1}");

  std::ostringstream table;
  root.print(table);
  const std::string t = table.str();
  for (const char* row :
       {"| requests                 | 12345678901234 |",
        "| rate                     | 0.333333       |",
        "| latency_seconds.p50      | 1.25e-06       |",
        "| latency_seconds.tail.p99 | 2              |",
        "| parallel[1].threads      | 2              |",
        "| plan                     | a \"b\"          |"}) {
    EXPECT_NE(t.find(row), std::string::npos) << row << "\n" << t;
  }
  EXPECT_EQ(t.find("metrics"), std::string::npos);  // raw JSON stays off

  std::ostringstream js;
  root.write_document(js, {"unit", 4, false, "abc1234", "2026-01-01T00:00Z"});
  EXPECT_EQ(js.str(), R"({
  "bench": "unit",
  "host_max_threads": 4,
  "single_core_caveat": false,
  "git_rev": "abc1234",
  "timestamp_utc": "2026-01-01T00:00Z",
  "requests": 12345678901234,
  "rate": 0.333333333,
  "latency_seconds": {
    "p50": 1.25e-06,
    "tail": {
      "p99": 2,
      "bad": null
    }
  },
  "parallel": [
    {"threads": 1},
    {"threads": 2}
  ],
  "plan": "a \"b\"",
  "metrics": {"x": 1}
}
)");
}

TEST(Interleave, RotatesTheFirstSideAndKeepsEachBest) {
  std::string order;
  const std::vector<double> a = {3, 1, 2}, b = {5, 4, 4}, c = {7, 7, 7};
  std::size_t ia = 0, ib = 0, ic = 0;
  const auto r = benchutil::interleave(
      3, {[&] { order += 'A'; return a[ia++]; },
          [&] { order += 'B'; return b[ib++]; },
          [&] { order += 'C'; return c[ic++]; }});
  EXPECT_EQ(order, "ABCBCACAB");
  EXPECT_EQ(r.best, (std::vector<double>{1, 4, 7}));
  EXPECT_EQ(r.spread, (std::vector<double>{2.0, 0.25, 0.0}));
  EXPECT_DOUBLE_EQ(r.noise_floor, 2.0);
  EXPECT_DOUBLE_EQ(r.overhead(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(r.overhead(0, 1), -0.75);  // signed, never clamped

  order.clear();
  (void)benchutil::interleave(2, {[&] { order += 'A'; return 1.0; },
                                  [&] { order += 'B'; return 1.0; }});
  EXPECT_EQ(order, "ABBA");
}

/// This thread's CPU seconds.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Busy-waits until this thread has run `seconds` of CPU; returns the CPU
/// seconds spent.  CPU time, unlike wall time, does not stretch when the
/// test host is oversubscribed, so the samples stay near their deadline.
double spin(double seconds) {
  const double start = thread_cpu_seconds();
  double now = start;
  while ((now = thread_cpu_seconds()) - start < seconds) {
  }
  return now - start;
}

// An overhead gate counts only if it can fail: a side slowed to 1.5x its
// twin must trip a 5% gate, and equal sides must pass it.
TEST(Interleave, OverheadGateTripsOnAnInjectedSlowdown) {
  constexpr double kLimit = 0.05;
  const auto slowed = benchutil::interleave(
      5, {[] { return spin(0.004); }, [] { return spin(0.006); }});
  EXPECT_GT(slowed.overhead(1, 0), kLimit);
  const auto equal = benchutil::interleave(
      5, {[] { return spin(0.004); }, [] { return spin(0.004); }});
  EXPECT_LE(equal.overhead(1, 0), kLimit);
  EXPECT_GE(equal.noise_floor, 0.0);
}

TEST(Experiments, SimResultInvariants) {
  const auto pp = gen::planted_partition(400, 4, 0.2, 0.01, 401);
  benchutil::SimRunConfig cfg;
  cfg.num_cores = 2;
  cfg.infomap.max_levels = 1;
  const auto r = run_simulated(pp.graph, cfg);
  EXPECT_GT(r.total_instructions, 0u);
  EXPECT_GE(r.total_branches, r.total_mispredicts);
  EXPECT_GT(r.sim_seconds, 0.0);
  EXPECT_GT(r.hash_fraction(), 0.0);
  EXPECT_LT(r.hash_fraction(), 1.0);
  // Per-core average times the core count approximates the total.
  EXPECT_NEAR(r.avg_instructions_per_core * 2.0,
              static_cast<double>(r.total_instructions),
              0.01 * static_cast<double>(r.total_instructions));
}

TEST(Experiments, AsaRunReportsCamStats) {
  const auto pp = gen::planted_partition(400, 4, 0.2, 0.01, 403);
  benchutil::SimRunConfig cfg;
  cfg.engine = core::AccumulatorKind::kAsa;
  cfg.infomap.max_levels = 1;
  const auto r = run_simulated(pp.graph, cfg);
  EXPECT_GT(r.cam_accumulates, 0u);
  // Software-engine runs report zero CAM activity.
  cfg.engine = core::AccumulatorKind::kChained;
  const auto base = run_simulated(pp.graph, cfg);
  EXPECT_EQ(base.cam_accumulates, 0u);
}

}  // namespace
