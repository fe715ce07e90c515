// Tests for the windowed-metrics plane (ISSUE 10): WindowStore ring
// semantics driven by synthetic timestamps, the saturating histogram
// subtract behind rolling quantiles, the encode/decode golden check that
// anchors the router's fleet federation (cross-registry merge == one
// registry that saw every sample), HealthTracker verdict transitions, and
// a record-while-scrape stress the TSAN job runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asamap/obs/health.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/window.hpp"
#include "asamap/support/histogram.hpp"

namespace {

using namespace asamap;
using namespace asamap::obs;

constexpr std::uint64_t kSec = 1'000'000'000ULL;

// Small synthetic tiers so tests spell out every rotation: fast = 4 x 1s,
// slow = 3 x 4s.
WindowConfig small_config() {
  WindowConfig c;
  c.tiers = {{kSec, 4, "fast"}, {4 * kSec, 3, "slow"}};
  return c;
}

// --- WindowStore ---------------------------------------------------------

TEST(WindowStore, DeltaIsLiveMinusOldestSnapshot) {
  MetricRegistry reg;
  Counter& c = reg.counter("asamap_test_total");
  WindowStore w(reg, small_config());

  c.inc(10);
  // Nothing has ticked: the window is [ctor snapshot .. now], so the whole
  // increment is inside it.
  EXPECT_EQ(w.delta("asamap_test_total", 1 * kSec), 10u);
  EXPECT_DOUBLE_EQ(w.rate("asamap_test_total", 1 * kSec), 10.0);

  // Rotate one bucket per second; the 10 stay visible until the ring evicts
  // the ctor snapshot that preceded them (depth 4 = ctor + 3 ticks).
  for (std::uint64_t t = 1; t <= 3; ++t) {
    w.tick(t * kSec);
    EXPECT_EQ(w.delta("asamap_test_total", t * kSec), 10u) << "t=" << t;
  }
  w.tick(4 * kSec);
  EXPECT_EQ(w.delta("asamap_test_total", 4 * kSec), 0u)
      << "increment should age out once the ring wraps";
}

TEST(WindowStore, ConstructionStampAnchorsTheFirstColdScrape) {
  // Sessions feed raw steady_clock time, so the ctor must stamp the first
  // snapshot with that clock: a t=0 stamp would make the first tick look
  // like a window-sized gap, reset the rings, and report the first
  // scrape's rates over a near-zero span.
  MetricRegistry reg;
  Counter& c = reg.counter("asamap_test_total");
  const std::uint64_t boot = 500'000 * kSec;  // hours of pre-process uptime
  WindowStore w(reg, small_config(), boot);
  c.inc(6);
  const std::uint64_t now = boot + 2 * kSec;
  EXPECT_EQ(w.delta("asamap_test_total", now), 6u);
  EXPECT_NEAR(w.rate("asamap_test_total", now), 3.0, 0.01);
  EXPECT_NEAR(w.window_seconds(0, now), 2.0, 0.01);
}

TEST(WindowStore, RateDividesByCoveredSpan) {
  MetricRegistry reg;
  Counter& c = reg.counter("asamap_test_total");
  WindowStore w(reg, small_config());
  for (std::uint64_t t = 1; t <= 8; ++t) {
    c.inc(5);  // 5 events per second, steadily
    w.tick(t * kSec);
  }
  // Warm ring: window covers the oldest retained snapshot to now.
  const double rate = w.rate("asamap_test_total", 8 * kSec);
  EXPECT_NEAR(rate, 5.0, 1.5);
  EXPECT_GT(w.window_seconds(0, 8 * kSec), 0.0);
}

TEST(WindowStore, GapLongerThanWindowResetsTheTier) {
  MetricRegistry reg;
  Counter& c = reg.counter("asamap_test_total");
  WindowStore w(reg, small_config());
  c.inc(100);
  w.tick(1 * kSec);
  // 100s later: both tiers' whole windows have elapsed with no ticks.
  EXPECT_EQ(w.delta("asamap_test_total", 101 * kSec, 0), 0u);
  EXPECT_EQ(w.delta("asamap_test_total", 101 * kSec, 1), 0u);
  // New increments after the reset are visible again.
  c.inc(7);
  EXPECT_EQ(w.delta("asamap_test_total", 102 * kSec, 0), 7u);
}

TEST(WindowStore, SlowTierRetainsWhatTheFastTierAged) {
  MetricRegistry reg;
  Counter& c = reg.counter("asamap_test_total");
  WindowStore w(reg, small_config());
  c.inc(50);
  for (std::uint64_t t = 1; t <= 6; ++t) w.tick(t * kSec);
  // 6s in: past the 4s fast window, inside the 12s slow one.
  EXPECT_EQ(w.delta("asamap_test_total", 6 * kSec, 0), 0u);
  EXPECT_EQ(w.delta("asamap_test_total", 6 * kSec, 1), 50u);
}

TEST(WindowStore, WindowHistogramHoldsOnlyInWindowSamples) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("asamap_test_seconds");
  WindowStore w(reg, small_config());
  // Old regime: 1ms samples.
  for (int i = 0; i < 100; ++i) h.record_seconds(1e-3);
  for (std::uint64_t t = 1; t <= 5; ++t) w.tick(t * kSec);
  // New regime: 100ms samples only, inside the fast window.
  for (int i = 0; i < 20; ++i) h.record_seconds(0.1);
  const auto fast = w.window_histogram("asamap_test_seconds", 5 * kSec, 0);
  EXPECT_EQ(fast.count(), 20u);
  EXPECT_GT(fast.quantile_seconds(0.5), 0.05)
      << "rolling p50 must reflect the new regime only";
  // The cumulative registry view still mixes both regimes.
  EXPECT_EQ(reg.histogram_merged_all("asamap_test_seconds").count(), 120u);
}

TEST(WindowStore, PrometheusOutputCarriesWindowLabels) {
  MetricRegistry reg;
  reg.counter("asamap_test_total", "verb=\"X\"").inc(3);
  reg.histogram("asamap_test_seconds").record_seconds(0.25);
  WindowStore w(reg, small_config());
  std::ostringstream os;
  w.write_prometheus(os, 2 * kSec);
  const std::string out = os.str();
  EXPECT_NE(out.find("window=\"fast\""), std::string::npos) << out;
  EXPECT_NE(out.find("window=\"slow\""), std::string::npos) << out;
  EXPECT_NE(out.find("asamap_test_total_rate"), std::string::npos) << out;
}

// The windowed series go through the cumulative scrape's writer: one
// `# TYPE` line per name even when a name's label sets were registered
// apart, and a windowed summary carries _sum and _count.
TEST(WindowStore, PrometheusGroupsEachNameUnderOneTypeLine) {
  MetricRegistry reg;
  reg.counter("asamap_a_total", "k=\"x\"").inc(1);
  reg.counter("asamap_b_total").inc(1);
  reg.counter("asamap_a_total", "k=\"y\"").inc(1);
  Histogram& h = reg.histogram("asamap_test_seconds");
  WindowStore w(reg, small_config());
  h.record_seconds(0.25);
  std::ostringstream os;
  w.write_prometheus(os, 2 * kSec);
  const std::string out = os.str();
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = out.find(needle); at != std::string::npos;
         at = out.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("# TYPE asamap_a_total_rate gauge\n"), 1u) << out;
  EXPECT_EQ(count("# TYPE asamap_test_seconds_window summary\n"), 1u) << out;
  EXPECT_EQ(count("asamap_test_seconds_window_sum{window=\"fast\"} 0.25\n"),
            1u)
      << out;
  EXPECT_EQ(count("asamap_test_seconds_window_count{window=\"slow\"} 1\n"),
            1u)
      << out;
}

TEST(WindowStore, JsonOutputHasOneObjectPerTier) {
  MetricRegistry reg;
  reg.counter("asamap_test_total").inc(3);
  WindowStore w(reg, small_config());
  std::ostringstream os;
  w.write_json(os, 2 * kSec);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"fast\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"slow\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"window_seconds\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"rates\""), std::string::npos) << out;
}

// --- LatencyHistogram subtract / encode / decode -------------------------

TEST(LatencyHistogram, SubtractRemovesThePrefix) {
  support::LatencyHistogram base;
  for (int i = 0; i < 50; ++i) base.record_seconds(1e-3);
  support::LatencyHistogram now = base;
  for (int i = 0; i < 10; ++i) now.record_seconds(0.2);
  now.subtract(base);
  EXPECT_EQ(now.count(), 10u);
  EXPECT_NEAR(now.total_seconds(), 2.0, 1e-6);
  EXPECT_GT(now.quantile_seconds(0.5), 0.05);
}

TEST(LatencyHistogram, SubtractSaturatesOnForeignBase) {
  // A base that is not a prefix (more samples than `now` in some bucket)
  // must clamp at zero, never wrap.
  support::LatencyHistogram base;
  for (int i = 0; i < 100; ++i) base.record_seconds(1e-3);
  support::LatencyHistogram now;
  for (int i = 0; i < 3; ++i) now.record_seconds(1e-3);
  now.subtract(base);
  EXPECT_EQ(now.count(), 0u);
}

TEST(LatencyHistogram, EncodeDecodeRoundTripsQuantiles) {
  support::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record_seconds(i * 1e-4);
  const auto d = support::LatencyHistogram::decode(
      h.total_seconds(), h.min_seconds(), h.max_seconds(),
      h.encode_buckets());
  EXPECT_EQ(d.count(), h.count());
  EXPECT_DOUBLE_EQ(d.total_seconds(), h.total_seconds());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(d.quantile_seconds(q), h.quantile_seconds(q)) << q;
  }
}

// Golden cross-registry check — the contract behind METRICS FLEET: two
// registries scraped and merged through the wire encoding must answer
// quantiles exactly like one registry that recorded every sample, because
// the bucket counts add losslessly.
TEST(LatencyHistogram, CrossRegistryMergeMatchesSingleRegistryOracle) {
  MetricRegistry shard_a, shard_b, oracle;
  Histogram& ha = shard_a.histogram("asamap_req_seconds");
  Histogram& hb = shard_b.histogram("asamap_req_seconds");
  Histogram& ho = oracle.histogram("asamap_req_seconds");
  // Deterministic skewed workload split unevenly across the shards.
  std::uint64_t state = 12345;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double s = 1e-5 + static_cast<double>(state % 100000) * 1e-8;
    (i % 3 == 0 ? ha : hb).record_seconds(s);
    ho.record_seconds(s);
  }
  const auto scrape = [](MetricRegistry& reg) {
    const auto h = reg.histogram_merged_all("asamap_req_seconds");
    return support::LatencyHistogram::decode(
        h.total_seconds(), h.min_seconds(), h.max_seconds(),
        h.encode_buckets());
  };
  support::LatencyHistogram fleet = scrape(shard_a);
  fleet.merge(scrape(shard_b));
  const auto want = oracle.histogram_merged_all("asamap_req_seconds");
  EXPECT_EQ(fleet.count(), want.count());
  EXPECT_NEAR(fleet.total_seconds(), want.total_seconds(), 1e-9);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(fleet.quantile_seconds(q), want.quantile_seconds(q))
        << "quantile " << q;
  }
}

// --- HealthTracker -------------------------------------------------------

struct HealthRig {
  MetricRegistry reg;
  Counter* reqs;
  Counter* errs;
  Histogram* lat;
  WindowStore window;
  HealthTracker health;

  explicit HealthRig(SloConfig slo = SloConfig())
      : reqs(&reg.counter("asamap_req_total")),
        errs(&reg.counter("asamap_err_total")),
        lat(&reg.histogram("asamap_req_seconds")),
        window(reg, small_config()),
        health(reg, window, slo, "asamap_req_total", "asamap_err_total",
               "asamap_req_seconds", "asamap_breaker_state") {}
};

TEST(HealthTracker, QuietSystemIsHealthy) {
  HealthRig rig;
  const auto report = rig.health.evaluate(1 * kSec);
  EXPECT_EQ(report.status, HealthStatus::kHealthy);
  EXPECT_DOUBLE_EQ(rig.reg.gauge_value("asamap_health_status"), 0.0);
  const std::string text = report.render();
  EXPECT_NE(text.find("slo=availability status=ok"), std::string::npos)
      << text;
  EXPECT_NE(text.find("slo=latency_p99 status=ok"), std::string::npos)
      << text;
}

TEST(HealthTracker, BothWindowsBurningIsUnhealthy) {
  HealthRig rig;
  rig.reqs->inc(100);
  rig.errs->inc(50);  // 50% errors vs a 0.1% budget: burn 500 on both tiers
  const auto report = rig.health.evaluate(1 * kSec);
  EXPECT_EQ(report.status, HealthStatus::kUnhealthy);
  EXPECT_DOUBLE_EQ(rig.reg.gauge_value("asamap_health_status"), 2.0);
  EXPECT_GT(rig.reg.gauge_value("asamap_health_burn_rate", "window=\"fast\""),
            400.0);
}

TEST(HealthTracker, OldBurnOnlyInSlowWindowIsDegraded) {
  HealthRig rig;
  rig.reqs->inc(100);
  rig.errs->inc(50);
  // Rotate 1s buckets for 6s with clean traffic: the burn ages out of the
  // 4s fast window but stays in the 12s slow one -> warn, not violation.
  for (std::uint64_t t = 1; t <= 6; ++t) {
    rig.reqs->inc(10);
    rig.window.tick(t * kSec);
  }
  const auto report = rig.health.evaluate(6 * kSec);
  EXPECT_EQ(report.status, HealthStatus::kDegraded);
  const std::string text = report.render();
  EXPECT_NE(text.find("slo=availability status=warn"), std::string::npos)
      << text;
}

TEST(HealthTracker, SustainedSlowLatencyViolates) {
  SloConfig slo;
  slo.latency_p99_bound_seconds = 0.010;
  HealthRig rig(slo);
  for (int i = 0; i < 50; ++i) rig.lat->record_seconds(0.2);
  const auto report = rig.health.evaluate(1 * kSec);
  EXPECT_EQ(report.status, HealthStatus::kUnhealthy);
  const std::string text = report.render();
  EXPECT_NE(text.find("slo=latency_p99 status=violated"), std::string::npos)
      << text;
  EXPECT_GT(rig.reg.gauge_value("asamap_health_latency_p99_seconds",
                                "window=\"fast\""),
            0.1);
}

TEST(HealthTracker, OpenBreakerWarns) {
  HealthRig rig;
  rig.reg.gauge("asamap_breaker_state").set(1.0);  // open
  const auto report = rig.health.evaluate(1 * kSec);
  EXPECT_EQ(report.status, HealthStatus::kDegraded);
  EXPECT_NE(report.render().find("slo=breaker status=warn state=open"),
            std::string::npos)
      << report.render();
}

TEST(HealthTracker, ShardLivenessFoldsIntoTheVerdict) {
  HealthRig rig;
  HealthInputs in;
  in.have_shards = true;
  in.shards_up = 2;
  in.shards_down = 1;
  in.down_list = "1";
  auto report = rig.health.evaluate(1 * kSec, in);
  EXPECT_EQ(report.status, HealthStatus::kDegraded);
  EXPECT_NE(report.render().find("slo=shards status=warn up=2 down=1 "
                                 "shards_down=1"),
            std::string::npos)
      << report.render();

  in.shards_up = 1;
  in.shards_down = 2;
  in.down_list = "0,2";
  report = rig.health.evaluate(2 * kSec, in);
  EXPECT_EQ(report.status, HealthStatus::kUnhealthy)
      << "losing the majority of shards must violate";
}

// --- concurrency (the TSAN job runs this binary) -------------------------

TEST(WindowStore, RecordWhileScrapeIsRaceFree) {
  MetricRegistry reg;
  Counter& c = reg.counter("asamap_test_total");
  Histogram& h = reg.histogram("asamap_test_seconds");
  WindowStore w(reg, small_config());
  HealthTracker health(reg, w, SloConfig(), "asamap_test_total",
                       "asamap_err_total", "asamap_test_seconds");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      // do-while: on a loaded single-core host the scraping loop below can
      // finish before this thread is first scheduled — at least one record
      // must land so the final assertion is deterministic.
      do {
        c.inc();
        h.record_seconds(1e-5);
        std::this_thread::yield();
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (std::uint64_t t = 1; t <= 200; ++t) {
    const std::uint64_t now = t * kSec / 10;
    w.tick(now);
    (void)w.delta("asamap_test_total", now);
    (void)w.window_histogram("asamap_test_seconds", now);
    (void)health.evaluate(now);
    if (t % 50 == 0) {
      std::ostringstream os;
      w.write_prometheus(os, now);
      w.write_json(os, now);
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_GT(reg.counter_sum("asamap_test_total"), 0u);
}

}  // namespace
