// Tests for the observability layer: metric registry semantics (handle
// identity, kind safety, scrape helpers), both render formats, concurrent
// record-while-scrape, the KernelSpan dual-sink invariant, PerThread folds,
// and the end-to-end acceptance check that registry kernel timings agree
// with the driver's own SweepTrace accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/trace.hpp"
#include "asamap/support/timer.hpp"

namespace {

using namespace asamap;
using namespace asamap::obs;

// --- MetricRegistry ------------------------------------------------------

TEST(MetricRegistry, CounterHandleIsStableAndShared) {
  MetricRegistry reg;
  Counter& a = reg.counter("asamap_test_total", "k=\"x\"");
  Counter& b = reg.counter("asamap_test_total", "k=\"x\"");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same handle
  a.inc();
  b.inc(4);
  EXPECT_EQ(reg.counter_total("asamap_test_total", "k=\"x\""), 5u);
  EXPECT_EQ(reg.counter_total("asamap_test_total", "k=\"y\""), 0u);
  EXPECT_EQ(reg.counter_total("absent_total"), 0u);
}

TEST(MetricRegistry, CounterSumSpansLabelSets) {
  MetricRegistry reg;
  reg.counter("asamap_test_total", "k=\"x\"").inc(2);
  reg.counter("asamap_test_total", "k=\"y\"").inc(3);
  reg.counter("asamap_other_total").inc(100);
  EXPECT_EQ(reg.counter_sum("asamap_test_total"), 5u);
}

TEST(MetricRegistry, GaugeSetAndAdd) {
  MetricRegistry reg;
  Gauge& g = reg.gauge("asamap_test_gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("asamap_test_gauge"), 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("absent_gauge"), 0.0);
}

TEST(MetricRegistry, HistogramMergesAcrossLabelSets) {
  MetricRegistry reg;
  reg.histogram("asamap_test_seconds", "k=\"a\"").record_seconds(1e-6);
  reg.histogram("asamap_test_seconds", "k=\"a\"").record_seconds(3e-6);
  reg.histogram("asamap_test_seconds", "k=\"b\"").record_seconds(5e-6);
  EXPECT_EQ(reg.histogram_merged("asamap_test_seconds", "k=\"a\"").count(),
            2u);
  EXPECT_EQ(reg.histogram_merged_all("asamap_test_seconds").count(), 3u);
  EXPECT_NEAR(reg.histogram_total_seconds("asamap_test_seconds", "k=\"a\""),
              4e-6, 1e-9);
  EXPECT_EQ(reg.histogram_merged("absent_seconds").count(), 0u);
}

TEST(MetricRegistry, KindMismatchThrows) {
  MetricRegistry reg;
  reg.counter("asamap_test_total");
  EXPECT_THROW(reg.gauge("asamap_test_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("asamap_test_total"), std::logic_error);
}

TEST(MetricRegistry, PrometheusGroupsSamplesUnderOneTypeLine) {
  MetricRegistry reg;
  // Interleave registration on purpose: the exposition must still emit all
  // samples of one name contiguously under a single `# TYPE` line.
  reg.counter("asamap_req_total", "verb=\"A\"").inc(1);
  reg.histogram("asamap_req_seconds", "verb=\"A\"").record_seconds(1e-3);
  reg.counter("asamap_req_total", "verb=\"B\"").inc(2);
  reg.histogram("asamap_req_seconds", "verb=\"B\"").record_seconds(2e-3);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();

  auto count_of = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# TYPE asamap_req_total counter"), 1u);
  EXPECT_EQ(count_of("# TYPE asamap_req_seconds summary"), 1u);
  EXPECT_NE(text.find("asamap_req_total{verb=\"A\"} 1"), std::string::npos);
  EXPECT_NE(text.find("asamap_req_total{verb=\"B\"} 2"), std::string::npos);
  EXPECT_NE(text.find("asamap_req_seconds_count{verb=\"A\"} 1"),
            std::string::npos);
  // Contiguity: the two counter samples sit between their TYPE line and the
  // next TYPE line.
  const auto type_total = text.find("# TYPE asamap_req_total");
  const auto type_seconds = text.find("# TYPE asamap_req_seconds");
  const auto total_b = text.find("asamap_req_total{verb=\"B\"}");
  ASSERT_NE(type_total, std::string::npos);
  ASSERT_NE(type_seconds, std::string::npos);
  ASSERT_NE(total_b, std::string::npos);
  if (type_total < type_seconds) {
    EXPECT_LT(total_b, type_seconds);
  } else {
    EXPECT_GT(total_b, type_total);
  }
}

TEST(MetricRegistry, JsonRendersScalarsAndHistogramObjects) {
  MetricRegistry reg;
  reg.counter("asamap_req_total", "verb=\"A\"").inc(7);
  reg.gauge("asamap_depth").set(3.0);
  reg.histogram("asamap_req_seconds").record_seconds(1e-3);

  std::ostringstream os;
  reg.write_json(os, "");
  const std::string text = os.str();
  EXPECT_NE(text.find("\"asamap_req_total{verb=\\\"A\\\"}\": 7"),
            std::string::npos);
  EXPECT_NE(text.find("\"asamap_depth\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"asamap_req_seconds\": {\"count\": 1"),
            std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
}

TEST(MetricRegistry, JsonHistogramCarriesMergeableBuckets) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("asamap_req_seconds");
  for (int i = 1; i <= 100; ++i) h.record_seconds(i * 1e-4);

  std::ostringstream os;
  reg.write_json(os, "");
  const std::string text = os.str();
  // The `buckets` field is the sparse wire encoding the router's fleet
  // federation decodes — it must match the in-process encoding verbatim.
  const std::string want =
      "\"buckets\": \"" +
      reg.histogram_merged_all("asamap_req_seconds").encode_buckets() + "\"";
  EXPECT_NE(text.find(want), std::string::npos) << text;
}

TEST(EscapeLabelValue, EscapesSpecialsAndIsIdempotent) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
  // Applying the escape twice must not double-escape: already-escaped
  // sequences pass through untouched.
  for (const std::string raw : {"a\"b", "a\\b", "a\nb", "g\"x\ny\\z"}) {
    const std::string once = escape_label_value(raw);
    EXPECT_EQ(escape_label_value(once), once) << raw;
  }
}

TEST(MetricRegistry, PrometheusSanitizesHostileLabelValues) {
  // Negative test: a writer that skips escape_label_value and embeds a raw
  // quote + newline in a label value must NOT be able to corrupt the
  // exposition — the renderer sanitizes values at scrape time, so every
  // sample stays on one line with balanced quotes.
  MetricRegistry reg;
  reg.counter("asamap_evil_total",
              "g=\"bad\"name\nwith=\"inject\"").inc(1);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  bool found = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    if (line.rfind("asamap_evil_total{", 0) == 0) {
      found = true;
      EXPECT_EQ(line.back(), '1') << line;  // value survives on the line
      // Quotes inside the line's label body must be balanced: an odd count
      // would mean the raw quote leaked through unescaped.
      std::size_t quotes = 0, backslashed = 0;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '"') {
          ++quotes;
          if (i > 0 && line[i - 1] == '\\') ++backslashed;
        }
      }
      EXPECT_EQ((quotes - backslashed) % 2, 0u) << line;
    }
    start = end + 1;
  }
  EXPECT_TRUE(found)
      << "hostile sample vanished instead of being sanitized:\n" << text;
}

TEST(MetricRegistry, EmptyRendersCleanly) {
  const MetricRegistry reg;
  std::ostringstream prom, js;
  reg.write_prometheus(prom);
  reg.write_json(js);
  EXPECT_TRUE(prom.str().empty());
  EXPECT_EQ(js.str(), "{}");
}

// Scrape-while-record: writers hammer a counter and a histogram while a
// reader scrapes both render formats.  Correctness here is "no torn state
// and final totals add up"; TSAN (the serve sanitizer job builds this
// binary too) checks the memory model.
TEST(MetricRegistry, ConcurrentRecordAndScrape) {
  MetricRegistry reg;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream os;
      reg.write_prometheus(os);
      reg.write_json(os);
      (void)reg.histogram_merged_all("asamap_stress_seconds");
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, w] {
      Counter& c = reg.counter("asamap_stress_total");
      Histogram& h = reg.histogram("asamap_stress_seconds",
                                   w % 2 == 0 ? "k=\"even\"" : "k=\"odd\"");
      for (int i = 0; i < kPerWriter; ++i) {
        c.inc();
        h.record_ns(static_cast<std::uint64_t>(i) + 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(reg.counter_total("asamap_stress_total"),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(reg.histogram_merged_all("asamap_stress_seconds").count(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

// --- The scrape format: parse_metrics_json --------------------------------

/// `b:c,...` bucket text summed, the count a histogram's buckets hold.
std::uint64_t bucket_sum(const support::LatencyHistogram& h) {
  std::uint64_t sum = 0;
  std::istringstream in(h.encode_buckets());
  for (std::string pair; std::getline(in, pair, ',');) {
    sum += std::stoull(pair.substr(pair.find(':') + 1));
  }
  return sum;
}

// parse_metrics_json is write_json's inverse: written, parsed and written
// again, a registry's scrape comes back byte for byte, with its kinds,
// label bodies and bucket counts — and the same from a `METRICS json`
// document, which carries the registry as its "metrics" member.
TEST(MetricsJson, ParseInvertsWrite) {
  MetricRegistry reg;
  reg.counter("asamap_bytes_total").inc(3980744);
  reg.gauge("asamap_codelength_bits").set(1.07504934);
  Histogram& h = reg.histogram(
      "asamap_req_seconds",
      "graph=\"" + escape_label_value("a\"b\\c") + "\",verb=\"MEMBER\"");
  for (int i = 1; i <= 50; ++i) h.record_seconds(i * 1.7e-4);

  std::ostringstream first;
  reg.write_json(first);
  std::ostringstream doc;
  doc << "{\n  \"bench\": \"x\",\n  \"single_core_caveat\": false,\n"
      << "  \"host_max_threads\": 4,\n  \"metrics\": " << first.str()
      << "\n}";
  for (const std::string& text : {first.str(), doc.str()}) {
    std::vector<MetricSample> parsed;
    ASSERT_TRUE(parse_metrics_json(text, parsed)) << text;
    std::ostringstream second;
    write_json(second, parsed);
    EXPECT_EQ(second.str(), first.str());
    std::ostringstream prom_want, prom_got;
    reg.write_prometheus(prom_want);
    write_prometheus(prom_got, parsed);
    EXPECT_EQ(prom_got.str(), prom_want.str());

    const std::vector<MetricSample> want = reg.samples();
    ASSERT_EQ(parsed.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(parsed[i].kind, want[i].kind) << want[i].name;
      EXPECT_EQ(parsed[i].name, want[i].name);
      EXPECT_EQ(parsed[i].labels, want[i].labels);
      EXPECT_EQ(parsed[i].value, want[i].value) << want[i].name;
      EXPECT_EQ(parsed[i].hist.encode_buckets(),
                want[i].hist.encode_buckets());
    }
  }
  std::vector<MetricSample> untouched(1);
  EXPECT_FALSE(parse_metrics_json("{\"asamap_x\": 1", untouched));
  EXPECT_EQ(untouched.size(), 1u);
}

// A shard's scrape is peer input to the router.  What the parser must
// refuse: non-finite and negative histogram scalars (a max of 1e300 once
// reached an undefined ns cast in decode), counts that disagree with the
// buckets or wrap them, and non-finite scalars; the sibling samples
// survive.
TEST(MetricsJson, DropsHostileSamplesAndKeepsTheRest) {
  const std::string ok = "\"asamap_ok_total\": 7";
  const std::string hist = "{\"count\": 1, \"sum\": 0.5, \"min\": 0.5, "
                           "\"max\": 0.5, \"buckets\": \"115:1\"}";
  const auto survivors = [&](const std::string& member) {
    std::vector<MetricSample> out;
    EXPECT_TRUE(parse_metrics_json("{" + ok + ", " + member + "}", out))
        << member;
    std::string names;
    for (const MetricSample& s : out) names += s.name + ' ';
    return names;
  };
  EXPECT_EQ(survivors("\"asamap_h\": " + hist), "asamap_ok_total asamap_h ");
  for (const std::string bad :
       {"\"max\": 1e300", "\"max\": 1e309", "\"sum\": nan", "\"min\": -inf",
        "\"sum\": -1", "\"count\": 2", "\"count\": -1"}) {
    std::string member = hist;
    const std::string field = bad.substr(0, bad.find(':') + 2);
    const std::size_t at = member.find(field);
    member.replace(at, member.find_first_of(",}", at) - at, bad);
    EXPECT_EQ(survivors("\"asamap_h\": " + member), "asamap_ok_total ")
        << member;
  }
  EXPECT_EQ(survivors("\"asamap_h\": {\"count\": 1, \"sum\": 0, \"min\": 0, "
                      "\"max\": 0, \"buckets\": "
                      "\"0:18446744073709551615,1:1\"}"),
            "asamap_ok_total ");
  for (const std::string bad :
       {"\"asamap_g\": nan", "\"asamap_g\": inf", "\"asamap_g\": 1e309",
        "\"asamap_c_total\": -3", "\"asamap_c_total\": 1e20",
        "\"9bad\": 1", "\"asamap_g{x=\\\"1\\\"\": 1", "\"bench\": \"x\""}) {
    EXPECT_EQ(survivors(bad), "asamap_ok_total ") << bad;
  }
  EXPECT_EQ(survivors("\"asamap_g\": -2.5"), "asamap_ok_total asamap_g ");
}

TEST(LatencyHistogramDecode, ClampsScalarsAndKeepsCountEqualToBuckets) {
  const auto h = support::LatencyHistogram::decode(
      1e300, -1.0, 1e300, "4:18446744073709551615,5:1,x:2,6:y,300:1");
  EXPECT_EQ(h.count(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(bucket_sum(h), h.count());
  EXPECT_EQ(h.total_seconds(), 0.0);  // 1e300 s is past any ns sum
  EXPECT_EQ(h.min_seconds(), 0.0);
  EXPECT_EQ(h.max_seconds(),
            static_cast<double>(std::numeric_limits<std::uint64_t>::max()) *
                1e-9);
}

/// Seeded mutants of valid scrapes: byte flips, truncations, duplicated
/// lines, hostile scalars in a histogram's count/sum/min/max, oversized
/// bucket counts.
class ScrapeMutator {
 public:
  explicit ScrapeMutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const int rounds = 1 + static_cast<int>(pick(3));
    for (int r = 0; r < rounds && !text.empty(); ++r) {
      switch (pick(5)) {
        case 0:  // byte flips
          for (int i = 0, n = 1 + static_cast<int>(pick(4)); i < n; ++i) {
            text[pick(text.size())] ^= static_cast<char>(1 + pick(255));
          }
          break;
        case 1: text.resize(pick(text.size())); break;
        case 2: {  // a duplicated line
          const std::size_t at = text.rfind('\n', pick(text.size()));
          const std::size_t from = at == std::string::npos ? 0 : at + 1;
          const std::size_t to = text.find('\n', from);
          const std::string line =
              text.substr(from, to == std::string::npos ? to : to - from + 1);
          text.insert(from, line);
          break;
        }
        case 3: {  // a hostile histogram scalar
          static const char* kFields[] = {"\"count\": ", "\"sum\": ",
                                          "\"min\": ", "\"max\": "};
          static const char* kValues[] = {
              "1e309", "nan", "-inf", "inf", "-1", "-0.5", "1e300",
              "1e19", "-0", "18446744073709551616", "0x10", "1e-320"};
          replace_value(text, kFields[pick(4)], kValues[pick(12)], ",}");
          break;
        }
        default: {  // an oversized bucket count
          static const char* kCounts[] = {
              "18446744073709551615", "18446744073709551616",
              "99999999999999999999999", "9223372036854775808", "0", "-1"};
          const std::size_t at = text.find(":", text.find("\"buckets\": \"",
                                                          pick(text.size())));
          if (at == std::string::npos) break;
          const std::size_t end = text.find_first_of(",\"", at + 1);
          if (end == std::string::npos) break;
          text.replace(at + 1, end - at - 1, kCounts[pick(6)]);
          break;
        }
      }
    }
    return text;
  }

 private:
  std::size_t pick(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  /// Replaces the value after one randomly chosen occurrence of `field`.
  void replace_value(std::string& text, const std::string& field,
                     const std::string& value, const char* stops) {
    std::size_t at = text.find(field, pick(text.size()));
    if (at == std::string::npos) at = text.find(field);
    if (at == std::string::npos) return;
    at += field.size();
    const std::size_t end = text.find_first_of(stops, at);
    text.replace(at, end == std::string::npos ? end : end - at, value);
  }

  std::mt19937_64 rng_;
};

// The oracle: the parser never crashes (nor, in the sanitizer build,
// trips ASan/UBSan), every histogram it returns holds as many samples as
// its buckets, every scalar is finite and a counter's non-negative, and
// whatever it returns renders again.
TEST(MetricsJsonFuzz, MutatedScrapesParseSafely) {
  MetricRegistry reg;
  reg.counter("asamap_req_total", "verb=\"MEMBER\"").inc(3980744);
  reg.counter("asamap_err_total").inc(3);
  reg.gauge("asamap_depth").set(-1.25);
  reg.gauge("asamap_resident_bytes").set(3980744);
  for (int i = 0; i < 3; ++i) {
    Histogram& h = reg.histogram("asamap_req_seconds",
                                 "verb=\"" + std::to_string(i) + "\"");
    for (int j = 1; j <= 40 * (i + 1); ++j) {
      h.record_seconds(j * 3.1e-5 * (i + 1));
    }
  }
  std::ostringstream registry;
  reg.write_json(registry);
  const std::string seeds[] = {
      registry.str(), "{\n  \"bench\": \"serve_metrics\",\n  \"metrics\": " +
                          registry.str() + "\n}"};

  constexpr int kMutants = 4000;
  ScrapeMutator mutator(20261019);
  std::size_t accepted = 0, histograms = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutator.mutate(seeds[i % 2]);
    std::vector<MetricSample> out;
    if (!parse_metrics_json(text, out)) continue;
    ++accepted;
    for (const MetricSample& s : out) {
      switch (s.kind) {
        case MetricKind::kHistogram:
          ++histograms;
          EXPECT_EQ(s.hist.count(), bucket_sum(s.hist)) << text;
          EXPECT_TRUE(std::isfinite(s.hist.total_seconds())) << text;
          break;
        case MetricKind::kCounter:
          EXPECT_GE(s.value, 0.0) << text;
          [[fallthrough]];
        case MetricKind::kGauge:
          EXPECT_TRUE(std::isfinite(s.value)) << text;
      }
    }
    std::ostringstream os;
    write_prometheus(os, out);
    write_json(os, out);
  }
  // The mutants must not all be refused outright: many keep their shape
  // (about a quarter of them parse).
  EXPECT_GT(accepted, static_cast<std::size_t>(kMutants / 10));
  EXPECT_GT(histograms, static_cast<std::size_t>(kMutants / 10));
}

// --- KernelSpan ----------------------------------------------------------

TEST(KernelSpan, ChargesTimerAndRegistryFromOneMeasurement) {
  support::PhaseTimer timer;
  MetricRegistry reg;
  KernelTimers ktimers(timer, &reg);
  {
    KernelSpan span(ktimers, KernelPhase::kPageRank);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double timer_s = timer.total("PageRank");
  const double reg_s =
      reg.histogram_total_seconds(kKernelSpanMetric, kernel_label("PageRank"));
  EXPECT_GT(timer_s, 0.0);
  // Same WallTimer read feeds both sinks; they differ only by the
  // histogram's nanosecond rounding.
  EXPECT_NEAR(reg_s, timer_s, 2e-9);
  EXPECT_EQ(
      reg.histogram_merged(kKernelSpanMetric, kernel_label("PageRank")).count(),
      1u);
}

TEST(KernelSpan, NullRegistryStillFeedsTimer) {
  support::PhaseTimer timer;
  KernelTimers ktimers(timer);
  {
    KernelSpan span(ktimers, KernelPhase::kUpdateMembers);
  }
  EXPECT_GE(timer.total("UpdateMembers"), 0.0);
  // KernelTimers eagerly creates every phase slot, in paper order.
  const std::vector<std::string> all = {"PageRank", "FindBestCommunity",
                                        "Convert2SuperNode", "UpdateMembers"};
  EXPECT_EQ(timer.phases(), all);
}

// --- PerThread -----------------------------------------------------------

TEST(PerThread, LocalSlotsFoldInThreadOrder) {
  PerThread<double> shards(4);
  EXPECT_EQ(shards.threads(), 4);
  for (int t = 0; t < 4; ++t) shards.local(t) = t + 1.0;  // 1..4
  double sum = 0.0;
  shards.fold(sum, [](double& into, double v) { into += v; });
  EXPECT_DOUBLE_EQ(sum, 10.0);
  double worst = 0.0;
  shards.fold(worst, [](double& w, double v) { w = std::max(w, v); });
  EXPECT_DOUBLE_EQ(worst, 4.0);
}

TEST(PerThread, SlotsAreValueInitialized) {
  const PerThread<std::uint64_t> shards(3);
  std::uint64_t sum = 1;
  shards.fold(sum, [](std::uint64_t& into, std::uint64_t v) { into += v; });
  EXPECT_EQ(sum, 1u);  // all shards started at zero
}

// --- End-to-end: registry vs the driver's own accounting -----------------

// The acceptance criterion for the observability layer: on a real 10k-vertex
// clustering run, the per-kernel span timings scraped from the registry must
// agree with the driver's SweepTrace wall times within 5%.  With
// refine_sweeps=0 every FindBestCommunity span is a traced level sweep
// (refinement records spans but suppresses traces), so the two accountings
// cover the same work.
TEST(ObsEndToEnd, RegistryKernelSecondsMatchSweepTrace) {
  const auto pp = gen::planted_partition(10000, 20, 0.05, 0.0005, 4242);

  core::InfomapOptions opts;
  opts.refine_sweeps = 0;
  MetricRegistry reg;
  opts.metrics = &reg;
  const auto result = core::run_infomap_parallel(pp.graph, opts, 2);
  ASSERT_FALSE(result.trace.empty());

  double trace_wall = 0.0;
  for (const auto& st : result.trace) trace_wall += st.wall_seconds;
  const double reg_fbc = reg.histogram_total_seconds(
      kKernelSpanMetric, kernel_label(core::kernels::kFindBestCommunity));
  EXPECT_GT(reg_fbc, 0.0);
  EXPECT_NEAR(reg_fbc, trace_wall, 0.05 * trace_wall);

  // The strong invariant behind that 5%: each span charges the *same*
  // measurement to the PhaseTimer and the registry, so per kernel the two
  // sinks agree to nanosecond rounding (1ns per recorded span).
  for (const std::string& kernel :
       {core::kernels::kPageRank, core::kernels::kFindBestCommunity,
        core::kernels::kConvert2SuperNode, core::kernels::kUpdateMembers}) {
    const auto merged =
        reg.histogram_merged(kKernelSpanMetric, kernel_label(kernel));
    EXPECT_GT(merged.count(), 0u) << kernel;
    EXPECT_NEAR(merged.total_seconds(), result.kernel_wall.total(kernel),
                1e-9 * static_cast<double>(merged.count()) + 1e-12)
        << kernel;
  }

  // Run-level counters published at the end of the run.
  EXPECT_EQ(reg.counter_total("asamap_runs_total"), 1u);
  EXPECT_EQ(reg.counter_total("asamap_run_sweeps_total"),
            result.trace.size());
  std::uint64_t moves = 0;
  for (const auto& st : result.trace) moves += st.moves;
  EXPECT_EQ(reg.counter_total("asamap_run_moves_total"), moves);
  EXPECT_DOUBLE_EQ(reg.gauge_value("asamap_run_communities"),
                   static_cast<double>(result.num_communities));
  EXPECT_DOUBLE_EQ(reg.gauge_value("asamap_run_codelength_bits"),
                   result.codelength);
}

// Serial driver: same registry contract, and an uninstrumented run (null
// registry) must behave identically — the span's fast path.
TEST(ObsEndToEnd, SerialRunPublishesAndNullRegistryIsHarmless) {
  const auto pp = gen::planted_partition(2000, 10, 0.1, 0.002, 99);

  core::InfomapOptions opts;
  MetricRegistry reg;
  opts.metrics = &reg;
  const auto with = core::run_infomap(pp.graph, opts);

  core::InfomapOptions plain;
  const auto without = core::run_infomap(pp.graph, plain);

  EXPECT_EQ(with.communities, without.communities);
  EXPECT_DOUBLE_EQ(with.codelength, without.codelength);
  EXPECT_EQ(reg.counter_total("asamap_runs_total"), 1u);
  EXPECT_GT(reg.histogram_merged_all(std::string(kKernelSpanMetric)).count(),
            0u);
}

}  // namespace
