// Closed-loop load generator for the serving layer: N client threads fire a
// mixed read/recluster workload at one ServeSession through the same
// handle_line path the asamap_serve driver uses, for a fixed wall-clock
// window.  Reports requests/sec, latency quantiles (p50/p95/p99), and the
// queue-rejection rate under backpressure, and writes the committed
// BENCH_serve.json trajectory artifact.
//
// Mix (per client, closed loop — next request only after the response):
//   70% MEMBER   15% SAME   8% TOPK   5% SUMMARY   2% CLUSTER (async batch)
//
// With --faults <plan> a second phase runs the same workload against a
// FRESH session armed with the fault plan (builds configured with
// -DASAMAP_FAULT_INJECTION=ON): the chaos variant.  It reports
// interactive-lane goodput (the fraction of reads + interactive reclusters
// answered OK, counting STALE degradations as good — the client got an
// answer), injected-fault/retry/stale/breaker counters, and appends a
// "chaos" section to the JSON artifact.
//
// With --trace a tracer-overhead phase reruns the workload on a fresh
// session with the flight recorder disabled.  The baseline above IS the
// traced number (the recorder is always on), so the delta is the tracer's
// cost; the run fails if that overhead exceeds 5%.  A "trace" section
// lands in the JSON artifact either way.
//
// With --window a windowed-metrics overhead phase reruns the workload on
// two more fresh sessions, the second polled by a scraper thread rendering
// METRICS WINDOW + HEALTH every 250ms; the throughput delta is what live
// windowed observability costs, and the run fails if it exceeds 2%.  A
// "window" section lands in the JSON.
//
// With --delta two dynamic-graph phases run (DESIGN.md §4f):
//   1. APPLY speedup: a --delta-n vertex graph takes --delta-churn edge
//      churn, then APPLY recluster=full and recluster=incr are timed on
//      identically prepared sessions; reports the incremental speedup and
//      the codelength gap between the two answers.
//   2. Mixed update/read window: 90% MEMBER / 9% ADD_EDGE / 1% APPLY incr
//      (async) on a fresh session, closed loop like the baseline.
// Both land in a "delta" section of the JSON artifact.  The read-only
// baseline phase is untouched by --delta.
//
// With --net three read-heavy phases compare request planes on the same
// request mix (80% MEMBER / 15% SAME / 5% SUMMARY, prebuilt
// deterministically):
//   1. In-process line-at-a-time baseline: the stdin-style serving plane
//      asamap_serve shipped with — requests arrive on a pipe, each is
//      answered by handle_line, each response is flushed with its own
//      write(2), exactly like the driver's `std::endl` loop.  This is the
//      plane the network endpoint replaces, and the number the >= 2x
//      acceptance bar is measured against.
//   2. Direct-call ceiling: a bare handle_line loop with no transport at
//      all — the upper bound any request plane could reach, reported for
//      context.
//   3. Network open loop: a NetServer on an ephemeral loopback port, one
//      pipelined client streaming binary-framed requests under a bounded
//      in-flight window — contiguous read runs are answered through
//      ServeSession::handle_batch, which amortizes the snapshot acquire,
//      tracing, and syscalls across the batch.
// Reports all three req/s, the network/line-loop speedup (target: >= 2x),
// and the network phase's server-side p99; a "net" section lands in the
// JSON.
//
//   bench_serve_throughput [--seconds S] [--clients N] [--workers N]
//                          [--n N] [--edges M] [--seed S] [--batch-cap N]
//                          [--cluster-threads N] [--faults plan.txt]
//                          [--trace] [--delta] [--delta-n N]
//                          [--delta-edges M] [--delta-churn F]
//                          [--net] [--net-ring N] [--net-batch N]
//                          [--out file.json]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "asamap/obs/envelope.hpp"
#include "asamap/benchutil/table.hpp"
#include "asamap/dist/router.hpp"
#include "asamap/dist/shard.hpp"
#include "asamap/dyn/incremental.hpp"
#include "asamap/fault/fault.hpp"
#include "asamap/net/frame.hpp"
#include "asamap/net/server.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/argparse.hpp"
#include "asamap/support/histogram.hpp"
#include "asamap/support/rng.hpp"
#include "asamap/support/timer.hpp"

using namespace asamap;
using benchutil::fmt;

namespace {

constexpr const char* kGraph = "bench";

/// Client-side goodput ledger.  The metric registry counts errors, but
/// goodput needs OK-vs-ERR per lane *as the client saw it* — including
/// `OK STALE` degradations, which are answers, not failures.
struct ClientTotals {
  std::uint64_t reads = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t interactive = 0;  ///< CLUSTER priority=interactive
  std::uint64_t interactive_ok = 0;
  std::uint64_t batch = 0;  ///< CLUSTER priority=batch
  std::uint64_t batch_ok = 0;

  ClientTotals& operator+=(const ClientTotals& o) {
    reads += o.reads;
    reads_ok += o.reads_ok;
    interactive += o.interactive;
    interactive_ok += o.interactive_ok;
    batch += o.batch;
    batch_ok += o.batch_ok;
    return *this;
  }
  [[nodiscard]] double interactive_goodput() const {
    const std::uint64_t total = reads + interactive;
    const std::uint64_t good = reads_ok + interactive_ok;
    return total == 0 ? 1.0
                      : static_cast<double>(good) / static_cast<double>(total);
  }
};

/// Fires the mixed workload until `stop`.  Latency/per-verb counters come
/// from the session's metric registry — the same numbers a METRICS scrape
/// reports — while OK/ERR per lane is tallied client-side for goodput.
void client_loop(serve::ServeSession& session, graph::VertexId n,
                 std::uint64_t seed, const std::atomic<bool>& stop,
                 ClientTotals& totals) {
  support::Xoshiro256 rng(seed);
  const std::string name = kGraph;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t roll = rng.next_below(100);
    std::string req;
    enum { kRead, kInteractive, kBatch } lane = kRead;
    if (roll < 70) {
      req = "MEMBER " + name + " " + std::to_string(rng.next_below(n));
    } else if (roll < 85) {
      req = "SAME " + name + " " + std::to_string(rng.next_below(n)) + " " +
            std::to_string(rng.next_below(n));
    } else if (roll < 93) {
      req = "TOPK " + name + " " + std::to_string(1 + rng.next_below(16));
    } else if (roll < 98) {
      req = "SUMMARY " + name;
    } else {
      // Mixed lanes: mostly batch refreshes, occasionally an interactive
      // re-cluster that should jump the batch backlog.
      const bool interactive = rng.next_below(4) == 0;
      req = "CLUSTER " + name +
            (interactive ? " priority=interactive" : " priority=batch");
      lane = interactive ? kInteractive : kBatch;
    }

    const std::string resp = session.handle_line(req);
    const bool ok = resp.rfind("OK", 0) == 0;  // includes OK STALE
    switch (lane) {
      case kRead:
        ++totals.reads;
        totals.reads_ok += ok ? 1 : 0;
        break;
      case kInteractive:
        ++totals.interactive;
        totals.interactive_ok += ok ? 1 : 0;
        break;
      case kBatch:
        ++totals.batch;
        totals.batch_ok += ok ? 1 : 0;
        break;
    }
    if (lane != kRead) {
      // Think time after a submission: a client that just asked for a
      // refresh does not immediately ask again, so the rejection rate
      // measures queue depth against service rate, not a tight spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

/// Per-lane ledger for the --delta mixed window.
struct DeltaTotals {
  std::uint64_t reads = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t mutations = 0;
  std::uint64_t mutations_ok = 0;
  std::uint64_t applies = 0;
  std::uint64_t applies_accepted = 0;
  std::uint64_t applies_busy = 0;  ///< rejected: one already in flight

  DeltaTotals& operator+=(const DeltaTotals& o) {
    reads += o.reads;
    reads_ok += o.reads_ok;
    mutations += o.mutations;
    mutations_ok += o.mutations_ok;
    applies += o.applies;
    applies_accepted += o.applies_accepted;
    applies_busy += o.applies_busy;
    return *this;
  }
  [[nodiscard]] double goodput() const {
    // A busy-rejected APPLY is correct behavior (at most one in flight per
    // graph), so it counts as answered.
    const std::uint64_t total = reads + mutations + applies;
    const std::uint64_t good =
        reads_ok + mutations_ok + applies_accepted + applies_busy;
    return total == 0 ? 1.0
                      : static_cast<double>(good) / static_cast<double>(total);
  }
};

/// The --delta mixed workload: 90% MEMBER / 9% ADD_EDGE / 1% APPLY incr
/// (async batch — the closed loop must not stall on a recluster).
void delta_client_loop(serve::ServeSession& session, graph::VertexId n,
                       std::uint64_t seed, const std::atomic<bool>& stop,
                       DeltaTotals& totals) {
  support::Xoshiro256 rng(seed);
  const std::string name = kGraph;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 90) {
      const std::string resp =
          session.handle_line("MEMBER " + name + " " +
                              std::to_string(rng.next_below(n)));
      ++totals.reads;
      totals.reads_ok += resp.rfind("OK", 0) == 0 ? 1 : 0;
    } else if (roll < 99) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const auto v = static_cast<graph::VertexId>(rng.next_below(n));
      if (u == v) continue;
      const std::string resp = session.handle_line(
          "ADD_EDGE " + name + " " + std::to_string(u) + " " +
          std::to_string(v));
      ++totals.mutations;
      totals.mutations_ok += resp.rfind("OK", 0) == 0 ? 1 : 0;
    } else {
      const std::string resp = session.handle_line("APPLY " + name);
      ++totals.applies;
      if (resp.rfind("OK", 0) == 0) {
        ++totals.applies_accepted;
      } else if (resp.find("already in flight") != std::string::npos) {
        ++totals.applies_busy;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

/// Generates the bench graph and publishes a warm snapshot.
bool warm_up(serve::ServeSession& session, graph::VertexId n,
             std::uint64_t edges, std::uint64_t seed) {
  const auto status = session.gen_chung_lu(kGraph, n, edges, seed);
  if (!status.ok()) {
    std::cerr << "graph generation failed: " << status.message << '\n';
    return false;
  }
  const auto first = session.submit_recluster(kGraph);
  if (!first.accepted() ||
      session.scheduler().wait(first.id) != serve::JobState::kDone) {
    std::cerr << "initial clustering failed\n";
    return false;
  }
  return true;
}

/// Runs one closed-loop measurement window; returns elapsed seconds.
double run_window(serve::ServeSession& session, int clients,
                  graph::VertexId n, std::uint64_t seed, double seconds,
                  ClientTotals& totals) {
  std::atomic<bool> stop{false};
  std::vector<ClientTotals> per_client(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  support::WallTimer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(session, n, seed ^ (0x9e3779b9ULL * (c + 1)), stop,
                  per_client[static_cast<std::size_t>(c)]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed = wall.seconds();
  for (const auto& c : per_client) totals += c;
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) try {
  const support::ArgParser args(argc, argv, 1, {"help", "trace", "delta",
                                                "net", "dist", "window"});
  if (args.flag("help")) {
    std::cout << "usage: bench_serve_throughput [--seconds S] [--clients N] "
                 "[--workers N] [--n N]\n"
                 "        [--edges M] [--seed S] [--batch-cap N] "
                 "[--cluster-threads N]\n"
                 "        [--faults plan.txt] [--trace] [--window] [--delta] "
                 "[--delta-n N] [--delta-edges M]\n"
                 "        [--delta-churn F] [--net] [--net-ring N] "
                 "[--net-batch N] [--dist]\n"
                 "        [--dist-shards N] [--out f.json]\n";
    return 0;
  }
  if (const auto unknown = args.unknown_keys(
          {"seconds", "clients", "workers", "n", "edges", "seed", "batch-cap",
           "cluster-threads", "faults", "trace", "window", "delta", "delta-n",
           "delta-edges", "delta-churn", "net", "net-ring", "net-batch",
           "dist", "dist-shards", "out"});
      !unknown.empty()) {
    std::cerr << "unknown argument: --" << unknown.front() << '\n';
    return 2;
  }

  const double seconds = args.double_or("seconds", 30.0);
  const int clients = static_cast<int>(args.int_or("clients", 4));
  const int workers = static_cast<int>(args.int_or("workers", 2));
  const auto n = static_cast<graph::VertexId>(args.int_or("n", 20000));
  const auto edges = static_cast<std::uint64_t>(args.int_or("edges", 120000));
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 42));
  const std::string faults_path = args.get_or("faults", "");
  const std::string out_path = args.get_or("out", "BENCH_serve.json");

  serve::SessionConfig config;
  config.scheduler.workers = workers;
  // A deliberately small batch lane: the 2% recluster traffic must hit
  // backpressure so the rejection path is exercised and measured.
  config.scheduler.batch_capacity =
      static_cast<std::size_t>(args.int_or("batch-cap", 4));
  // One thread per clustering job: concurrency in this bench comes from
  // scheduler workers + client threads, not nested OpenMP teams.
  config.cluster_threads =
      static_cast<int>(args.int_or("cluster-threads", 1));

  benchutil::banner(std::cout, "Serving layer: closed-loop throughput");
  std::cout << "clients=" << clients << " workers=" << workers
            << " window=" << seconds << "s graph: chung_lu n=" << n
            << " edges=" << edges << " seed=" << seed << "\n\n";

  // ---- phase 1: baseline (no injection) --------------------------------
  serve::ServeSession session(config);
  if (!warm_up(session, n, edges, seed)) return 1;

  ClientTotals totals;
  const double elapsed =
      run_window(session, clients, n, seed, seconds, totals);

  // Everything below is read from the session's metric registry — the same
  // source a METRICS scrape renders.  The warm-up GEN/CLUSTER above went
  // through the typed API, so the per-verb request counters cover exactly
  // the measurement window's protocol traffic.
  const obs::MetricRegistry& reg = session.metrics();
  const std::uint64_t requests =
      reg.counter_sum("asamap_serve_requests_total");
  const std::uint64_t reclusters =
      reg.counter_total("asamap_serve_requests_total", "verb=\"CLUSTER\"");
  const std::uint64_t reads = requests - reclusters;
  const std::uint64_t rejected =
      reg.counter_sum("asamap_jobs_rejected_total");
  const std::uint64_t all_errors =
      reg.counter_total("asamap_serve_errors_total");
  // ERR responses that were not queue backpressure.
  const std::uint64_t errors = all_errors - std::min(all_errors, rejected);
  const support::LatencyHistogram latency =
      reg.histogram_merged_all("asamap_serve_request_seconds");

  const auto sched = session.scheduler().stats();
  const auto snap = session.snapshot(kGraph);
  const double rps = static_cast<double>(requests) / elapsed;
  const double reject_rate =
      reclusters == 0 ? 0.0
                      : static_cast<double>(rejected) /
                            static_cast<double>(reclusters);
  const double p50 = latency.quantile_seconds(0.50);
  const double p95 = latency.quantile_seconds(0.95);
  const double p99 = latency.quantile_seconds(0.99);

  benchutil::Table t({"Metric", "Value"});
  t.add_row({"requests", std::to_string(requests)});
  t.add_row({"requests/sec", fmt(rps, 0)});
  t.add_row({"p50 latency (us)", fmt(p50 * 1e6, 1)});
  t.add_row({"p95 latency (us)", fmt(p95 * 1e6, 1)});
  t.add_row({"p99 latency (us)", fmt(p99 * 1e6, 1)});
  t.add_row({"mean latency (us)", fmt(latency.mean_seconds() * 1e6, 1)});
  t.add_row({"recluster submits", std::to_string(reclusters)});
  t.add_row({"queue rejections", std::to_string(rejected)});
  t.add_row({"rejection rate", fmt(reject_rate, 3)});
  t.add_row({"stale serves",
             std::to_string(reg.counter_total("asamap_stale_serves_total"))});
  t.add_row({"partitions published", std::to_string(sched.completed)});
  t.add_row({"final partition version",
             std::to_string(snap ? snap->version : 0)});
  t.add_row({"protocol errors", std::to_string(errors)});
  t.print(std::cout);

  // ---- phase 2: tracer overhead (optional) -----------------------------
  // The flight recorder is ALWAYS on, so the baseline above is already the
  // traced number.  This phase reruns the identical workload on a fresh
  // session with the recorder disabled; the throughput delta is what the
  // always-on tracer costs.  Budget: 5%.
  struct TraceReport {
    bool ran = false;
    double traced_rps = 0;
    double untraced_rps = 0;
    double overhead = 0;  ///< (untraced - traced) / untraced, clamped >= 0
    obs::TraceStats stats{};
  } trace;
  constexpr double kTraceOverheadLimit = 0.05;

  if (args.flag("trace")) {
    benchutil::banner(std::cout, "Tracer overhead: always-on vs. recorder off");
    // Recorder stats as of the end of the traced window, before anything
    // else writes events.
    trace.stats = obs::FlightRecorder::instance().stats();
    obs::FlightRecorder::instance().set_enabled(false);
    {
      serve::ServeSession untraced_session(config);
      if (!warm_up(untraced_session, n, edges, seed)) {
        obs::FlightRecorder::instance().set_enabled(true);
        return 1;
      }
      ClientTotals untraced_totals;
      const double untraced_elapsed =
          run_window(untraced_session, clients, n, seed ^ 0x7ACEULL, seconds,
                     untraced_totals);
      const std::uint64_t untraced_requests =
          untraced_session.metrics().counter_sum(
              "asamap_serve_requests_total");
      trace.untraced_rps =
          static_cast<double>(untraced_requests) / untraced_elapsed;
    }
    obs::FlightRecorder::instance().set_enabled(true);
    trace.ran = true;
    trace.traced_rps = rps;
    trace.overhead =
        trace.untraced_rps <= 0.0
            ? 0.0
            : std::max(0.0, (trace.untraced_rps - trace.traced_rps) /
                                trace.untraced_rps);

    benchutil::Table tt({"Metric", "Value"});
    tt.add_row({"traced requests/sec", fmt(trace.traced_rps, 0)});
    tt.add_row({"untraced requests/sec", fmt(trace.untraced_rps, 0)});
    tt.add_row({"tracer overhead (%)", fmt(trace.overhead * 100.0, 2)});
    tt.add_row({"overhead budget (%)", fmt(kTraceOverheadLimit * 100.0, 2)});
    tt.add_row({"events recorded", std::to_string(trace.stats.recorded)});
    tt.add_row({"events dropped", std::to_string(trace.stats.dropped)});
    tt.add_row({"rings", std::to_string(trace.stats.rings)});
    tt.add_row({"ring capacity", std::to_string(trace.stats.ring_capacity)});
    tt.print(std::cout);
  }

  // ---- phase 2b: windowed-metrics overhead (optional) ------------------
  // The WindowStore is caller-clocked: recording threads never touch it,
  // only scrapes pay for snapshots.  This phase proves that claim end to
  // end — two fresh sessions run the identical closed-loop workload, the
  // second with a scraper thread rendering METRICS WINDOW + HEALTH every
  // 250ms (a denser-than-production cadence).  Budget: 2%.
  struct WindowReport {
    bool ran = false;
    double baseline_rps = 0;
    double scraped_rps = 0;
    double overhead = 0;  ///< (baseline - scraped) / baseline, clamped >= 0
    std::uint64_t scrapes = 0;
  } windowrep;
  constexpr double kWindowOverheadLimit = 0.02;

  if (args.flag("window")) {
    benchutil::banner(std::cout,
                      "Windowed metrics: scraper-on vs. scraper-off");
    {
      serve::ServeSession quiet_session(config);
      if (!warm_up(quiet_session, n, edges, seed)) return 1;
      ClientTotals quiet_totals;
      const double quiet_elapsed =
          run_window(quiet_session, clients, n, seed ^ 0x51D0ULL, seconds,
                     quiet_totals);
      windowrep.baseline_rps =
          static_cast<double>(quiet_session.metrics().counter_sum(
              "asamap_serve_requests_total")) /
          quiet_elapsed;
    }
    {
      serve::ServeSession scraped_session(config);
      if (!warm_up(scraped_session, n, edges, seed)) return 1;
      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> scrapes{0};
      std::thread scraper([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          (void)scraped_session.handle_line("METRICS WINDOW prom");
          (void)scraped_session.handle_line("HEALTH");
          scrapes.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(250));
        }
      });
      ClientTotals scraped_totals;
      const double scraped_elapsed =
          run_window(scraped_session, clients, n, seed ^ 0x51D1ULL, seconds,
                     scraped_totals);
      stop.store(true, std::memory_order_relaxed);
      scraper.join();
      windowrep.scrapes = scrapes.load();
      // The scraper's own verbs count as requests; measure the workload's.
      const std::uint64_t scraped_requests =
          scraped_session.metrics().counter_sum(
              "asamap_serve_requests_total") -
          2 * windowrep.scrapes;
      windowrep.scraped_rps =
          static_cast<double>(scraped_requests) / scraped_elapsed;
    }
    windowrep.ran = true;
    windowrep.overhead =
        windowrep.baseline_rps <= 0.0
            ? 0.0
            : std::max(0.0, (windowrep.baseline_rps - windowrep.scraped_rps) /
                                windowrep.baseline_rps);

    benchutil::Table wt({"Metric", "Value"});
    wt.add_row({"scraper-off requests/sec", fmt(windowrep.baseline_rps, 0)});
    wt.add_row({"scraper-on requests/sec", fmt(windowrep.scraped_rps, 0)});
    wt.add_row({"scrapes", std::to_string(windowrep.scrapes)});
    wt.add_row({"window overhead (%)", fmt(windowrep.overhead * 100.0, 2)});
    wt.add_row(
        {"overhead budget (%)", fmt(kWindowOverheadLimit * 100.0, 2)});
    wt.print(std::cout);
  }

  // ---- phase 3: chaos (optional) ---------------------------------------
  // A fresh session with the same config, armed with the fault plan AFTER
  // warm-up (so the bench graph ingests cleanly), plus a burst of small
  // text uploads to exercise the ingest.parse retry path.
  struct ChaosReport {
    bool ran = false;
    double elapsed = 0;
    std::uint64_t requests = 0;
    double rps = 0;
    ClientTotals totals;
    std::uint64_t injected = 0;
    std::uint64_t retries_ingest = 0;
    std::uint64_t retries_dispatch = 0;
    std::uint64_t stale = 0;
    std::uint64_t shed = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t rejected = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    std::uint64_t final_version = 0;
  } chaos;

  if (!faults_path.empty()) {
    if (!fault::kFaultInjectionEnabled) {
      std::cerr << "--faults wants a build configured with "
                   "-DASAMAP_FAULT_INJECTION=ON\n";
      return 2;
    }
    benchutil::banner(std::cout, "Chaos variant: same workload under faults");
    serve::ServeSession chaos_session(config);
    if (!warm_up(chaos_session, n, edges, seed)) return 1;
    const std::string armed =
        chaos_session.handle_line("FAULTS LOAD " + faults_path);
    if (armed.rfind("OK", 0) != 0) {
      std::cerr << "fault plan rejected: " << armed << '\n';
      return 2;
    }
    std::cout << armed << "\n\n";
    // Exercise ingest retries: small distinct uploads through put_text.
    for (int i = 0; i < 10; ++i) {
      const std::string text =
          "0 " + std::to_string(i + 1) + "\n" + std::to_string(i + 1) + " " +
          std::to_string(i + 2) + "\n";
      (void)chaos_session.load_text("tiny" + std::to_string(i), text);
    }

    chaos.ran = true;
    chaos.elapsed = run_window(chaos_session, clients, n, seed ^ 0xC4405ULL,
                               seconds, chaos.totals);
    const obs::MetricRegistry& creg = chaos_session.metrics();
    chaos.requests = creg.counter_sum("asamap_serve_requests_total");
    chaos.rps = static_cast<double>(chaos.requests) / chaos.elapsed;
    chaos.injected = creg.counter_sum("asamap_faults_injected_total");
    chaos.retries_ingest =
        creg.counter_total("asamap_retries_total", "site=\"ingest.parse\"");
    chaos.retries_dispatch = creg.counter_total("asamap_retries_total",
                                                "site=\"scheduler.dispatch\"");
    chaos.stale = creg.counter_total("asamap_stale_serves_total");
    chaos.shed = creg.counter_sum("asamap_jobs_shed_total");
    chaos.breaker_opens =
        creg.counter_total("asamap_breaker_transitions_total", "to=\"open\"");
    chaos.rejected = creg.counter_sum("asamap_jobs_rejected_total");
    const auto chaos_latency =
        creg.histogram_merged_all("asamap_serve_request_seconds");
    chaos.p50 = chaos_latency.quantile_seconds(0.50);
    chaos.p95 = chaos_latency.quantile_seconds(0.95);
    chaos.p99 = chaos_latency.quantile_seconds(0.99);
    const auto chaos_snap = chaos_session.snapshot(kGraph);
    chaos.final_version = chaos_snap ? chaos_snap->version : 0;

    benchutil::Table ct({"Metric", "Value"});
    ct.add_row({"requests", std::to_string(chaos.requests)});
    ct.add_row({"requests/sec", fmt(chaos.rps, 0)});
    ct.add_row(
        {"interactive goodput", fmt(chaos.totals.interactive_goodput(), 4)});
    ct.add_row({"faults injected", std::to_string(chaos.injected)});
    ct.add_row({"retries (ingest.parse)",
                std::to_string(chaos.retries_ingest)});
    ct.add_row({"retries (scheduler.dispatch)",
                std::to_string(chaos.retries_dispatch)});
    ct.add_row({"stale serves", std::to_string(chaos.stale)});
    ct.add_row({"jobs shed", std::to_string(chaos.shed)});
    ct.add_row({"breaker opens", std::to_string(chaos.breaker_opens)});
    ct.add_row({"queue rejections", std::to_string(chaos.rejected)});
    ct.add_row({"p99 latency (us)", fmt(chaos.p99 * 1e6, 1)});
    ct.add_row({"final partition version",
                std::to_string(chaos.final_version)});
    ct.print(std::cout);
  }

  // ---- phase 4: dynamic graphs (optional) ------------------------------
  // 4a. APPLY speedup: two identically prepared sessions (graph + initial
  //     snapshot + the same churn batch in the delta log); one pays a full
  //     recluster, the other the warm-started incremental path.
  // 4b. Mixed update/read window: 90% MEMBER / 9% ADD_EDGE / 1% APPLY incr.
  struct DeltaReport {
    bool ran = false;
    graph::VertexId n = 0;
    std::uint64_t edges = 0;
    std::size_t churn = 0;
    double full_seconds = 0, incr_seconds = 0, speedup = 0;
    double full_codelength = 0, incr_codelength = 0, codelength_gap = 0;
    bool incr_published = false;
    double elapsed = 0;
    std::uint64_t requests = 0;
    double rps = 0;
    DeltaTotals totals;
    std::uint64_t folds = 0, applies_incr = 0;
    std::uint64_t incr_published_total = 0, incr_skipped_total = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  } delta;

  if (args.flag("delta")) {
    delta.ran = true;
    delta.n = static_cast<graph::VertexId>(args.int_or("delta-n", 100000));
    delta.edges =
        static_cast<std::uint64_t>(args.int_or("delta-edges", 600000));
    const double churn_fraction = args.double_or("delta-churn", 0.001);
    benchutil::banner(std::cout, "Dynamic graphs: APPLY incr vs full");
    std::cout << "graph: chung_lu n=" << delta.n << " edges=" << delta.edges
              << " churn=" << fmt(churn_fraction * 100.0, 2) << "% of edges\n\n";

    // The same churn stream for both sessions, sampled against the shared
    // base graph: half deletions of real arcs, half fresh additions.
    serve::SessionConfig delta_config = config;
    const auto prepare = [&](serve::ServeSession& s) -> bool {
      if (!warm_up(s, delta.n, delta.edges, seed ^ 0xDE17AULL)) return false;
      const auto base = s.registry().get(kGraph);
      support::Xoshiro256 rng(seed ^ 0xC0117ULL);
      delta.churn = static_cast<std::size_t>(
          static_cast<double>(base->num_arcs() / 2) * churn_fraction);
      std::size_t applied = 0;
      while (applied < delta.churn) {
        const auto u = static_cast<graph::VertexId>(rng.next_below(delta.n));
        if (rng.next_double() < 0.5) {
          const auto nbrs = base->out_neighbors(u);
          if (nbrs.empty()) continue;
          const auto v = nbrs[rng.next_below(nbrs.size())].dst;
          if (u == v || !s.del_edge(kGraph, u, v).ok()) continue;
        } else {
          const auto v = static_cast<graph::VertexId>(rng.next_below(delta.n));
          if (u == v || !s.add_edge(kGraph, u, v).ok()) continue;
        }
        ++applied;
      }
      return true;
    };
    const auto timed_apply = [&](serve::ServeSession& s,
                                 bool incremental) -> double {
      support::WallTimer w;
      const auto sub = s.submit_apply(kGraph, incremental);
      if (!sub.accepted() ||
          s.scheduler().wait(sub.id) != serve::JobState::kDone) {
        return -1.0;
      }
      return w.seconds();
    };

    {
      serve::ServeSession full_session(delta_config);
      if (!prepare(full_session)) return 1;
      delta.full_seconds = timed_apply(full_session, false);
      if (delta.full_seconds < 0) {
        std::cerr << "full APPLY failed\n";
        return 1;
      }
      delta.full_codelength = full_session.snapshot(kGraph)->codelength;
    }
    {
      serve::ServeSession incr_session(delta_config);
      if (!prepare(incr_session)) return 1;
      const auto before = incr_session.snapshot(kGraph);
      delta.incr_seconds = timed_apply(incr_session, true);
      if (delta.incr_seconds < 0) {
        std::cerr << "incremental APPLY failed\n";
        return 1;
      }
      const auto after = incr_session.snapshot(kGraph);
      delta.incr_published = after->version != before->version;
      if (delta.incr_published) {
        delta.incr_codelength = after->codelength;
      } else {
        // Not published: the served answer is still the warm partition —
        // score that membership on the merged graph.
        delta.incr_codelength = dyn::evaluate_codelength(
            *incr_session.registry().get(kGraph), before->communities);
      }
    }
    delta.speedup = delta.incr_seconds > 0.0
                        ? delta.full_seconds / delta.incr_seconds
                        : 0.0;
    delta.codelength_gap =
        delta.full_codelength > 0.0
            ? (delta.incr_codelength - delta.full_codelength) /
                  delta.full_codelength
            : 0.0;

    benchutil::Table dt({"Metric", "Value"});
    dt.add_row({"churn records", std::to_string(delta.churn)});
    dt.add_row({"APPLY full (s)", fmt(delta.full_seconds, 3)});
    dt.add_row({"APPLY incr (s)", fmt(delta.incr_seconds, 3)});
    dt.add_row({"incremental speedup", fmt(delta.speedup, 2)});
    dt.add_row({"codelength full", fmt(delta.full_codelength, 6)});
    dt.add_row({"codelength incr", fmt(delta.incr_codelength, 6)});
    dt.add_row({"codelength gap (%)", fmt(delta.codelength_gap * 100.0, 3)});
    dt.add_row({"incr published", delta.incr_published ? "1" : "0"});
    dt.print(std::cout);

    // 4b: the mixed window, on the baseline-sized graph and config.
    benchutil::banner(std::cout,
                      "Dynamic graphs: mixed window (90/9/1 member/add/apply)");
    serve::ServeSession mixed_session(config);
    if (!warm_up(mixed_session, n, edges, seed ^ 0x313ULL)) return 1;
    std::atomic<bool> stop{false};
    std::vector<DeltaTotals> per_client(static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    support::WallTimer wall;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        delta_client_loop(mixed_session, n, seed ^ (0xD317AULL * (c + 1)),
                          stop, per_client[static_cast<std::size_t>(c)]);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : threads) th.join();
    delta.elapsed = wall.seconds();
    for (const auto& c : per_client) delta.totals += c;
    const obs::MetricRegistry& dreg = mixed_session.metrics();
    delta.requests = dreg.counter_sum("asamap_serve_requests_total");
    delta.rps = static_cast<double>(delta.requests) / delta.elapsed;
    delta.folds = dreg.counter_total("asamap_delta_compactions_total");
    delta.applies_incr =
        dreg.counter_total("asamap_delta_applies_total", "mode=\"incr\"");
    delta.incr_published_total =
        dreg.counter_total("asamap_incr_publishes_total");
    delta.incr_skipped_total = dreg.counter_total(
        "asamap_incr_skipped_total", "reason=\"no_improvement\"");
    const auto dlat = dreg.histogram_merged_all("asamap_serve_request_seconds");
    delta.p50 = dlat.quantile_seconds(0.50);
    delta.p95 = dlat.quantile_seconds(0.95);
    delta.p99 = dlat.quantile_seconds(0.99);

    benchutil::Table mt({"Metric", "Value"});
    mt.add_row({"requests", std::to_string(delta.requests)});
    mt.add_row({"requests/sec", fmt(delta.rps, 0)});
    mt.add_row({"goodput", fmt(delta.totals.goodput(), 4)});
    mt.add_row({"mutations", std::to_string(delta.totals.mutations)});
    mt.add_row({"applies accepted",
                std::to_string(delta.totals.applies_accepted)});
    mt.add_row({"applies busy-rejected",
                std::to_string(delta.totals.applies_busy)});
    mt.add_row({"threshold folds", std::to_string(delta.folds)});
    mt.add_row({"incr reclusters", std::to_string(delta.applies_incr)});
    mt.add_row({"incr published", std::to_string(delta.incr_published_total)});
    mt.add_row({"incr skipped", std::to_string(delta.incr_skipped_total)});
    mt.add_row({"p99 latency (us)", fmt(delta.p99 * 1e6, 1)});
    mt.print(std::cout);
  }

  // ---- phase 5: network transport (optional) ---------------------------
  // Same read-heavy mix through three request planes.  The baseline is the
  // line-at-a-time plane the driver's stdin mode uses (pipe in, handle_line,
  // per-response write(2) out); the direct handle_line loop bounds what any
  // plane could do; the network loop pipelines binary frames at an epoll
  // NetServer whose worker answers contiguous read runs through
  // handle_batch.  Pipelined batching must beat the line-at-a-time plane
  // by >= 2x on one core.
  struct NetReport {
    bool ran = false;
    double line_rps = 0;  ///< stdin-style line-at-a-time plane (the baseline)
    std::uint64_t line_requests = 0;
    double call_rps = 0;  ///< direct handle_line ceiling, for context
    std::uint64_t call_requests = 0;
    double net_rps = 0;
    std::uint64_t net_responses = 0;
    std::uint64_t net_errors = 0;  ///< ERR payloads seen by the client
    double speedup = 0;            ///< net_rps / line_rps
    double p50 = 0, p95 = 0, p99 = 0;
    std::uint64_t batches = 0;
    double batch_fill = 0;  ///< mean requests per worker batch
    std::uint64_t rejected = 0;
    std::size_t ring_capacity = 0;
    std::size_t max_batch = 0;
  } netrep;
  constexpr double kNetSpeedupTarget = 2.0;

  if (args.flag("net")) {
    netrep.ran = true;
    // The line-loop teardown closes a pipe's read end under a blocked
    // writer; without this the resulting SIGPIPE would kill the bench.
    std::signal(SIGPIPE, SIG_IGN);
    // One deterministic request set serves both transports: 80% MEMBER /
    // 15% SAME / 5% SUMMARY.  No TOPK — its sort cost would dominate both
    // sides equally and mask the transport difference this phase measures.
    constexpr std::size_t kMixSize = 4096;
    std::vector<std::string> mix;
    mix.reserve(kMixSize);
    {
      support::Xoshiro256 rng(seed ^ 0x4E7ULL);
      const std::string name = kGraph;
      for (std::size_t i = 0; i < kMixSize; ++i) {
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 80) {
          mix.push_back("MEMBER " + name + " " +
                        std::to_string(rng.next_below(n)));
        } else if (roll < 95) {
          mix.push_back("SAME " + name + " " +
                        std::to_string(rng.next_below(n)) + " " +
                        std::to_string(rng.next_below(n)));
        } else {
          mix.push_back("SUMMARY " + name);
        }
      }
    }

    benchutil::banner(std::cout,
                      "Network transport: in-process line-at-a-time plane");
    {
      // Faithful emulation of the driver's stdin mode: a feeder thread
      // writes newline-terminated requests into a pipe, the serving thread
      // reads them line-at-a-time, answers through handle_line, and flushes
      // each response to a second pipe with its own write(2) — the same
      // one-syscall-per-response cadence as `std::cout << resp << std::endl`
      // — which a drainer thread consumes and counts.
      serve::ServeSession ip_session(config);
      if (!warm_up(ip_session, n, edges, seed)) return 1;
      int req_pipe[2], resp_pipe[2];
      if (::pipe(req_pipe) != 0 || ::pipe(resp_pipe) != 0) {
        std::cerr << "--net: pipe failed\n";
        return 1;
      }
      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> drained{0};
      std::thread feeder([&] {
        std::string chunk;
        for (const auto& req : mix) {
          chunk += req;
          chunk += '\n';
        }
        while (!stop.load(std::memory_order_relaxed)) {
          std::size_t off = 0;
          while (off < chunk.size()) {
            const ssize_t k = ::write(req_pipe[1], chunk.data() + off,
                                      chunk.size() - off);
            if (k <= 0) return;
            off += static_cast<std::size_t>(k);
          }
        }
      });
      std::thread drainer([&] {
        char buf[65536];
        for (;;) {
          const ssize_t k = ::read(resp_pipe[0], buf, sizeof buf);
          if (k <= 0) return;
          std::uint64_t lines = 0;
          for (ssize_t i = 0; i < k; ++i) lines += buf[i] == '\n' ? 1 : 0;
          drained.fetch_add(lines, std::memory_order_relaxed);
        }
      });
      FILE* in = ::fdopen(req_pipe[0], "r");
      char* linebuf = nullptr;
      std::size_t linecap = 0;
      support::WallTimer w;
      double elapsed_line = 0;
      while (true) {
        // Clock check every 64 requests: a vDSO gettime per request would
        // be measurable against a microsecond-scale served line.
        for (int k = 0; k < 64; ++k) {
          const ssize_t got = ::getline(&linebuf, &linecap, in);
          if (got <= 0) break;
          std::string resp = ip_session.handle_line(
              std::string_view(linebuf, static_cast<std::size_t>(got) - 1));
          resp += '\n';
          (void)!::write(resp_pipe[1], resp.data(), resp.size());
        }
        if ((elapsed_line = w.seconds()) >= seconds) break;
      }
      netrep.line_requests = drained.load(std::memory_order_relaxed);
      netrep.line_rps =
          static_cast<double>(netrep.line_requests) / elapsed_line;
      stop.store(true, std::memory_order_relaxed);
      // Unblock the feeder (it may be asleep in write(2) on a full pipe —
      // closing the read end turns that into EPIPE; SIGPIPE is ignored for
      // this phase) and the drainer, then tear the pipes down.
      std::fclose(in);  // closes req_pipe[0]
      feeder.join();
      ::close(req_pipe[1]);
      ::close(resp_pipe[1]);
      drainer.join();
      ::close(resp_pipe[0]);
      ::free(linebuf);
    }

    benchutil::banner(std::cout, "Network transport: direct-call ceiling");
    {
      serve::ServeSession ip_session(config);
      if (!warm_up(ip_session, n, edges, seed)) return 1;
      support::WallTimer w;
      std::uint64_t done = 0;
      std::size_t i = 0;
      // Clock check every 256 requests: a vDSO gettime per request would
      // be measurable against a sub-microsecond MEMBER.
      while (w.seconds() < seconds) {
        for (int k = 0; k < 256; ++k) {
          (void)ip_session.handle_line(mix[i++ % kMixSize]);
        }
        done += 256;
      }
      netrep.call_requests = done;
      netrep.call_rps = static_cast<double>(done) / w.seconds();
    }

    benchutil::banner(std::cout, "Network transport: pipelined binary client");
    {
      serve::ServeSession net_session(config);
      if (!warm_up(net_session, n, edges, seed)) return 1;
      net::NetConfig nc;
      nc.port = 0;  // ephemeral
      nc.workers = 1;
      nc.ring_capacity =
          static_cast<std::size_t>(args.int_or("net-ring", 1024));
      nc.max_batch = static_cast<std::size_t>(args.int_or("net-batch", 64));
      netrep.ring_capacity = nc.ring_capacity;
      netrep.max_batch = nc.max_batch;
      net::NetServer server(net_session, nc);
      if (const auto st = server.start(); !st.ok()) {
        std::cerr << "--net: " << st.text() << '\n';
        return 1;
      }

      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server.port());
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (fd < 0 || (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                               sizeof addr) < 0 &&
                     errno != EINPROGRESS)) {
        std::cerr << "--net: connect failed: " << std::strerror(errno)
                  << '\n';
        return 1;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

      // The whole mix, binary-framed, as one wire image the writer replays.
      // frame_end[i] marks the byte just past frame i, so the writer can
      // count whole frames sent from its byte offset.
      std::string wire;
      std::vector<std::size_t> frame_end;
      frame_end.reserve(kMixSize);
      for (const auto& req : mix) {
        net::append_frame(req, wire);
        frame_end.push_back(wire.size());
      }

      // Open loop with an in-flight window, single thread: poll()
      // interleaves writing requests and draining responses.  The window
      // keeps the flood deep enough to saturate batching but below the
      // worker ring's capacity — otherwise the server spends the core
      // answering cheap rejections and the measurement flatters itself
      // (rejects are counted separately and must stay ~0).
      constexpr std::uint64_t kWindow = 16384;
      std::size_t woff = 0;    // byte offset into wire
      std::size_t frame_i = 0; // next frame boundary to cross
      std::uint64_t sent = 0;
      std::string rbuf;
      char buf[65536];
      support::WallTimer w;
      while (w.seconds() < seconds) {
        const bool can_write = sent - netrep.net_responses < kWindow;
        pollfd p{fd, static_cast<short>(can_write ? POLLIN | POLLOUT
                                                  : POLLIN),
                 0};
        if (::poll(&p, 1, 100) <= 0) continue;
        if (p.revents & POLLOUT) {
          const ssize_t k = ::send(fd, wire.data() + woff,
                                   wire.size() - woff, MSG_NOSIGNAL);
          if (k > 0) {
            woff += static_cast<std::size_t>(k);
            while (frame_i < kMixSize && frame_end[frame_i] <= woff) {
              ++frame_i;
              ++sent;
            }
            if (woff == wire.size()) {
              woff = 0;
              frame_i = 0;
            }
          }
        }
        if (p.revents & (POLLIN | POLLERR | POLLHUP)) {
          for (;;) {
            const ssize_t k = ::recv(fd, buf, sizeof buf, 0);
            if (k <= 0) break;
            rbuf.append(buf, static_cast<std::size_t>(k));
            std::size_t off = 0;
            for (;;) {
              const auto d =
                  net::decode_one(std::string_view(rbuf).substr(off));
              if (d.status == net::DecodeStatus::kNeedMore) break;
              off += d.consumed;
              ++netrep.net_responses;
              netrep.net_errors += d.payload.rfind("ERR", 0) == 0 ? 1 : 0;
            }
            rbuf.erase(0, off);
          }
          if (p.revents & (POLLERR | POLLHUP)) break;
        }
      }
      const double net_elapsed = w.seconds();
      ::close(fd);
      server.stop();
      netrep.net_rps =
          static_cast<double>(netrep.net_responses) / net_elapsed;

      const obs::MetricRegistry& nreg = net_session.metrics();
      netrep.batches = nreg.counter_total("asamap_net_batches_total");
      netrep.rejected = nreg.counter_sum("asamap_net_rejected_total");
      const std::uint64_t net_reqs =
          nreg.counter_sum("asamap_net_requests_total");
      netrep.batch_fill =
          netrep.batches == 0 ? 0.0
                              : static_cast<double>(net_reqs) /
                                    static_cast<double>(netrep.batches);
      const auto nlat =
          nreg.histogram_merged_all("asamap_serve_request_seconds");
      netrep.p50 = nlat.quantile_seconds(0.50);
      netrep.p95 = nlat.quantile_seconds(0.95);
      netrep.p99 = nlat.quantile_seconds(0.99);
    }
    netrep.speedup =
        netrep.line_rps > 0.0 ? netrep.net_rps / netrep.line_rps : 0.0;

    benchutil::Table nt({"Metric", "Value"});
    nt.add_row({"line-at-a-time req/s", fmt(netrep.line_rps, 0)});
    nt.add_row({"direct-call req/s", fmt(netrep.call_rps, 0)});
    nt.add_row({"network read req/s", fmt(netrep.net_rps, 0)});
    nt.add_row({"network speedup vs line loop", fmt(netrep.speedup, 2)});
    nt.add_row({"speedup target", fmt(kNetSpeedupTarget, 1)});
    nt.add_row({"responses", std::to_string(netrep.net_responses)});
    nt.add_row({"error responses", std::to_string(netrep.net_errors)});
    nt.add_row({"batches", std::to_string(netrep.batches)});
    nt.add_row({"mean batch fill", fmt(netrep.batch_fill, 1)});
    nt.add_row({"ring rejections", std::to_string(netrep.rejected)});
    nt.add_row({"server p50 (us)", fmt(netrep.p50 * 1e6, 2)});
    nt.add_row({"server p99 (us)", fmt(netrep.p99 * 1e6, 2)});
    nt.print(std::cout);
    if (netrep.speedup < kNetSpeedupTarget) {
      std::cerr << "WARN: network speedup " << fmt(netrep.speedup, 2)
                << "x is below the " << fmt(kNetSpeedupTarget, 1)
                << "x pipelining target\n";
    }
  }

  // ---- optional phase: the sharded tier (--dist) -------------------------
  struct DistReport {
    bool ran = false;
    std::uint32_t shards = 0;
    std::uint64_t router_requests = 0;
    double router_rps = 0;       ///< via router + real TCP to every shard
    double single_rps = 0;       ///< same mix, direct single-session calls
    double fanout_cost = 0;      ///< single_rps / router_rps
    double p50 = 0, p99 = 0;     ///< router-side request latency
    double scatter_p50 = 0, scatter_p99 = 0;
    double cluster_seconds = 0;  ///< CLUSTER mode=dist wall time
    double cluster_codelength = 0;
    double sync_codelength = 0;  ///< single-process CLUSTER sync reference
    double codelength_gap = 0;
    std::uint64_t supersteps = 0;
    std::uint64_t levels = 0;
  } distrep;

  if (args.flag("dist")) {
    distrep.ran = true;
    distrep.shards =
        static_cast<std::uint32_t>(args.int_or("dist-shards", 2));
    benchutil::banner(std::cout, "Sharded tier: router + " +
                                     std::to_string(distrep.shards) +
                                     " TCP shards vs single process");
    // The same read mix as the --net phase: 80/15/5 MEMBER/SAME/SUMMARY.
    constexpr std::size_t kMixSize = 4096;
    std::vector<std::string> mix;
    mix.reserve(kMixSize);
    {
      support::Xoshiro256 rng(seed ^ 0xD157ULL);
      for (std::size_t i = 0; i < kMixSize; ++i) {
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 80) {
          mix.push_back(std::string("MEMBER ") + kGraph + " " +
                        std::to_string(rng.next_below(n)));
        } else if (roll < 95) {
          mix.push_back(std::string("SAME ") + kGraph + " " +
                        std::to_string(rng.next_below(n)) + " " +
                        std::to_string(rng.next_below(n)));
        } else {
          mix.push_back(std::string("SUMMARY ") + kGraph);
        }
      }
    }

    std::vector<std::unique_ptr<serve::ServeSession>> shard_sessions;
    std::vector<std::unique_ptr<dist::ShardSession>> shard_wrappers;
    std::vector<std::unique_ptr<net::NetServer>> shard_servers;
    dist::RouterConfig rc;
    bool shards_ok = true;
    for (std::uint32_t i = 0; i < distrep.shards; ++i) {
      shard_sessions.push_back(
          std::make_unique<serve::ServeSession>(config));
      shard_wrappers.push_back(std::make_unique<dist::ShardSession>(
          *shard_sessions.back(), dist::ShardConfig{i, distrep.shards}));
      net::NetConfig nc;
      nc.workers = 1;
      shard_servers.push_back(
          std::make_unique<net::NetServer>(*shard_wrappers.back(), nc));
      if (const auto st = shard_servers.back()->start(); !st.ok()) {
        std::cerr << "--dist: shard " << i << ": " << st.text() << '\n';
        shards_ok = false;
        break;
      }
      net::ClientConfig ep;
      ep.port = shard_servers.back()->port();
      rc.shards.push_back(ep);
    }
    if (!shards_ok) return 1;
    dist::Router router(rc);
    if (router.connect() != distrep.shards) {
      std::cerr << "--dist: not every shard connected\n";
      return 1;
    }
    // Replicated warm-up through the router, then the distributed
    // clustering protocol, timed against the single-process reference.
    const std::string gen_line = std::string("GEN ") + kGraph + " " +
                                 std::to_string(n) + " " +
                                 std::to_string(edges) + " " +
                                 std::to_string(seed);
    if (router.handle_line(gen_line).rfind("OK", 0) != 0) {
      std::cerr << "--dist: replicated GEN failed\n";
      return 1;
    }
    {
      support::WallTimer w;
      const std::string resp =
          router.handle_line(std::string("CLUSTER ") + kGraph +
                             " mode=dist");
      distrep.cluster_seconds = w.seconds();
      const auto field = [&resp](const char* key) -> double {
        const std::string pat = std::string(" ") + key + "=";
        const auto at = resp.find(pat);
        return at == std::string::npos
                   ? 0.0
                   : std::strtod(resp.c_str() + at + pat.size(), nullptr);
      };
      if (resp.rfind("OK mode=dist state=done", 0) != 0) {
        std::cerr << "--dist: CLUSTER mode=dist failed: " << resp << '\n';
        return 1;
      }
      distrep.cluster_codelength = field("codelength");
      distrep.supersteps = static_cast<std::uint64_t>(field("supersteps"));
      distrep.levels = static_cast<std::uint64_t>(field("levels"));
    }
    {
      serve::ServeSession single(config);
      if (!warm_up(single, n, edges, seed)) return 1;
      // handle_line SUMMARY reports at %.6g; read the snapshot directly
      // for a full-precision reference.
      const auto snap_ref = single.store().snapshot(kGraph);
      distrep.sync_codelength = snap_ref ? snap_ref->codelength : 0.0;
      distrep.codelength_gap =
          distrep.sync_codelength == 0.0
              ? 0.0
              : (distrep.cluster_codelength - distrep.sync_codelength) /
                    distrep.sync_codelength;
      // Single-process ceiling on the same mix.
      support::WallTimer w;
      std::uint64_t done = 0;
      std::size_t i = 0;
      while (w.seconds() < seconds) {
        for (int k = 0; k < 256; ++k) {
          (void)single.handle_line(mix[i++ % kMixSize]);
        }
        done += 256;
      }
      distrep.single_rps = static_cast<double>(done) / w.seconds();
    }
    {
      // Closed loop through the router: every read crosses real TCP to at
      // least one shard (scatters cross all of them).
      support::WallTimer w;
      std::uint64_t done = 0;
      std::size_t i = 0;
      double elapsed = 0;
      while ((elapsed = w.seconds()) < seconds) {
        for (int k = 0; k < 64; ++k) {
          (void)router.handle_line(mix[i++ % kMixSize]);
        }
        done += 64;
      }
      distrep.router_requests = done;
      distrep.router_rps = static_cast<double>(done) / elapsed;
    }
    distrep.fanout_cost = distrep.router_rps > 0.0
                              ? distrep.single_rps / distrep.router_rps
                              : 0.0;
    const obs::MetricRegistry& rreg = router.metrics();
    const auto rlat =
        rreg.histogram_merged_all("asamap_router_request_seconds");
    distrep.p50 = rlat.quantile_seconds(0.50);
    distrep.p99 = rlat.quantile_seconds(0.99);
    const auto slat =
        rreg.histogram_merged_all("asamap_router_scatter_seconds");
    distrep.scatter_p50 = slat.quantile_seconds(0.50);
    distrep.scatter_p99 = slat.quantile_seconds(0.99);

    benchutil::Table dt({"Metric", "Value"});
    dt.add_row({"shards", std::to_string(distrep.shards)});
    dt.add_row({"router read req/s", fmt(distrep.router_rps, 0)});
    dt.add_row({"single-process req/s", fmt(distrep.single_rps, 0)});
    dt.add_row({"fan-out cost (single/router)",
                fmt(distrep.fanout_cost, 2)});
    dt.add_row({"router p50 (us)", fmt(distrep.p50 * 1e6, 2)});
    dt.add_row({"router p99 (us)", fmt(distrep.p99 * 1e6, 2)});
    dt.add_row({"scatter p99 (us)", fmt(distrep.scatter_p99 * 1e6, 2)});
    dt.add_row({"dist cluster seconds", fmt(distrep.cluster_seconds, 3)});
    dt.add_row({"dist codelength", fmt(distrep.cluster_codelength, 6)});
    dt.add_row({"sync codelength", fmt(distrep.sync_codelength, 6)});
    dt.add_row({"codelength gap", fmt(distrep.codelength_gap, 6)});
    dt.add_row({"supersteps", std::to_string(distrep.supersteps)});
    dt.print(std::cout);
    for (auto& s : shard_servers) s->stop();
  }

  std::ofstream js(out_path);
  js.precision(9);
  js << "{\n";
  obs::write_envelope_fields(js,
                                   obs::make_envelope("serve_throughput"));
  js << "  \"config\": {\"clients\": " << clients << ", \"workers\": "
     << workers << ", \"window_seconds\": " << seconds
     << ", \"batch_capacity\": " << config.scheduler.batch_capacity
     << ", \"cluster_threads\": " << config.cluster_threads << ",\n"
     << "             \"graph\": {\"generator\": \"chung_lu\", \"n\": " << n
     << ", \"edges\": " << edges << ", \"seed\": " << seed << "}},\n"
     << "  \"requests\": " << requests << ",\n"
     << "  \"requests_per_second\": " << rps << ",\n"
     << "  \"latency_seconds\": {\"p50\": " << p50 << ", \"p95\": " << p95
     << ", \"p99\": " << p99 << ", \"mean\": " << latency.mean_seconds()
     << ", \"max\": " << latency.max_seconds() << "},\n"
     << "  \"reads\": " << reads << ",\n"
     << "  \"recluster_submits\": " << reclusters << ",\n"
     << "  \"queue_rejections\": " << rejected << ",\n"
     << "  \"rejection_rate\": " << reject_rate << ",\n"
     << "  \"interactive_goodput\": " << totals.interactive_goodput() << ",\n"
     << "  \"protocol_errors\": " << errors << ",\n"
     << "  \"scheduler\": {\"submitted\": " << sched.submitted
     << ", \"completed\": " << sched.completed << ", \"cancelled\": "
     << sched.cancelled << ", \"expired\": " << sched.expired
     << ", \"failed\": " << sched.failed << "},\n"
     << "  \"final_partition_version\": " << (snap ? snap->version : 0)
     << ",\n";
  if (trace.ran) {
    js << "  \"trace\": {\n"
       << "    \"traced_rps\": " << trace.traced_rps << ",\n"
       << "    \"untraced_rps\": " << trace.untraced_rps << ",\n"
       << "    \"overhead_fraction\": " << trace.overhead << ",\n"
       << "    \"overhead_limit\": " << kTraceOverheadLimit << ",\n"
       << "    \"recorder\": {\"recorded\": " << trace.stats.recorded
       << ", \"dropped\": " << trace.stats.dropped
       << ", \"dropped_fraction\": " << trace.stats.dropped_fraction
       << ", \"rings\": " << trace.stats.rings
       << ", \"ring_capacity\": " << trace.stats.ring_capacity << "}\n"
       << "  },\n";
  }
  if (windowrep.ran) {
    js << "  \"window\": {\n"
       << "    \"baseline_rps\": " << windowrep.baseline_rps << ",\n"
       << "    \"scraped_rps\": " << windowrep.scraped_rps << ",\n"
       << "    \"overhead_fraction\": " << windowrep.overhead << ",\n"
       << "    \"overhead_limit\": " << kWindowOverheadLimit << ",\n"
       << "    \"scrapes\": " << windowrep.scrapes << "\n"
       << "  },\n";
  }
  if (chaos.ran) {
    js << "  \"chaos\": {\n"
       << "    \"plan\": \"" << faults_path << "\",\n"
       << "    \"requests\": " << chaos.requests << ",\n"
       << "    \"requests_per_second\": " << chaos.rps << ",\n"
       << "    \"interactive_goodput\": "
       << chaos.totals.interactive_goodput() << ",\n"
       << "    \"reads\": " << chaos.totals.reads << ",\n"
       << "    \"reads_ok\": " << chaos.totals.reads_ok << ",\n"
       << "    \"interactive_clusters\": " << chaos.totals.interactive
       << ",\n"
       << "    \"interactive_clusters_ok\": " << chaos.totals.interactive_ok
       << ",\n"
       << "    \"faults_injected\": " << chaos.injected << ",\n"
       << "    \"retries\": {\"ingest_parse\": " << chaos.retries_ingest
       << ", \"scheduler_dispatch\": " << chaos.retries_dispatch << "},\n"
       << "    \"stale_serves\": " << chaos.stale << ",\n"
       << "    \"jobs_shed\": " << chaos.shed << ",\n"
       << "    \"breaker_opens\": " << chaos.breaker_opens << ",\n"
       << "    \"queue_rejections\": " << chaos.rejected << ",\n"
       << "    \"latency_seconds\": {\"p50\": " << chaos.p50
       << ", \"p95\": " << chaos.p95 << ", \"p99\": " << chaos.p99 << "},\n"
       << "    \"final_partition_version\": " << chaos.final_version << "\n"
       << "  },\n";
  }
  if (delta.ran) {
    js << "  \"delta\": {\n"
       << "    \"speedup\": {\n"
       << "      \"graph\": {\"generator\": \"chung_lu\", \"n\": " << delta.n
       << ", \"edges\": " << delta.edges << "},\n"
       << "      \"churn_records\": " << delta.churn << ",\n"
       << "      \"apply_full_seconds\": " << delta.full_seconds << ",\n"
       << "      \"apply_incr_seconds\": " << delta.incr_seconds << ",\n"
       << "      \"incremental_speedup\": " << delta.speedup << ",\n"
       << "      \"codelength_full\": " << delta.full_codelength << ",\n"
       << "      \"codelength_incr\": " << delta.incr_codelength << ",\n"
       << "      \"codelength_gap_fraction\": " << delta.codelength_gap
       << ",\n"
       << "      \"incr_published\": " << (delta.incr_published ? 1 : 0)
       << "\n    },\n"
       << "    \"mixed\": {\n"
       << "      \"requests\": " << delta.requests << ",\n"
       << "      \"requests_per_second\": " << delta.rps << ",\n"
       << "      \"goodput\": " << delta.totals.goodput() << ",\n"
       << "      \"reads\": " << delta.totals.reads << ",\n"
       << "      \"mutations\": " << delta.totals.mutations << ",\n"
       << "      \"applies\": " << delta.totals.applies << ",\n"
       << "      \"applies_accepted\": " << delta.totals.applies_accepted
       << ",\n"
       << "      \"applies_busy_rejected\": " << delta.totals.applies_busy
       << ",\n"
       << "      \"threshold_folds\": " << delta.folds << ",\n"
       << "      \"incr_reclusters\": " << delta.applies_incr << ",\n"
       << "      \"incr_published\": " << delta.incr_published_total << ",\n"
       << "      \"incr_skipped\": " << delta.incr_skipped_total << ",\n"
       << "      \"latency_seconds\": {\"p50\": " << delta.p50
       << ", \"p95\": " << delta.p95 << ", \"p99\": " << delta.p99 << "}\n"
       << "    }\n  },\n";
  }
  if (netrep.ran) {
    js << "  \"net\": {\n"
       << "    \"config\": {\"net_workers\": 1, \"ring_capacity\": "
       << netrep.ring_capacity << ", \"max_batch\": " << netrep.max_batch
       << ",\n"
       << "               \"mix\": {\"member\": 0.80, \"same\": 0.15, "
          "\"summary\": 0.05}},\n"
       << "    \"inprocess_line_rps\": " << netrep.line_rps << ",\n"
       << "    \"inprocess_line_requests\": " << netrep.line_requests
       << ",\n"
       << "    \"inprocess_call_rps\": " << netrep.call_rps << ",\n"
       << "    \"network_read_rps\": " << netrep.net_rps << ",\n"
       << "    \"network_responses\": " << netrep.net_responses << ",\n"
       << "    \"network_error_responses\": " << netrep.net_errors << ",\n"
       << "    \"speedup_vs_inprocess\": " << netrep.speedup << ",\n"
       << "    \"speedup_target\": " << kNetSpeedupTarget << ",\n"
       << "    \"batches\": " << netrep.batches << ",\n"
       << "    \"mean_batch_fill\": " << netrep.batch_fill << ",\n"
       << "    \"ring_rejections\": " << netrep.rejected << ",\n"
       << "    \"latency_seconds\": {\"p50\": " << netrep.p50
       << ", \"p95\": " << netrep.p95 << ", \"p99\": " << netrep.p99
       << "}\n  },\n";
  }
  if (distrep.ran) {
    js << "  \"dist\": {\n"
       << "    \"config\": {\"shards\": " << distrep.shards
       << ", \"net_workers\": 1,\n"
       << "               \"mix\": {\"member\": 0.80, \"same\": 0.15, "
          "\"summary\": 0.05}},\n"
       << "    \"router_read_rps\": " << distrep.router_rps << ",\n"
       << "    \"router_requests\": " << distrep.router_requests << ",\n"
       << "    \"single_process_rps\": " << distrep.single_rps << ",\n"
       << "    \"fanout_cost\": " << distrep.fanout_cost << ",\n"
       << "    \"latency_seconds\": {\"p50\": " << distrep.p50
       << ", \"p99\": " << distrep.p99 << "},\n"
       << "    \"scatter_seconds\": {\"p50\": " << distrep.scatter_p50
       << ", \"p99\": " << distrep.scatter_p99 << "},\n"
       << "    \"dist_cluster\": {\"seconds\": " << distrep.cluster_seconds
       << ", \"codelength\": " << distrep.cluster_codelength
       << ", \"sync_codelength\": " << distrep.sync_codelength
       << ",\n                     \"codelength_gap_fraction\": "
       << distrep.codelength_gap << ", \"supersteps\": "
       << distrep.supersteps << ", \"levels\": " << distrep.levels
       << "}\n  },\n";
  }
  js << "  \"metrics\": ";
  session.metrics().write_json(js, "  ");
  js << "\n}\n";
  std::cout << "\nWrote " << out_path << '\n';
  if (trace.ran && trace.overhead > kTraceOverheadLimit) {
    std::cerr << "FAIL: tracer overhead " << fmt(trace.overhead * 100.0, 2)
              << "% exceeds the " << fmt(kTraceOverheadLimit * 100.0, 0)
              << "% budget\n";
    return 1;
  }
  if (windowrep.ran && windowrep.overhead > kWindowOverheadLimit) {
    std::cerr << "FAIL: windowed-metrics overhead "
              << fmt(windowrep.overhead * 100.0, 2) << "% exceeds the "
              << fmt(kWindowOverheadLimit * 100.0, 0) << "% budget\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
