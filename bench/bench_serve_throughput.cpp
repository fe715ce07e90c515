// Serving-layer benchmark, built as phases of the benchutil harness: each
// phase writes every metric once into a Section, which prints it on the
// console and lands it in BENCH_serve.json.  The baseline always runs:
// closed-loop clients fire a mixed workload at one ServeSession through
// handle_line.  Each flag adds a phase:
//   --trace   tracer overhead (recorder on vs. off), gate 5%
//   --window  windowed-metrics overhead (scraper off vs. on), gate 2%
//   --faults  the baseline under a fault plan (a fault-injection build)
//   --delta   APPLY full vs. incr, and a mutation-heavy closed loop
//   --net     one read mix through the line plane, direct calls and a
//             pipelined NetServer client (target: 2x the line plane)
//   --dist    the read mix through a Router over TCP shards, and
//             CLUSTER mode=dist against sync
// A gate's two sides alternate on one warmed session in windows of
// --seconds / kGateReps and keep their best; the closed loop is
// sleep-bound, so an overhead smaller than the noise floor hides in it.
//
//   bench_serve_throughput [--seconds S] [--clients N] [--n N] [--edges M]
//                          [--seed S] [--faults plan.txt] [--trace]
//                          [--window] [--delta] [--delta-n N]
//                          [--delta-edges M] [--net] [--dist]
//                          [--out file.json]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asamap/benchutil/harness.hpp"
#include "asamap/benchutil/table.hpp"
#include "asamap/dist/router.hpp"
#include "asamap/dist/shard.hpp"
#include "asamap/dyn/incremental.hpp"
#include "asamap/fault/fault.hpp"
#include "asamap/net/frame.hpp"
#include "asamap/net/server.hpp"
#include "asamap/obs/envelope.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/argparse.hpp"
#include "asamap/support/rng.hpp"
#include "asamap/support/timer.hpp"

using namespace asamap;
using benchutil::Section;

namespace {

constexpr const char* kGraph = "bench";
// Fixed knobs.  The batch lane is deliberately small so the 2% recluster
// traffic hits backpressure; one thread per clustering job keeps the
// concurrency in scheduler workers and clients, not nested OpenMP teams.
constexpr int kWorkers = 2;
constexpr std::size_t kBatchCapacity = 4;
constexpr int kClusterThreads = 1;
constexpr std::size_t kNetRing = 1024;
constexpr std::size_t kNetBatch = 64;
constexpr std::uint32_t kDistShards = 2;
constexpr double kDeltaChurn = 0.001;  ///< fraction of the edges churned
constexpr int kGateReps = 5;
constexpr double kTraceOverheadLimit = 0.05;
constexpr double kWindowOverheadLimit = 0.02;
constexpr double kNetSpeedupTarget = 2.0;
constexpr std::size_t kMixSize = 4096;

struct Options {
  double seconds;
  int clients;
  graph::VertexId n;
  std::uint64_t edges, seed;
  serve::SessionConfig config;
};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

bool ok(std::string_view resp) { return resp.rfind("OK", 0) == 0; }

/// A session holding the bench graph, with a warm snapshot published.
struct WarmSession : serve::ServeSession {
  WarmSession(const Options& o, graph::VertexId n, std::uint64_t edges,
              std::uint64_t seed)
      : serve::ServeSession(o.config) {
    if (const auto st = gen_chung_lu(kGraph, n, edges, seed); !st.ok()) {
      fail("graph generation failed: " + st.message);
    }
    const auto first = submit_recluster(kGraph);
    if (!first.accepted() ||
        scheduler().wait(first.id) != serve::JobState::kDone) {
      fail("initial clustering failed");
    }
  }
};

void put_quantiles(Section& s, const obs::MetricRegistry& reg,
                   const char* metric, std::initializer_list<int> percents) {
  const auto h = reg.histogram_merged_all(metric);
  for (const int p : percents) {
    std::string key = "p";
    key += std::to_string(p);
    s.put(key, h.quantile_seconds(p / 100.0));
  }
}

/// Per-lane tally as the client saw it: goodput counts `OK STALE`
/// degradations as answers, which the registry's error counters cannot.
enum Lane { kRead, kInteractive, kBatch, kMutation, kApply, kLanes };
struct Ledger {
  std::array<std::uint64_t, kLanes> sent{}, ok{};
  std::uint64_t busy = 0;  ///< APPLY refused: one already in flight
  double seconds = 0.0;

  /// Answered over sent on `lanes`; a busy APPLY is correct behavior.
  /// Walks the lane indices rather than the list, so every subscript is
  /// visibly in bounds.
  [[nodiscard]] double goodput(std::initializer_list<Lane> lanes) const {
    std::uint64_t good = 0, all = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (std::find(lanes.begin(), lanes.end(), l) == lanes.end()) continue;
      good += ok[l] + (l == kApply ? busy : 0);
      all += sent[l];
    }
    return all == 0 ? 1.0 : static_cast<double>(good) / all;
  }
};

struct Request {
  Lane lane;
  std::string line;  ///< empty: skip this draw
};
using Workload = Request (*)(support::Xoshiro256&, graph::VertexId);

std::string vertex(support::Xoshiro256& rng, graph::VertexId n) {
  std::string out = " ";
  out += std::to_string(rng.next_below(n));
  return out;
}

Request serve_mix(support::Xoshiro256& rng, graph::VertexId n) {
  const std::string g = kGraph;
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 70) return {kRead, "MEMBER " + g + vertex(rng, n)};
  if (roll < 85) return {kRead, "SAME " + g + vertex(rng, n) + vertex(rng, n)};
  if (roll < 93) {
    return {kRead, "TOPK " + g + " " + std::to_string(1 + rng.next_below(16))};
  }
  if (roll < 98) return {kRead, "SUMMARY " + g};
  if (rng.next_below(4) == 0) {
    return {kInteractive, "CLUSTER " + g + " priority=interactive"};
  }
  return {kBatch, "CLUSTER " + g + " priority=batch"};
}

Request delta_mix(support::Xoshiro256& rng, graph::VertexId n) {
  const std::string g = kGraph;
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 90) return {kRead, "MEMBER " + g + vertex(rng, n)};
  if (roll == 99) return {kApply, "APPLY " + g};
  const std::string u = vertex(rng, n), v = vertex(rng, n);
  return {kMutation, u == v ? "" : "ADD_EDGE " + g + u + v};
}

/// `clients` threads, each sending its next request after the last answer.
/// A submission (CLUSTER, APPLY) is followed by 5 ms think time, so the
/// rejection rate measures queue depth against service rate.
Ledger closed_loop(serve::ServeSession& s, const Options& o, double seconds,
                   std::uint64_t seed, Workload mix) {
  std::atomic<bool> stop{false};
  std::vector<Ledger> per(static_cast<std::size_t>(o.clients));
  std::vector<std::thread> threads;
  support::WallTimer wall;
  for (int c = 0; c < o.clients; ++c) {
    threads.emplace_back([&, c] {
      support::Xoshiro256 rng(seed ^ (0x9e3779b9ULL * (c + 1)));
      Ledger& l = per[static_cast<std::size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const Request r = mix(rng, o.n);
        if (r.line.empty()) continue;
        const std::string resp = s.handle_line(r.line);
        ++l.sent[r.lane];
        l.ok[r.lane] += ok(resp) ? 1 : 0;
        l.busy += resp.find("already in flight") != std::string::npos;
        if (r.lane == kInteractive || r.lane == kBatch || r.lane == kApply) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  Ledger sum;
  sum.seconds = wall.seconds();
  for (const Ledger& l : per) {
    for (int i = 0; i < kLanes; ++i) sum.sent[i] += l.sent[i];
    for (int i = 0; i < kLanes; ++i) sum.ok[i] += l.ok[i];
    sum.busy += l.busy;
  }
  return sum;
}

/// A --seconds closed loop; writes the registry's request count and rate.
Ledger measured_loop(Section& s, serve::ServeSession& session,
                     const Options& o, std::uint64_t seed, Workload mix) {
  const Ledger l = closed_loop(session, o, o.seconds, seed, mix);
  const std::uint64_t requests =
      session.metrics().counter_sum("asamap_serve_requests_total");
  s.put("requests", requests)
      .put("requests_per_second", static_cast<double>(requests) / l.seconds);
  return l;
}

/// Seconds per request over one gate window: an interleave cost sample.
/// Every window replays the same request sequences, so the sides of a gate
/// differ in what runs beside the clients, not in the draw.
double window_cost(serve::ServeSession& s, const Options& o) {
  const Ledger l = closed_loop(s, o, o.seconds / kGateReps, o.seed, serve_mix);
  const auto n = std::accumulate(l.sent.begin(), l.sent.end(), 1ULL);
  return l.seconds / static_cast<double>(n);
}

/// Writes the signed overhead of `side` over the other side, and fails the
/// run above `limit`.
void put_gate(Section& s, const benchutil::Interleaved& r, std::size_t side,
              double limit, const char* what,
              std::vector<std::string>& fails) {
  const double overhead = r.overhead(side, 1 - side);
  s.put("overhead_fraction", overhead)
      .put("overhead_limit", limit)
      .put("noise_floor", r.noise_floor);
  if (overhead > limit) {
    fails.push_back(std::string(what) + " overhead " +
                    benchutil::fmt_pct(overhead, 2) + " exceeds the " +
                    benchutil::fmt_pct(limit, 0) + " budget");
  }
}

/// The read mix of --net and --dist, described into `config`.  No TOPK:
/// its sort would dominate every plane alike and mask the transport cost
/// these phases measure.
std::vector<std::string> read_mix(const Options& o, Section& config) {
  Section& shares = config.child("mix");
  shares.put("member", 0.80).put("same", 0.15).put("summary", 0.05);
  std::vector<std::string> mix;
  support::Xoshiro256 rng(o.seed ^ 0x4E7ULL);
  const std::string g = kGraph;
  while (mix.size() < kMixSize) {
    const std::uint64_t roll = rng.next_below(100);
    const std::string u = vertex(rng, o.n);
    mix.push_back(roll < 80   ? "MEMBER " + g + u
                  : roll < 95 ? "SAME " + g + u + vertex(rng, o.n)
                              : "SUMMARY " + g);
  }
  return mix;
}

/// Direct handle_line calls over `mix`, the clock read every 64 requests
/// (per request it would show against a sub-microsecond MEMBER).
double direct_rps(serve::RequestHandler& h,
                  const std::vector<std::string>& mix, double seconds,
                  std::uint64_t* requests = nullptr) {
  support::WallTimer w;
  std::uint64_t done = 0;
  double elapsed = 0.0;
  while ((elapsed = w.seconds()) < seconds) {
    for (int k = 0; k < 64; ++k) (void)h.handle_line(mix[done++ % kMixSize]);
  }
  if (requests != nullptr) *requests = done;
  return static_cast<double>(done) / elapsed;
}

/// The stdin driver's plane: a feeder writes the mix into a pipe; this
/// thread answers line by line through handle_line and writes each answer
/// with its own write(2) (the driver's `std::endl` cadence) into a second
/// pipe, whose lines a drainer counts.
double line_plane_rps(serve::ServeSession& s,
                      const std::vector<std::string>& mix, double seconds,
                      std::uint64_t& requests) {
  int req[2], resp[2];
  if (::pipe(req) != 0 || ::pipe(resp) != 0) fail("--net: pipe failed");
  std::string chunk;
  for (const auto& r : mix) chunk += r + '\n';
  std::atomic<std::uint64_t> drained{0};
  std::thread feeder([&] {
    for (std::size_t off = 0;;) {
      const ssize_t k = ::write(req[1], chunk.data() + off, chunk.size() - off);
      if (k <= 0) return;
      off = (off + static_cast<std::size_t>(k)) % chunk.size();
    }
  });
  std::thread drainer([&] {
    char buf[65536];
    for (ssize_t k; (k = ::read(resp[0], buf, sizeof buf)) > 0;) {
      drained += static_cast<std::uint64_t>(std::count(buf, buf + k, '\n'));
    }
  });
  FILE* in = ::fdopen(req[0], "r");
  char* line = nullptr;
  std::size_t cap = 0;
  support::WallTimer w;
  double elapsed = 0.0;
  while ((elapsed = w.seconds()) < seconds) {
    for (int k = 0; k < 64; ++k) {  // the clock read every 64 requests
      const ssize_t got = ::getline(&line, &cap, in);
      if (got <= 0) break;
      const std::string out =
          s.handle_line(std::string_view(line, got - 1)) + '\n';
      (void)!::write(resp[1], out.data(), out.size());
    }
  }
  requests = drained.load();
  // Closing the read end turns a feeder blocked on a full pipe into EPIPE
  // (SIGPIPE is ignored), then the drainer reads EOF.
  std::fclose(in);
  feeder.join();
  ::close(req[1]);
  ::close(resp[1]);
  drainer.join();
  ::close(resp[0]);
  ::free(line);
  return static_cast<double>(requests) / elapsed;
}

/// Open loop over one TCP connection: the binary-framed mix streams with at
/// most kInFlight unanswered, enough to saturate batching yet below the
/// worker ring's capacity, so the server does not spend the core on cheap
/// rejections (counted, and expected to stay ~0).
double pipelined_rps(std::uint16_t port, const std::vector<std::string>& mix,
                     double seconds, std::uint64_t& responses,
                     std::uint64_t& errors) {
  constexpr std::uint64_t kInFlight = 16384;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 || (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) < 0 &&
                 errno != EINPROGRESS)) {
    fail(std::string("--net: connect failed: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // The mix as one wire image; frame_end[i] is the byte past frame i, so
  // the sender counts the whole frames behind its byte offset.
  std::string wire, rbuf;
  std::vector<std::size_t> frame_end;
  for (const auto& r : mix) {
    net::append_frame(r, wire);
    frame_end.push_back(wire.size());
  }
  std::size_t woff = 0, frame = 0;
  std::uint64_t sent = 0;
  char buf[65536];
  support::WallTimer w;
  while (w.seconds() < seconds) {
    const short events = sent - responses < kInFlight ? POLLIN | POLLOUT
                                                      : POLLIN;
    pollfd p{fd, events, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    if (p.revents & POLLOUT) {
      const ssize_t k = ::send(fd, wire.data() + woff, wire.size() - woff,
                               MSG_NOSIGNAL);
      woff += k > 0 ? static_cast<std::size_t>(k) : 0;
      for (; frame < kMixSize && frame_end[frame] <= woff; ++frame) ++sent;
      if (woff == wire.size()) woff = frame = 0;
    }
    if (p.revents & (POLLIN | POLLERR | POLLHUP)) {
      for (ssize_t k; (k = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
        rbuf.append(buf, static_cast<std::size_t>(k));
        std::size_t off = 0;
        for (net::Decoded d;
             (d = net::decode_one(std::string_view(rbuf).substr(off)))
                 .consumed > 0;
             off += d.consumed) {
          ++responses;
          errors += d.payload.rfind("ERR", 0) == 0 ? 1 : 0;
        }
        rbuf.erase(0, off);
      }
      if (p.revents & (POLLERR | POLLHUP)) break;
    }
  }
  const double elapsed = w.seconds();
  ::close(fd);
  return static_cast<double>(responses) / elapsed;
}

void baseline(Section& s, const Options& o) {
  WarmSession session(o, o.n, o.edges, o.seed);
  const Ledger l = measured_loop(s, session, o, o.seed, serve_mix);
  // Read from the registry a METRICS scrape renders.  The warm-up used the
  // typed API, so the per-verb counters hold exactly this window.
  const obs::MetricRegistry& reg = session.metrics();
  const std::uint64_t requests = reg.counter_sum("asamap_serve_requests_total");
  const std::uint64_t reclusters =
      reg.counter_total("asamap_serve_requests_total", "verb=\"CLUSTER\"");
  const std::uint64_t rejected = reg.counter_sum("asamap_jobs_rejected_total");
  const std::uint64_t errors = reg.counter_total("asamap_serve_errors_total");
  const auto latency = reg.histogram_merged_all("asamap_serve_request_seconds");
  Section& lat = s.child("latency_seconds");
  put_quantiles(lat, reg, "asamap_serve_request_seconds", {50, 95, 99});
  lat.put("mean", latency.mean_seconds()).put("max", latency.max_seconds());
  s.put("reads", requests - reclusters)
      .put("recluster_submits", reclusters)
      .put("queue_rejections", rejected)
      .put("rejection_rate",
           reclusters == 0 ? 0.0 : static_cast<double>(rejected) / reclusters)
      .put("interactive_goodput", l.goodput({kRead, kInteractive}))
      // ERR responses that were not queue backpressure.
      .put("protocol_errors", errors - std::min(errors, rejected));
  const auto sched = session.scheduler().stats();
  s.child("scheduler")
      .put("submitted", sched.submitted)
      .put("completed", sched.completed)
      .put("cancelled", sched.cancelled)
      .put("expired", sched.expired)
      .put("failed", sched.failed);
  const auto snap = session.snapshot(kGraph);
  s.put("final_partition_version", snap ? snap->version : 0);
  std::ostringstream metrics;
  session.metrics().write_json(metrics, "  ");
  s.raw("metrics", metrics.str());
}

/// The flight recorder is always on, so the baseline is the traced number;
/// recorder-on and recorder-off windows alternate on one session.
void trace_gate(Section& s, const Options& o,
                std::vector<std::string>& fails) {
  auto& recorder = obs::FlightRecorder::instance();
  const obs::TraceStats stats = recorder.stats();  // as of the baseline
  WarmSession session(o, o.n, o.edges, o.seed);
  const auto side = [&](bool on) {
    return [&, on] {
      recorder.set_enabled(on);
      return window_cost(session, o);
    };
  };
  const auto r = benchutil::interleave(kGateReps, {side(true), side(false)});
  recorder.set_enabled(true);
  s.put("traced_rps", 1.0 / r.best[0]).put("untraced_rps", 1.0 / r.best[1]);
  put_gate(s, r, 0, kTraceOverheadLimit, "tracer", fails);
  s.child("recorder")
      .put("recorded", stats.recorded)
      .put("dropped", stats.dropped)
      .put("dropped_fraction", stats.dropped_fraction)
      .put("rings", stats.rings)
      .put("ring_capacity", stats.ring_capacity);
}

/// The WindowStore is caller-clocked: recording threads never touch it and
/// only scrapes pay for snapshots.  Quiet windows alternate with windows
/// scraped at a denser-than-production cadence on one session.
void window_gate(Section& s, const Options& o,
                 std::vector<std::string>& fails) {
  WarmSession session(o, o.n, o.edges, o.seed);
  std::uint64_t scrapes = 0;
  const auto scraped = [&] {
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      for (; !stop.load(std::memory_order_relaxed); ++scrapes) {
        (void)session.handle_line("METRICS WINDOW prom");
        (void)session.handle_line("HEALTH");
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
    const double cost = window_cost(session, o);
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    return cost;
  };
  const auto r = benchutil::interleave(
      kGateReps, {[&] { return window_cost(session, o); }, scraped});
  s.put("baseline_rps", 1.0 / r.best[0]).put("scraped_rps", 1.0 / r.best[1]);
  put_gate(s, r, 1, kWindowOverheadLimit, "windowed-metrics", fails);
  s.put("scrapes", scrapes);
}

/// A fresh session armed with the plan after warm-up (so the bench graph
/// ingests cleanly), plus small uploads for the ingest retry path.
void chaos(Section& s, const Options& o, const std::string& plan) {
  if (!fault::kFaultInjectionEnabled) {
    fail("--faults wants a build configured with -DASAMAP_FAULT_INJECTION=ON");
  }
  WarmSession session(o, o.n, o.edges, o.seed);
  const std::string armed = session.handle_line("FAULTS LOAD " + plan);
  if (!ok(armed)) fail("fault plan rejected: " + armed);
  std::cout << armed << "\n\n";
  for (int i = 1; i <= 10; ++i) {
    const std::string a = std::to_string(i), b = std::to_string(i + 1);
    (void)session.load_text("tiny" + a, "0 " + a + "\n" + a + " " + b + "\n");
  }
  s.text("plan", plan);
  const Ledger l = measured_loop(s, session, o, o.seed ^ 0xC4405ULL,
                                 serve_mix);
  const obs::MetricRegistry& reg = session.metrics();
  const auto retries = [&reg](const char* site) {
    return reg.counter_total("asamap_retries_total",
                             "site=\"" + std::string(site) + "\"");
  };
  s.put("interactive_goodput", l.goodput({kRead, kInteractive}))
      .put("reads", l.sent[kRead])
      .put("reads_ok", l.ok[kRead])
      .put("interactive_clusters", l.sent[kInteractive])
      .put("interactive_clusters_ok", l.ok[kInteractive])
      .put("faults_injected", reg.counter_sum("asamap_faults_injected_total"))
      .child("retries")
      .put("ingest_parse", retries("ingest.parse"))
      .put("scheduler_dispatch", retries("scheduler.dispatch"));
  s.put("stale_serves", reg.counter_total("asamap_stale_serves_total"))
      .put("jobs_shed", reg.counter_sum("asamap_jobs_shed_total"))
      .put("breaker_opens",
           reg.counter_total("asamap_breaker_transitions_total",
                             "to=\"open\""))
      .put("queue_rejections", reg.counter_sum("asamap_jobs_rejected_total"));
  put_quantiles(s.child("latency_seconds"), reg,
                "asamap_serve_request_seconds", {50, 95, 99});
  const auto snap = session.snapshot(kGraph);
  s.put("final_partition_version", snap ? snap->version : 0);
}

/// APPLY full vs. incr on two identically prepared sessions (graph, warm
/// snapshot, the same churn in the delta log), then the mixed loop.
void delta(Section& s, const Options& o, const support::ArgParser& args) {
  const auto n = static_cast<graph::VertexId>(args.int_or("delta-n", 100000));
  const auto edges =
      static_cast<std::uint64_t>(args.int_or("delta-edges", 600000));
  Section& speed = s.child("speedup");
  Section& graph = speed.child("graph");
  graph.text("generator", "chung_lu").put("n", n).put("edges", edges);
  std::size_t churn = 0;
  double seconds[2] = {0, 0}, codelength[2] = {0, 0};
  bool published = false;
  for (const int incr : {0, 1}) {
    WarmSession session(o, n, edges, o.seed ^ 0xDE17AULL);
    // Half deletions of real arcs, half fresh additions, sampled against
    // the shared base graph.
    const auto base = session.registry().get(kGraph);
    support::Xoshiro256 rng(o.seed ^ 0xC0117ULL);
    churn = static_cast<std::size_t>(
        static_cast<double>(base->num_arcs() / 2) * kDeltaChurn);
    for (std::size_t applied = 0; applied < churn;) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      if (rng.next_double() < 0.5) {
        const auto nbrs = base->out_neighbors(u);
        if (nbrs.empty()) continue;
        const auto v = nbrs[rng.next_below(nbrs.size())].dst;
        applied += u != v && session.del_edge(kGraph, u, v).ok();
      } else {
        const auto v = static_cast<graph::VertexId>(rng.next_below(n));
        applied += u != v && session.add_edge(kGraph, u, v).ok();
      }
    }
    const auto before = session.snapshot(kGraph);
    support::WallTimer w;
    const auto sub = session.submit_apply(kGraph, incr == 1);
    if (!sub.accepted() ||
        session.scheduler().wait(sub.id) != serve::JobState::kDone) {
      fail(incr ? "incremental APPLY failed" : "full APPLY failed");
    }
    seconds[incr] = w.seconds();
    const auto after = session.snapshot(kGraph);
    published = after->version != before->version;
    // Unpublished, the warm partition still serves: score it as merged.
    codelength[incr] = published || incr == 0
                           ? after->codelength
                           : dyn::evaluate_codelength(
                                 *session.registry().get(kGraph),
                                 before->communities);
  }
  speed.put("churn_records", churn)
      .put("apply_full_seconds", seconds[0])
      .put("apply_incr_seconds", seconds[1])
      .put("incremental_speedup", seconds[0] / seconds[1])
      .put("codelength_full", codelength[0])
      .put("codelength_incr", codelength[1])
      .put("codelength_gap_fraction", codelength[1] / codelength[0] - 1.0)
      .put("incr_published", published ? 1 : 0);

  WarmSession session(o, o.n, o.edges, o.seed ^ 0x313ULL);
  Section& mixed = s.child("mixed");
  const Ledger l =
      measured_loop(mixed, session, o, o.seed ^ 0xD317AULL, delta_mix);
  const obs::MetricRegistry& reg = session.metrics();
  mixed.put("goodput", l.goodput({kRead, kMutation, kApply}))
      .put("reads", l.sent[kRead])
      .put("mutations", l.sent[kMutation])
      .put("applies", l.sent[kApply])
      .put("applies_accepted", l.ok[kApply])
      .put("applies_busy_rejected", l.busy)
      .put("threshold_folds",
           reg.counter_total("asamap_delta_compactions_total"))
      .put("incr_reclusters",
           reg.counter_total("asamap_delta_applies_total", "mode=\"incr\""))
      .put("incr_published", reg.counter_total("asamap_incr_publishes_total"))
      .put("incr_skipped", reg.counter_total("asamap_incr_skipped_total",
                                             "reason=\"no_improvement\""));
  put_quantiles(mixed.child("latency_seconds"), reg,
                "asamap_serve_request_seconds", {50, 95, 99});
}

void net_planes(Section& s, const Options& o) {
  std::signal(SIGPIPE, SIG_IGN);  // the line plane's teardown, see there
  Section& config = s.child("config");
  config.put("net_workers", 1)
      .put("ring_capacity", kNetRing)
      .put("max_batch", kNetBatch);
  const auto mix = read_mix(o, config);
  double line_rps = 0.0;
  {
    WarmSession session(o, o.n, o.edges, o.seed);
    std::uint64_t lines = 0;
    line_rps = line_plane_rps(session, mix, o.seconds, lines);
    s.put("inprocess_line_rps", line_rps)
        .put("inprocess_line_requests", lines)
        .put("inprocess_call_rps", direct_rps(session, mix, o.seconds));
  }
  WarmSession session(o, o.n, o.edges, o.seed);
  // One worker on an ephemeral port.
  net::NetServer server(session,
                        {.ring_capacity = kNetRing, .max_batch = kNetBatch});
  if (const auto st = server.start(); !st.ok()) {
    fail("--net: " + std::string(st.text()));
  }
  std::uint64_t responses = 0, errors = 0;
  const double rps =
      pipelined_rps(server.port(), mix, o.seconds, responses, errors);
  server.stop();
  const obs::MetricRegistry& reg = session.metrics();
  const std::uint64_t batches = reg.counter_total("asamap_net_batches_total");
  const double speedup = line_rps > 0.0 ? rps / line_rps : 0.0;
  s.put("network_read_rps", rps)
      .put("network_responses", responses)
      .put("network_error_responses", errors)
      .put("speedup_vs_inprocess", speedup)
      .put("speedup_target", kNetSpeedupTarget)
      .put("batches", batches)
      .put("mean_batch_fill",
           static_cast<double>(reg.counter_sum("asamap_net_requests_total")) /
               static_cast<double>(std::max<std::uint64_t>(batches, 1)))
      .put("ring_rejections", reg.counter_sum("asamap_net_rejected_total"));
  put_quantiles(s.child("latency_seconds"), reg,
                "asamap_serve_request_seconds", {50, 95, 99});
  if (speedup < kNetSpeedupTarget) {
    std::cerr << "WARN: network speedup " << benchutil::fmt(speedup, 2)
              << "x is below the " << benchutil::fmt(kNetSpeedupTarget, 1)
              << "x pipelining target\n";
  }
}

void dist_tier(Section& s, const Options& o) {
  Section& config = s.child("config");
  config.put("shards", kDistShards).put("net_workers", 1);
  const auto mix = read_mix(o, config);
  struct Shard {  // one net worker on an ephemeral port each
    Shard(const serve::SessionConfig& c, std::uint32_t i)
        : session(c), handler(session, {i, kDistShards}), server(handler, {}) {}
    serve::ServeSession session;
    dist::ShardSession handler;
    net::NetServer server;
  };
  std::vector<std::unique_ptr<Shard>> shards;
  dist::RouterConfig rc;
  for (std::uint32_t i = 0; i < kDistShards; ++i) {
    Shard& sh = *shards.emplace_back(std::make_unique<Shard>(o.config, i));
    if (const auto st = sh.server.start(); !st.ok()) {
      fail("--dist: shard start: " + std::string(st.text()));
    }
    rc.shards.emplace_back().port = sh.server.port();
  }
  dist::Router router(rc);
  if (router.connect() != kDistShards) fail("--dist: a shard did not connect");
  // Replicated warm-up through the router, then the distributed clustering
  // protocol against the single-process reference.
  const std::string gen = std::string("GEN ") + kGraph + " " +
                          std::to_string(o.n) + " " + std::to_string(o.edges) +
                          " " + std::to_string(o.seed);
  if (!ok(router.handle_line(gen))) fail("--dist: replicated GEN failed");
  support::WallTimer w;
  const std::string resp =
      router.handle_line(std::string("CLUSTER ") + kGraph + " mode=dist");
  const double cluster_seconds = w.seconds();
  if (resp.rfind("OK mode=dist state=done", 0) != 0) {
    fail("--dist: CLUSTER mode=dist failed: " + resp);
  }
  const auto field = [&resp](const char* key) {
    const auto at = resp.find(std::string(" ") + key + "=");
    return at == std::string::npos
               ? 0.0
               : std::strtod(resp.c_str() + at + std::strlen(key) + 2,
                             nullptr);
  };
  WarmSession single(o, o.n, o.edges, o.seed);
  // SUMMARY reports %.6g; the snapshot has the full-precision reference.
  const double sync = single.store().snapshot(kGraph)->codelength;
  const double single_rps = direct_rps(single, mix, o.seconds);
  std::uint64_t routed = 0;
  const double router_rps = direct_rps(router, mix, o.seconds, &routed);
  s.put("router_read_rps", router_rps)
      .put("router_requests", routed)
      .put("single_process_rps", single_rps)
      .put("fanout_cost", router_rps > 0.0 ? single_rps / router_rps : 0.0);
  put_quantiles(s.child("latency_seconds"), router.metrics(),
                "asamap_router_request_seconds", {50, 99});
  put_quantiles(s.child("scatter_seconds"), router.metrics(),
                "asamap_router_scatter_seconds", {50, 99});
  s.child("dist_cluster")
      .put("seconds", cluster_seconds)
      .put("codelength", field("codelength"))
      .put("sync_codelength", sync)
      .put("codelength_gap_fraction", field("codelength") / sync - 1.0)
      .put("supersteps", static_cast<std::uint64_t>(field("supersteps")))
      .put("levels", static_cast<std::uint64_t>(field("levels")));
  for (auto& sh : shards) sh->server.stop();
}

}  // namespace

int main(int argc, char** argv) try {
  const support::ArgParser args(argc, argv, 1, {"help", "trace", "delta",
                                                "net", "dist", "window"});
  if (args.flag("help")) {
    std::cout << "usage: bench_serve_throughput [--seconds S] [--clients N] "
                 "[--n N] [--edges M] [--seed S]\n"
                 "        [--faults plan.txt] [--trace] [--window] [--delta] "
                 "[--delta-n N] [--delta-edges M]\n"
                 "        [--net] [--dist] [--out f.json]\n";
    return 0;
  }
  if (const auto unknown = args.unknown_keys(
          {"seconds", "clients", "n", "edges", "seed", "faults", "trace",
           "window", "delta", "delta-n", "delta-edges", "net", "dist", "out"});
      !unknown.empty()) {
    std::cerr << "unknown argument: --" << unknown.front() << '\n';
    return 2;
  }
  Options o{args.double_or("seconds", 30.0),
            static_cast<int>(args.int_or("clients", 4)),
            static_cast<graph::VertexId>(args.int_or("n", 20000)),
            static_cast<std::uint64_t>(args.int_or("edges", 120000)),
            static_cast<std::uint64_t>(args.int_or("seed", 42)),
            {}};
  o.config.scheduler.workers = kWorkers;
  o.config.scheduler.batch_capacity = kBatchCapacity;
  o.config.cluster_threads = kClusterThreads;
  const std::string faults = args.get_or("faults", "");
  const std::string out_path = args.get_or("out", "BENCH_serve.json");

  benchutil::banner(std::cout, "Serving layer: closed-loop throughput");
  Section root;
  root.child("config")
      .put("clients", o.clients)
      .put("workers", kWorkers)
      .put("window_seconds", o.seconds)
      .put("batch_capacity", kBatchCapacity)
      .put("cluster_threads", kClusterThreads)
      .child("graph")
      .text("generator", "chung_lu")
      .put("n", o.n)
      .put("edges", o.edges)
      .put("seed", o.seed);

  std::vector<std::string> fails;
  benchutil::run_phases(
      {{true, "", [&](Section& s) { baseline(s, o); }},
       {args.flag("trace"), "trace",
        [&](Section& s) { trace_gate(s, o, fails); }},
       {args.flag("window"), "window",
        [&](Section& s) { window_gate(s, o, fails); }},
       {!faults.empty(), "chaos", [&](Section& s) { chaos(s, o, faults); }},
       {args.flag("delta"), "delta", [&](Section& s) { delta(s, o, args); }},
       {args.flag("net"), "net", [&](Section& s) { net_planes(s, o); }},
       {args.flag("dist"), "dist", [&](Section& s) { dist_tier(s, o); }}},
      root, std::cout);

  std::ofstream js(out_path);
  root.write_document(js, obs::make_envelope("serve_throughput"));
  std::cout << "\nWrote " << out_path << '\n';
  for (const auto& f : fails) std::cerr << "FAIL: " << f << '\n';
  return fails.empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
