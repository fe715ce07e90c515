// serve_reads and serve_updates: a ServeSession behind an in-process
// NetServer, driven over loopback TCP by the pipelined load generator.
//
// serve_reads    clustered 20k/120k graph, one net worker; closed-loop
//                chunks (fixed in-flight window) alternate with open-loop
//                chunks at a fixed rate well below saturation.
// serve_updates  clustered 100k/600k graph, two net workers; a writer
//                connection streams ADD_EDGE/DEL_EDGE and sends
//                `APPLY recluster=incr sync` after every kBatch mutations,
//                while a reader connection (pinned to the other worker)
//                reads at a fixed rate.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>

#include "asamap/core/infomap.hpp"
#include "asamap/dyn/delta_log.hpp"
#include "asamap/dyn/incremental.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/net/server.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/rng.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const std::string kGraph = "g";

/// One served graph: session + TCP front end + the benchmark's connections.
/// Members are torn down clients first, session last (the server holds a
/// reference to the session).
struct Served {
  std::unique_ptr<asamap::serve::ServeSession> session;
  std::unique_ptr<asamap::net::NetServer> server;
  std::vector<std::unique_ptr<PipeClient>> clients;

  void reset() {
    clients.clear();
    server.reset();
    session.reset();
  }
};

/// Builds a served, clustered Chung-Lu graph: generate, ingest, CLUSTER,
/// start the server, connect `conns` clients.  Repeated `rounds` times
/// (each round torn down, and its memory trimmed, before the next); the
/// median round is setup_s.
/// With `fixed_graph` the graph comes from generator seed 42 and the
/// benchmark seed only permutes its vertex ids (the structure, and so the
/// clustering work, stays the same across seeds); otherwise the benchmark
/// seed drives the generator.
Served setup_served(const Options& opts, Report& rep, Tracer& tr,
                    const asamap::serve::SessionConfig& cfg,
                    asamap::graph::VertexId n, std::uint64_t edges,
                    bool fixed_graph, int net_workers, int conns,
                    int rounds) {
  Served s;
  std::vector<double> setup_s;
  double gen_s = 0.0;
  for (int round = 0; round < rounds; ++round) {
    s.reset();
    // Hand the last round's freed heap back, so peak RSS is one served
    // graph's and not whatever an earlier round left in a malloc arena.
    malloc_trim(0);
    const std::uint64_t t0 = now_ns();
    asamap::gen::ChungLuParams params;
    params.n = n;
    params.target_edges = edges;
    asamap::graph::CsrGraph g;
    {
      Span sp(tr, "gen.chung_lu", "gen");
      const std::uint64_t g0 = now_ns();
      g = asamap::gen::chung_lu(params,
                                fixed_graph ? 42 : derive_seed(opts.seed, 1));
      gen_s += seconds_since(g0);
    }
    if (fixed_graph) {
      Span sp(tr, "graph.relabel", "graph");
      g = relabel(g, derive_seed(opts.seed, 1));
    }
    s.session = std::make_unique<asamap::serve::ServeSession>(cfg);
    {
      Span sp(tr, "serve.put_graph", "serve");
      if (!s.session->registry().put_graph(kGraph, std::move(g)).ok()) break;
    }
    {
      Span sp(tr, "serve.handle_line CLUSTER", "serve");
      if (s.session->handle_line("CLUSTER " + kGraph + " sync").rfind("OK", 0)) {
        break;
      }
    }
    asamap::net::NetConfig nc;
    nc.workers = net_workers;
    s.server = std::make_unique<asamap::net::NetServer>(*s.session, nc);
    if (!s.server->start().ok()) break;
    for (int c = 0; c < conns; ++c) {
      s.clients.push_back(std::make_unique<PipeClient>());
      if (!s.clients.back()->connect(s.server->port())) break;
    }
    setup_s.push_back(seconds_since(t0));
  }
  const bool ok = static_cast<int>(setup_s.size()) == rounds;
  rep.oracle(ok, "set-up: ingest, CLUSTER, server start, client connect");
  rep.e2e("setup_s", median(setup_s), "s");
  rep.layer("gen.chung_lu_s", gen_s / rounds, "s");
  if (!ok) s.reset();
  return s;
}

/// Reports codelength_ratio of the current snapshot of `session`.
void report_codelength_ratio(Report& rep,
                             asamap::serve::ServeSession& session) {
  const auto snap = session.snapshot(kGraph);
  const auto& g = *snap->graph;
  const asamap::core::Partition one(g.num_vertices(), 0);
  const double one_level = asamap::dyn::evaluate_codelength(g, one);
  rep.e2e("codelength_ratio", snap->codelength / one_level, "ratio");
  rep.layer("graph.arcs", static_cast<double>(g.num_arcs()), "count");
  std::printf("codelength %.9f one-level %.9f version %llu\n",
              snap->codelength, one_level,
              static_cast<unsigned long long>(snap->version));
}

/// Per-request time of the session's batched read path on `mix`, called
/// directly in batches the size the net plane forms.
double direct_read_ns(Tracer& tr, asamap::serve::ServeSession& session,
                      const std::vector<std::string>& mix, double seconds) {
  std::vector<std::string_view> lines;
  std::vector<std::string> replies;
  std::uint64_t done = 0;
  const std::uint64_t t0 = now_ns();
  std::size_t i = 0;
  while (seconds_since(t0) < seconds) {
    lines.clear();
    for (int k = 0; k < 64; ++k) lines.push_back(mix[i++ % mix.size()]);
    Span sp(tr, "serve.handle_batch", "serve");
    session.handle_batch(lines, replies);
    done += lines.size();
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(done);
}

/// Read checker for one fixed snapshot: every reply OK at `version`, and
/// every 16th answer checked against the partition.
ReplyCheck snapshot_check(const std::vector<std::string>& mix,
                          const asamap::serve::PartitionSnapshot& snap) {
  auto part = std::make_shared<std::vector<std::uint32_t>>(
      snap.communities.begin(), snap.communities.end());
  const double version = static_cast<double>(snap.version);
  const std::size_t k = snap.num_communities;
  return [&mix, part, version, k](std::size_t i, std::string_view r) {
    const std::string reply(r);
    if (field(reply, "version") != version) return false;
    if (i % 16 != 0) return reply.rfind("OK", 0) == 0;
    return read_matches(mix[i], reply, *part, k);
  };
}

}  // namespace

// --- serve_reads -------------------------------------------------------------

void run_serve_reads(const Options& opts, Report& rep, Tracer& tr) {
  constexpr asamap::graph::VertexId kN = 20000;
  constexpr std::uint64_t kEdges = 120000;
  constexpr std::size_t kWindow = 1024;
  constexpr double kRate = 5000.0;
  /// One set-up round takes about 0.4 s, so setup_s can be the median of
  /// seven at little cost.
  constexpr int kSetupRounds = 7;
  /// Closed- and open-loop chunks alternate over the whole run.  The
  /// guest's speed drifts over seconds, and a phase that covered only one
  /// part of the run would see only that part's speed.
  constexpr double kClosedChunkS = 1.0;
  constexpr double kOpenChunkS = 0.5;
  constexpr double kSliceS = 0.25;

  asamap::serve::SessionConfig cfg;
  cfg.cluster_threads = 1;
  Served s = setup_served(opts, rep, tr, cfg, kN, kEdges, false, 1, 1,
                          kSetupRounds);
  if (!s.session) return;
  asamap::serve::ServeSession& session = *s.session;
  PipeClient& client = *s.clients[0];
  report_codelength_ratio(rep, session);
  const auto snap = session.snapshot(kGraph);
  const auto mix = make_read_mix(kGraph, kN, 8192, derive_seed(opts.seed, 2));
  const ReplyCheck check = snapshot_check(mix, *snap);

  // Warm the connection, the batch path and the caches.
  const LoadResult warm = client.closed_loop(mix, kWindow, 0.5, 0.5, check);
  rep.ops(warm.sent, warm.failed);
  std::uint64_t read_failed = warm.failed;

  // A traced run starts every cycle with a traced closed-loop chunk: one
  // root span per chunk, with the worker's busy time in handle_batch (the
  // net plane's own batch histogram) attached as its child; the root's self
  // time is the transport.  Every open-loop chunk still follows one second
  // of untraced saturation, as in an untraced run.  A quarter of the run is
  // left for the direct read path and the router tier.
  const auto& reg = session.metrics();
  std::vector<double> slices, traced_slices, latency_us, late_us;
  double traced_replies = 0, reqs = 0, bats = 0;
  const double budget = opts.trace ? 0.75 * opts.seconds : opts.seconds - 0.5;
  const double cycle_s =
      kClosedChunkS * (opts.trace ? 2 : 1) + kOpenChunkS;
  const int cycles = std::max(1, static_cast<int>(budget / cycle_s));
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (opts.trace) {
      const double batch0 =
          reg.histogram_total_seconds("asamap_net_batch_seconds");
      const double req0 =
          static_cast<double>(reg.counter_sum("asamap_net_requests_total"));
      const double bat0 =
          static_cast<double>(reg.counter_total("asamap_net_batches_total"));
      const std::uint64_t root = tr.begin("client closed-loop reads", "net");
      const LoadResult traced =
          client.closed_loop(mix, kWindow, kClosedChunkS, kSliceS, check);
      tr.end(root);
      rep.ops(traced.sent, traced.failed);
      read_failed += traced.failed;
      tr.add_child(root, "serve.handle_batch (net worker)", "serve",
                   reg.histogram_total_seconds("asamap_net_batch_seconds") -
                       batch0);
      reqs += static_cast<double>(reg.counter_sum("asamap_net_requests_total")) -
              req0;
      bats += static_cast<double>(reg.counter_total("asamap_net_batches_total")) -
              bat0;
      traced_replies += static_cast<double>(traced.received);
      traced_slices.insert(traced_slices.end(), traced.slice_rps.begin(),
                           traced.slice_rps.end());
    }

    const LoadResult closed =
        client.closed_loop(mix, kWindow, kClosedChunkS, kSliceS, check);
    rep.ops(closed.sent, closed.failed);
    read_failed += closed.failed;
    slices.insert(slices.end(), closed.slice_rps.begin(),
                  closed.slice_rps.end());

    const LoadResult open = client.open_loop(mix, kRate, kOpenChunkS, check);
    rep.ops(open.sent, open.failed);
    read_failed += open.failed;
    latency_us.insert(latency_us.end(), open.latency_us.begin(),
                      open.latency_us.end());
    late_us.insert(late_us.end(), open.late_us.begin(), open.late_us.end());
  }

  // Replies per second over all the closed-loop time: the mean of the
  // equal slices.  Across runs it spread about half as much as their
  // median, which jumps between the guest's fast and slow stretches.
  const double rps = mean(slices);
  rep.e2e("ops_per_s", rps, "1/s");
  rep.e2e("op_ms", quantile(latency_us, 0.5) * 1e-3, "ms");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.layer("op.iqr_frac", iqr_frac(slices), "ratio");
  report_open_loop(rep, latency_us, late_us);
  std::printf("serve_reads: closed loop %.0f req/s (mean of %zu slices, "
              "iqr %.1f%%)\n",
              rps, slices.size(), 100.0 * iqr_frac(slices));
  std::printf("serve_reads: open loop %.0f req/s, p50 %.1f us, p99 %.1f us\n",
              kRate, quantile(latency_us, 0.5), quantile(latency_us, 0.99));

  if (opts.trace) {
    const double read_ns = direct_read_ns(tr, session, mix, 1.0);
    rep.layer("serve.read_ns", read_ns, "ns");
    rep.layer("net.overhead_ns", 1e9 / rps - read_ns, "ns");
    rep.layer("net.batch_fill", bats > 0 ? reqs / bats : 0.0, "count");
    rep.layer("net.rejected",
              static_cast<double>(reg.counter_sum("asamap_net_rejected_total")),
              "count");
    const double overhead = rps / mean(traced_slices) - 1.0;
    rep.layer("obs.trace_overhead_frac", overhead, "ratio");
    rep.print_layer_table(tr, "client closed-loop reads", traced_replies,
                          overhead);
  }
  rep.oracle(read_failed == 0,
             "every read OK at one snapshot version, sampled answers match");
  s.server->stop();
  if (opts.trace) {
    // The same graph through the sharded tier: the dist layer's figures.
    measure_router_layers(rep, tr,
                          "GEN " + kGraph + " " + std::to_string(kN) + " " +
                              std::to_string(kEdges) + " " +
                              std::to_string(derive_seed(opts.seed, 1)),
                          kGraph, mix, *snap);
  }
}

// --- serve_updates -----------------------------------------------------------

namespace {

/// The benchmark's own model of the graph's undirected edge set: the
/// mutation stream is drawn from it (adds of absent pairs, deletes of
/// present ones), and the served graph must equal it after the stream.
class EdgeModel {
 public:
  explicit EdgeModel(const asamap::graph::CsrGraph& g) : n_(g.num_vertices()) {
    for (asamap::graph::VertexId u = 0; u < n_; ++u) {
      for (const auto& arc : g.out_neighbors(u)) {
        if (u < arc.dst) insert(key(u, arc.dst), arc.weight);
      }
    }
  }

  static std::uint64_t key(asamap::graph::VertexId u,
                           asamap::graph::VertexId v) {
    if (u > v) std::swap(u, v);
    return (std::uint64_t{u} << 32) | v;
  }

  /// Draws one mutation line (2/3 adds, 1/3 deletes) and applies it here.
  std::string next(asamap::support::Xoshiro256& rng, const std::string& g) {
    if (rng.next_below(3) == 0 && !edges_.empty()) {
      const std::uint64_t k = edges_[rng.next_below(edges_.size())];
      erase(k);
      return "DEL_EDGE " + g + " " + std::to_string(k >> 32) + " " +
             std::to_string(k & 0xffffffffULL);
    }
    for (;;) {
      const auto u = static_cast<asamap::graph::VertexId>(rng.next_below(n_));
      const auto v = static_cast<asamap::graph::VertexId>(rng.next_below(n_));
      if (u == v || index_.count(key(u, v)) != 0) continue;
      insert(key(u, v), 1.0);
      return "ADD_EDGE " + g + " " + std::to_string(u) + " " +
             std::to_string(v);
    }
  }

  /// True when `g` holds exactly this edge set with these weights.
  [[nodiscard]] bool equals(const asamap::graph::CsrGraph& g) const {
    std::size_t seen = 0;
    for (asamap::graph::VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const auto& arc : g.out_neighbors(u)) {
        if (u >= arc.dst) continue;
        const auto it = index_.find(key(u, arc.dst));
        if (it == index_.end() || weight_[it->second] != arc.weight) {
          return false;
        }
        ++seen;
      }
    }
    return seen == edges_.size();
  }

 private:
  void insert(std::uint64_t k, double w) {
    index_[k] = edges_.size();
    edges_.push_back(k);
    weight_.push_back(w);
  }
  void erase(std::uint64_t k) {
    const std::size_t i = index_.at(k);
    index_[edges_.back()] = i;
    edges_[i] = edges_.back();
    weight_[i] = weight_.back();
    edges_.pop_back();
    weight_.pop_back();
    index_.erase(k);
  }

  asamap::graph::VertexId n_;
  std::vector<std::uint64_t> edges_;
  std::vector<double> weight_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

/// Parses a mutation line back into a delta record (for the replay).
asamap::dyn::DeltaRecord to_record(const std::string& line) {
  asamap::dyn::DeltaRecord r;
  unsigned long long u = 0, v = 0;
  char name[16] = {};
  if (line[0] == 'A') {
    std::sscanf(line.c_str(), "ADD_EDGE %15s %llu %llu", name, &u, &v);
    r.op = asamap::dyn::DeltaOp::kAddEdge;
  } else {
    std::sscanf(line.c_str(), "DEL_EDGE %15s %llu %llu", name, &u, &v);
    r.op = asamap::dyn::DeltaOp::kDelEdge;
  }
  r.u = static_cast<asamap::graph::VertexId>(u);
  r.v = static_cast<asamap::graph::VertexId>(v);
  return r;
}

}  // namespace

void run_serve_updates(const Options& opts, Report& rep, Tracer& tr) {
  constexpr asamap::graph::VertexId kN = 100000;
  constexpr std::uint64_t kEdges = 600000;
  constexpr std::size_t kBatch = 600;
  /// Exact counts and codelength_ratio are taken over the first kCounted
  /// APPLYs, a fixed amount of work, so they repeat for a fixed seed.
  constexpr int kCounted = 12;
  constexpr double kReadRate = 5000.0;

  // One APPLY per graph is in flight at a time, so one scheduler worker
  // loses nothing; with two, which worker (and so which malloc arena) runs
  // each APPLY is a coin flip, and peak RSS moved 316..484 MB across runs.
  asamap::serve::SessionConfig cfg;
  cfg.cluster_threads = 1;
  cfg.scheduler.workers = 1;
  Served s = setup_served(opts, rep, tr, cfg, kN, kEdges, true, 2, 2, 3);
  if (!s.session) return;
  asamap::serve::ServeSession& session = *s.session;
  PipeClient& writer = *s.clients[0];  // first connection: net worker 0
  PipeClient& reader = *s.clients[1];  // second connection: net worker 1
  EdgeModel model(*session.registry().get(kGraph));
  asamap::support::Xoshiro256 rng(derive_seed(opts.seed, 3));
  const auto mix = make_read_mix(kGraph, kN, 8192, derive_seed(opts.seed, 2));
  const auto& reg = session.metrics();

  // Reads beside the writes: OK at a version no older than the last one
  // this reader saw.
  double last_version = 0;
  const ReplyCheck read_check = [&last_version](std::size_t,
                                                std::string_view r) {
    const double v = field(std::string(r), "version");
    if (r.rfind("OK", 0) != 0 || !(v >= last_version)) return false;
    last_version = v;
    return true;
  };
  LoadResult reads;
  std::thread read_thread([&] {
    reads = reader.open_loop(mix, kReadRate, opts.seconds, read_check);
  });

  // A traced run traces the first kCounted APPLYs and leaves the rest
  // untraced; the two medians give the tracing overhead.
  std::vector<double> apply_s;
  std::vector<double> traced_apply_s;
  std::vector<double> ack_us;
  std::vector<double> fold_ms, warm_ms, active;
  std::uint64_t mutations = 0;
  std::uint64_t write_failed = 0;
  std::uint64_t published = 0;
  CoreCounters counted;
  const std::string apply_line = "APPLY " + kGraph + " recluster=incr sync";
  std::vector<std::string> burst;
  std::string reply;
  const std::uint64_t m0 = now_ns();
  int applies = 0;
  while (seconds_since(m0) < opts.seconds || applies < kCounted) {
    const bool traced = opts.trace && applies < kCounted;
    burst.clear();
    for (std::size_t i = 0; i < kBatch; ++i) burst.push_back(model.next(rng, kGraph));
    // Previous graph + partition, for the traced replay of this batch.
    const auto prev_graph = traced ? session.registry().get(kGraph) : nullptr;
    const auto prev_snap = session.snapshot(kGraph);

    const std::uint64_t a0 = now_ns();
    const LoadResult acks =
        writer.burst(burst, [](std::size_t, std::string_view r) {
          return r.rfind("OK", 0) == 0;
        });
    ack_us.push_back(seconds_since(a0) * 1e6 / kBatch);
    mutations += acks.received;
    write_failed += acks.failed;
    rep.ops(acks.sent, acks.failed);

    const CoreCounters before = CoreCounters::read(reg);
    const std::uint64_t span =
        traced ? tr.begin("net APPLY round trip", "net") : 0;
    const std::uint64_t t0 = now_ns();
    const bool sent = writer.call(apply_line, reply);
    const double dt = seconds_since(t0);
    tr.end(span);
    const CoreCounters d = CoreCounters::read(reg) - before;
    const bool ok = sent && reply.rfind("OK", 0) == 0 &&
                    reply.find("state=done") != std::string::npos;
    rep.op(ok);
    if (!ok) {
      ++write_failed;
      std::printf("APPLY failed: %s\n", reply.c_str());
    }
    (traced ? traced_apply_s : apply_s).push_back(dt);
    const auto snap = session.snapshot(kGraph);
    const bool pub = snap && prev_snap && snap->version != prev_snap->version;
    if (applies < kCounted) {
      counted = counted + d;
      if (pub) ++published;
    }
    ++applies;
    if (applies == kCounted) report_codelength_ratio(rep, session);

    if (traced) {
      // Replay the batch through the dyn layer's public API on the same
      // inputs: the fold and the warm-start plan the APPLY job ran inside.
      // Both are attached to the APPLY span as children, beside the kernel
      // phases the session's registry recorded for the job.
      d.attach(tr, span);
      std::vector<asamap::dyn::DeltaRecord> recs;
      for (const auto& line : burst) recs.push_back(to_record(line));
      const std::uint64_t f0 = now_ns();
      const asamap::dyn::DeltaView view(*prev_graph, recs);
      const asamap::graph::CsrGraph merged = view.materialize();
      const double fold = seconds_since(f0);
      const std::uint64_t w0 = now_ns();
      const auto plan = asamap::dyn::plan_warm_start(
          prev_snap->communities, merged.num_vertices(), view.touched());
      const double warm = seconds_since(w0);
      tr.add_child(span, "dyn.DeltaView materialize (replayed)", "dyn", fold);
      tr.add_child(span, "dyn.plan_warm_start (replayed)", "dyn", warm);
      fold_ms.push_back(fold * 1e3);
      warm_ms.push_back(warm * 1e3);
      active.push_back(static_cast<double>(plan.active_seed.size()));
    }
  }
  const double elapsed = seconds_since(m0);
  read_thread.join();
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.ops(reads.sent, reads.failed);

  rep.e2e("op_ms", median(apply_s) * 1e3, "ms");
  rep.e2e("ops_per_s", static_cast<double>(mutations) / elapsed, "1/s");
  report_open_loop(rep, reads.latency_us, reads.late_us);
  rep.layer("op.iqr_frac", iqr_frac(apply_s), "ratio");
  rep.layer("dyn.apply_p90_ms", quantile(apply_s, 0.9) * 1e3, "ms");
  rep.layer("dyn.mutation_ack_us", median(ack_us), "us");
  rep.layer("dyn.published", static_cast<double>(published), "count");
  rep.layer("dyn.applies", static_cast<double>(kCounted), "count");
  std::printf("serve_updates: %d APPLYs, median %.1f ms, p90 %.1f ms, iqr "
              "%.1f%%; %llu mutations; reads p50 %.1f us p99 %.1f us\n",
              applies, median(apply_s) * 1e3, quantile(apply_s, 0.9) * 1e3,
              100.0 * iqr_frac(apply_s),
              static_cast<unsigned long long>(mutations),
              quantile(reads.latency_us, 0.5), quantile(reads.latency_us, 0.99));
  if (opts.trace) {
    report_core_layers(rep, counted, reg.gauge_value("asamap_run_levels"),
                       reg.gauge_value("asamap_hotset_vertex_coverage"));
    rep.layer("dyn.fold_ms", median(fold_ms), "ms");
    rep.layer("dyn.warm_start_ms", median(warm_ms), "ms");
    rep.layer("dyn.active_vertices", median(active), "count");
    const double overhead = median(traced_apply_s) / median(apply_s) - 1.0;
    rep.layer("obs.trace_overhead_frac", overhead, "ratio");
    rep.print_layer_table(tr, "net APPLY round trip", 0, overhead);
  }

  // --- oracles -------------------------------------------------------------
  const auto final_graph = session.registry().get(kGraph);
  const auto final_snap = session.snapshot(kGraph);
  rep.oracle(model.equals(*final_graph),
             "served graph equals the independently built edge set");
  const auto scratch =
      asamap::core::run_infomap_parallel(*final_graph, {}, 1);
  const double gap =
      (final_snap->codelength - scratch.codelength) / scratch.codelength;
  std::printf("incremental codelength %.9f vs from-scratch %.9f (gap %+.4f%%)\n",
              final_snap->codelength, scratch.codelength, 100.0 * gap);
  rep.oracle(gap <= 0.005,
             "incremental codelength within 0.5% of a from-scratch run");
  rep.oracle(write_failed == 0 && reads.failed == 0,
             "every mutation, APPLY and read answered OK");
  s.server->stop();
}

}  // namespace perfbench
