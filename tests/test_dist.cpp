// Tests for the distributed Infomap layer: the message-cost simulation
// (run_distributed_infomap) and the live sharded serving tier — shard
// sessions + router over real loopback TCP, including degraded/stale
// fallbacks, backpressure propagation, and the cross-process trace tree.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "asamap/core/infomap.hpp"
#include "asamap/dist/distributed.hpp"
#include "asamap/dist/partition_map.hpp"
#include "asamap/dist/router.hpp"
#include "asamap/dist/shard.hpp"
#include "asamap/fault/fault.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/metrics/partition.hpp"
#include "asamap/net/frame.hpp"
#include "asamap/net/server.hpp"
#include "asamap/obs/build_info.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/session.hpp"
#include "ops_pin.hpp"

namespace {

using namespace asamap;
using dist::DistOptions;
using dist::DistResult;

metrics::Partition to_metrics(const core::Partition& p) {
  return metrics::Partition(p.begin(), p.end());
}

TEST(Distributed, SingleRankMatchesSequentialQuality) {
  const auto pp = gen::planted_partition(800, 8, 0.2, 0.008, 301);
  DistOptions opts;
  opts.num_ranks = 1;
  const DistResult d = dist::run_distributed_infomap(pp.graph, opts);
  core::InfomapOptions seq_opts;
  seq_opts.refine_sweeps = 0;
  const auto s = core::run_infomap(pp.graph, seq_opts);
  const double nmi = metrics::normalized_mutual_information(
      to_metrics(d.communities), to_metrics(s.communities));
  EXPECT_GT(nmi, 0.95);
  // One rank generates no cross-rank traffic.
  EXPECT_EQ(d.total_messages, 0u);
  EXPECT_EQ(d.total_bytes, 0u);
}

TEST(Distributed, MultiRankRecoversPlantedPartition) {
  const auto pp = gen::planted_partition(1200, 12, 0.25, 0.005, 307);
  DistOptions opts;
  opts.num_ranks = 8;
  const DistResult d = dist::run_distributed_infomap(pp.graph, opts);
  const double nmi = metrics::normalized_mutual_information(
      to_metrics(d.communities),
      to_metrics(core::Partition(pp.ground_truth.begin(),
                                 pp.ground_truth.end())));
  EXPECT_GT(nmi, 0.9);
  EXPECT_GT(d.total_messages, 0u);
}

TEST(Distributed, DeterministicForFixedRanks) {
  const auto pp = gen::planted_partition(600, 6, 0.2, 0.01, 311);
  DistOptions opts;
  opts.num_ranks = 4;
  const DistResult a = dist::run_distributed_infomap(pp.graph, opts);
  const DistResult b = dist::run_distributed_infomap(pp.graph, opts);
  EXPECT_EQ(a.communities, b.communities);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(Distributed, MessageVolumeCollapsesAcrossSupersteps) {
  const auto pp = gen::planted_partition(2000, 20, 0.2, 0.004, 313);
  DistOptions opts;
  opts.num_ranks = 4;
  const DistResult d = dist::run_distributed_infomap(pp.graph, opts);
  // Level-0 supersteps: the first carries the bulk of the traffic.
  std::uint64_t first_bytes = 0, later_bytes = 0;
  for (const auto& st : d.trace) {
    if (st.level != 0) break;
    if (st.step == 0) {
      first_bytes = st.bytes;
    } else {
      later_bytes += st.bytes;
    }
  }
  ASSERT_GT(first_bytes, 0u);
  EXPECT_LT(later_bytes, first_bytes);
}

TEST(Distributed, AppliedNeverExceedsProposals) {
  const auto pp = gen::planted_partition(700, 7, 0.2, 0.01, 317);
  DistOptions opts;
  opts.num_ranks = 4;
  const DistResult d = dist::run_distributed_infomap(pp.graph, opts);
  for (const auto& st : d.trace) {
    EXPECT_LE(st.applied, st.proposals);
  }
}

TEST(Distributed, MoreRanksMoreMessagesSameQuality) {
  const auto pp = gen::planted_partition(1500, 15, 0.2, 0.005, 331);
  const metrics::Partition truth(pp.ground_truth.begin(),
                                 pp.ground_truth.end());
  std::uint64_t prev_bytes = 0;
  for (std::uint32_t ranks : {2u, 8u}) {
    DistOptions opts;
    opts.num_ranks = ranks;
    const DistResult d = dist::run_distributed_infomap(pp.graph, opts);
    const double nmi = metrics::normalized_mutual_information(
        to_metrics(d.communities), truth);
    EXPECT_GT(nmi, 0.9) << ranks << " ranks";
    if (prev_bytes > 0) {
      EXPECT_GT(d.total_bytes, prev_bytes) << "finer partitioning must cut "
                                              "more edges";
    }
    prev_bytes = d.total_bytes;
  }
}

TEST(Distributed, CodelengthIsLevelZeroConsistent) {
  const auto pp = gen::planted_partition(500, 5, 0.2, 0.01, 337);
  DistOptions opts;
  opts.num_ranks = 4;
  const DistResult d = dist::run_distributed_infomap(pp.graph, opts);
  const auto fn = core::build_flow(pp.graph);
  core::ModuleState check(fn, d.communities, d.num_communities);
  EXPECT_NEAR(check.codelength(), d.codelength, 1e-9);
}

// --- partition map -------------------------------------------------------

TEST(PartitionMap, BlockRangesCoverAndAgreeWithOwnerOf) {
  for (const graph::VertexId n : {1u, 2u, 7u, 1000u, 1001u}) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      const auto ranges = dist::make_ranges(n, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, n);
      for (std::uint32_t r = 0; r + 1 < shards; ++r) {
        EXPECT_EQ(ranges[r].end, ranges[r + 1].begin);  // contiguous
      }
      for (graph::VertexId v = 0; v < n; ++v) {
        const std::uint32_t owner = dist::owner_of(v, n, ranges);
        EXPECT_TRUE(ranges[owner].contains(v)) << v << "/" << n;
      }
    }
  }
}

// --- live sharded tier over loopback TCP ---------------------------------

serve::SessionConfig tier_config() {
  serve::SessionConfig config;
  config.cluster_threads = 1;  // deterministic codelengths across processes
  config.scheduler.workers = 2;
  return config;
}

/// Splits a response's first line into its `key=value` fields (keyless
/// leading tokens like "OK"/"STALE" land under "" concatenated).
std::map<std::string, std::string> fields_of(const std::string& resp) {
  std::map<std::string, std::string> out;
  const std::string first = resp.substr(0, resp.find('\n'));
  std::size_t pos = 0;
  while (pos < first.size()) {
    const std::size_t end = first.find(' ', pos);
    const std::string tok =
        first.substr(pos, end == std::string::npos ? end : end - pos);
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      out[""] += out[""].empty() ? tok : " " + tok;
    } else {
      out[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return out;
}

/// Routed reads must carry the same payload as the single-process oracle:
/// identical ids/integers, float fields to ~1e-9 relative (gather-merge
/// regroups FP sums), ignoring router-only envelope fields.
void expect_matches_oracle(const std::string& routed,
                           const std::string& oracle) {
  const auto r = fields_of(routed);
  const auto o = fields_of(oracle);
  ASSERT_TRUE(r.count("")) << routed;
  EXPECT_EQ(r.at(""), o.at("")) << routed << "\n vs \n" << oracle;
  for (const auto& [key, want] : o) {
    if (key.empty() || key == "version" || key == "job") continue;
    ASSERT_TRUE(r.count(key)) << key << " missing in: " << routed;
    const std::string& got = r.at(key);
    if (key == "flow" || key == "codelength" || key == "modularity") {
      const double a = std::stod(got);
      const double b = std::stod(want);
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::fabs(b))) << key;
    } else if (key == "top") {
      // c:f,c:f,... — ids exact and ordered, flows to tolerance.
      std::istringstream gs(got), ws(want);
      std::string gp, wp;
      while (std::getline(ws, wp, ',')) {
        ASSERT_TRUE(std::getline(gs, gp, ',')) << key << ": " << routed;
        const auto gc = gp.find(':');
        const auto wc = wp.find(':');
        EXPECT_EQ(gp.substr(0, gc), wp.substr(0, wc)) << routed;
        EXPECT_NEAR(std::stod(gp.substr(gc + 1)),
                    std::stod(wp.substr(wc + 1)), 1e-9);
      }
    } else {
      EXPECT_EQ(got, want) << key << " in: " << routed;
    }
  }
}

/// Two in-process shards behind real NetServers + a Router dialing them
/// over loopback, plus a single-process oracle fed the same commands.
class ShardedTierTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kShards = 2;

  void SetUp() override {
    for (std::uint32_t i = 0; i < kShards; ++i) {
      sessions_[i] = std::make_unique<serve::ServeSession>(tier_config());
      shards_[i] = std::make_unique<dist::ShardSession>(
          *sessions_[i], dist::ShardConfig{i, kShards});
      net::NetConfig config;
      config.workers = 2;
      servers_[i] = std::make_unique<net::NetServer>(*shards_[i], config);
      ASSERT_TRUE(servers_[i]->start().ok());
      ASSERT_NE(servers_[i]->port(), 0);
    }
    router_ = std::make_unique<dist::Router>(base_router_config());
    EXPECT_EQ(router_->connect(), kShards);
    oracle_ = std::make_unique<serve::ServeSession>(tier_config());
  }

  [[nodiscard]] dist::RouterConfig base_router_config() const {
    dist::RouterConfig rc;
    for (const auto& s : servers_) {
      net::ClientConfig ep;
      ep.port = s->port();
      ep.timeout_ms = 5000;
      rc.shards.push_back(ep);
    }
    rc.retry.initial_backoff = std::chrono::milliseconds(1);
    rc.retry.max_backoff = std::chrono::milliseconds(5);
    return rc;
  }

  /// Feeds the same line to router and oracle; both must report OK.
  void ingest(const std::string& line) {
    ASSERT_EQ(router_->handle_line(line).substr(0, 2), "OK") << line;
    ASSERT_EQ(oracle_->handle_line(line).substr(0, 2), "OK") << line;
  }

  std::unique_ptr<serve::ServeSession> sessions_[kShards];
  std::unique_ptr<dist::ShardSession> shards_[kShards];
  std::unique_ptr<net::NetServer> servers_[kShards];
  std::unique_ptr<dist::Router> router_;
  std::unique_ptr<serve::ServeSession> oracle_;
};

TEST_F(ShardedTierTest, ReadsMatchSingleProcessOracle) {
  ingest("GEN g 900 3600 11");
  ingest("CLUSTER g sync");
  // Vertices from both ranges (450 splits the block partition), co-located
  // and cross-shard SAME pairs, merged TOPK, aggregated SUMMARY.
  for (const char* line :
       {"MEMBER g 0", "MEMBER g 449", "MEMBER g 450", "MEMBER g 899",
        "SAME g 1 2", "SAME g 500 600", "SAME g 10 880", "TOPK g 1",
        "TOPK g 7", "SUMMARY g"}) {
    expect_matches_oracle(router_->handle_line(line),
                          oracle_->handle_line(line));
  }
  // Error surfaces must match verbatim (no vclock on errors).
  for (const char* line :
       {"MEMBER g 900", "MEMBER g", "MEMBER nosuch 0", "TOPK g 0"}) {
    EXPECT_EQ(router_->handle_line(line), oracle_->handle_line(line)) << line;
  }
}

TEST_F(ShardedTierTest, EveryOkReadCarriesAVectorClock) {
  ingest("GEN g 400 1600 3");
  ingest("CLUSTER g sync");
  for (const char* line :
       {"MEMBER g 7", "SAME g 1 399", "TOPK g 3", "SUMMARY g"}) {
    const std::string resp = router_->handle_line(line);
    ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
    const auto f = fields_of(resp);
    ASSERT_TRUE(f.count("vclock")) << resp;
    EXPECT_EQ(f.at("vclock"), "1:1") << resp;
  }
}

TEST_F(ShardedTierTest, DistClusterMatchesSimulationCodelength) {
  ingest("GEN g 800 3200 17");
  const std::string resp = router_->handle_line("CLUSTER g mode=dist");
  ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
  const auto f = fields_of(resp);
  ASSERT_TRUE(f.count("codelength")) << resp;
  const double live = std::stod(f.at("codelength"));

  // The live superstep protocol is run_distributed_infomap over TCP: same
  // kernels, same rank ranges, same apply order — same codelength.
  gen::ChungLuParams params;
  params.n = 800;
  params.target_edges = 3200;
  const auto graph = gen::chung_lu(params, 17);
  DistOptions opts;
  opts.num_ranks = kShards;
  const DistResult sim = dist::run_distributed_infomap(graph, opts);
  EXPECT_NEAR(live, sim.codelength, 1e-4) << "live=" << live
                                          << " sim=" << sim.codelength;

  // And within 0.5% of the single-process sync result (ISSUE 9 acceptance).
  const auto sync = fields_of(oracle_->handle_line("CLUSTER g sync"));
  const double seq = std::stod(sync.at("codelength"));
  EXPECT_LT(std::fabs(live - seq) / seq, 0.005);

  // The committed snapshot serves ordinary reads.
  const std::string member = router_->handle_line("MEMBER g 5");
  EXPECT_EQ(member.substr(0, 2), "OK") << member;
}

// The router checks a write's arity and options from the verb table before
// it broadcasts: a malformed write costs no shard call and gets the
// session's answer word for word.
TEST_F(ShardedTierTest, MalformedWritesNeverFanOut) {
  ingest("GEN g 300 1200 4");
  const obs::Counter& calls =
      router_->metrics().counter("asamap_router_shard_calls_total");
  for (const char* line :
       {"GEN g", "ADD_EDGE g 1", "APPLY", "CLUSTER g sync bogus"}) {
    const std::uint64_t before = calls.value();
    const std::string resp = router_->handle_line(line);
    EXPECT_EQ(resp, oracle_->handle_line(line)) << line;
    EXPECT_EQ(resp.rfind("ERR invalid_argument", 0), 0u) << resp;
    EXPECT_EQ(calls.value(), before) << line;
  }
}

// mode=dist is the router's one extra CLUSTER option; the others are the
// session's and are checked before any DCLUSTER step starts.
TEST_F(ShardedTierTest, DistClusterRejectsBadOptionsBeforeBegin) {
  ingest("GEN g 300 1200 4");
  const obs::Counter& calls =
      router_->metrics().counter("asamap_router_shard_calls_total");
  const std::uint64_t before = calls.value();
  EXPECT_EQ(router_->handle_line("CLUSTER g mode=dist bogus"),
            "ERR invalid_argument CLUSTER: unknown option 'bogus'");
  EXPECT_EQ(router_->handle_line("CLUSTER g mode=dist deadline_ms=x"),
            "ERR invalid_argument CLUSTER: bad deadline_ms value");
  EXPECT_EQ(calls.value(), before);
  for (const auto& session : sessions_) {
    EXPECT_EQ(session->metrics()
                  .counter("asamap_shard_dcluster_steps_total")
                  .value(),
              0u);
  }
  // The session has no distributed mode: there mode=dist is unknown.
  EXPECT_EQ(oracle_->handle_line("CLUSTER g mode=dist"),
            "ERR invalid_argument CLUSTER: unknown option 'mode=dist'");
}

TEST_F(ShardedTierTest, WrongShardReadsAreRefusedAtTheShard) {
  ingest("GEN g 600 2400 5");
  ingest("CLUSTER g sync");
  // Vertex 0 belongs to shard 0; shard 1 must refuse it with an owner hint
  // rather than quietly answering from its replica.
  const std::string refused = shards_[1]->handle_line("MEMBER g 0");
  EXPECT_EQ(refused.rfind("ERR not_found wrong_shard", 0), 0u) << refused;
  EXPECT_NE(refused.find("owner=0"), std::string::npos) << refused;
  // SHARD FORWARD bypasses the range check — the router's failover path.
  const std::string forwarded =
      shards_[1]->handle_line("SHARD FORWARD MEMBER g 0");
  EXPECT_EQ(forwarded, oracle_->handle_line("MEMBER g 0"));
  EXPECT_EQ(shards_[1]->handle_line("SHARD INFO"), "OK shard=1 shards=2");
}

TEST(ShardMetrics, OwnRangeReadsCountInTheInnerSession) {
  // TOPK and SUMMARY partials are answered by the shard itself, not the
  // inner session; they must still land in its per-verb series, which the
  // shard's HEALTH SLOs read.
  serve::ServeSession inner(tier_config());
  dist::ShardSession shard(inner, dist::ShardConfig{0, 2});
  for (const char* line :
       {"GEN g 200 800 3", "CLUSTER g sync", "TOPK g 3", "TOPK g 3",
        "SUMMARY g"}) {
    ASSERT_EQ(shard.handle_line(line).substr(0, 2), "OK") << line;
  }
  const obs::MetricRegistry& reg = inner.metrics();
  EXPECT_EQ(reg.counter_total("asamap_serve_requests_total", "verb=\"TOPK\""),
            2u);
  EXPECT_EQ(
      reg.counter_total("asamap_serve_requests_total", "verb=\"SUMMARY\""),
      1u);
  EXPECT_EQ(reg.histogram_merged_all("asamap_serve_request_seconds").count(),
            5u);
  EXPECT_EQ(reg.counter_total("asamap_serve_errors_total"), 0u);
}

TEST_F(ShardedTierTest, ShardDownMidScatterDegradesAndRetries) {
  ingest("GEN g 500 2000 7");
  ingest("CLUSTER g sync");
  servers_[1]->stop();  // shard 1 dies; shard 0 still holds a full replica

  for (const char* line : {"MEMBER g 499", "SAME g 0 499", "TOPK g 4",
                           "SUMMARY g"}) {
    const std::string resp = router_->handle_line(line);
    ASSERT_EQ(resp.substr(0, 2), "OK") << line << " -> " << resp;
    const auto f = fields_of(resp);
    EXPECT_EQ(f.count("degraded") ? f.at("degraded") : "", "1") << resp;
    expect_matches_oracle(resp, oracle_->handle_line(line));
  }
  const auto stats = fields_of(router_->handle_line("STATS"));
  EXPECT_GT(std::stoull(stats.at("retries")), 0u);
  EXPECT_GT(std::stoull(stats.at("degraded")), 0u);
  EXPECT_GE(router_->metrics().counter_total("asamap_router_retries_total"),
            1u);
  const std::string shard_status = router_->handle_line("SHARDS");
  EXPECT_NE(shard_status.find("status=up,down"), std::string::npos)
      << shard_status;

  // Replicated ingest, by contrast, must refuse rather than fork replicas.
  const std::string gen = router_->handle_line("GEN h 100 400 1");
  EXPECT_EQ(gen.rfind("ERR unavailable", 0), 0u) << gen;
}

TEST_F(ShardedTierTest, VersionSkewIsLabeledStale) {
  ingest("GEN g 500 2000 7");
  ingest("CLUSTER g sync");
  // Recluster shard 1's replica behind the router's back: versions now
  // disagree (shard0 snapshot v1, shard1 v2).
  ASSERT_EQ(sessions_[1]->handle_line("CLUSTER g sync").substr(0, 2), "OK");

  const std::string topk = router_->handle_line("TOPK g 3");
  EXPECT_EQ(topk.rfind("OK STALE", 0), 0u) << topk;
  EXPECT_NE(topk.find("reason=version_skew"), std::string::npos) << topk;
  const auto f = fields_of(topk);
  ASSERT_TRUE(f.count("vclock")) << topk;
  EXPECT_EQ(f.at("vclock"), "1:2") << topk;

  // A cross-shard SAME whose legs observe different versions is also stale.
  const std::string same = router_->handle_line("SAME g 0 499");
  EXPECT_EQ(same.rfind("OK STALE", 0), 0u) << same;
  EXPECT_NE(same.find("reason=version_skew"), std::string::npos) << same;

  const auto stats = fields_of(router_->handle_line("STATS"));
  EXPECT_GT(std::stoull(stats.at("stale")), 0u);
}

TEST_F(ShardedTierTest, RouterAndShardSpansFormOneTraceTree) {
  ingest("GEN g 300 1200 5");
  ingest("CLUSTER g sync");
  const auto before = obs::FlightRecorder::instance().snapshot().size();
  ASSERT_EQ(router_->handle_line("TOPK g 3").substr(0, 2), "OK");
  (void)before;

  // Both ends record into this process's recorder: the router's root span
  // ("TOPK") and each shard's "shard.request" span, joined by TRACECTX.
  const auto events = obs::FlightRecorder::instance().snapshot();
  std::uint64_t root_trace = 0;
  for (const auto& e : events) {
    if (e.name != nullptr && std::string_view(e.name) == "TOPK" &&
        e.kind == obs::TraceKind::kBegin) {
      root_trace = e.trace_id;  // newest TOPK root wins
    }
  }
  ASSERT_NE(root_trace, 0u);
  int shard_spans = 0;
  for (const auto& e : events) {
    if (e.trace_id == root_trace && e.name != nullptr &&
        std::string_view(e.name) == "shard.request" &&
        e.kind == obs::TraceKind::kBegin) {
      ++shard_spans;
      EXPECT_NE(e.parent_id, 0u) << "shard span must parent under router";
    }
  }
  EXPECT_GE(shard_spans, 2) << "scatter must reach both shards in-trace";
}

// Regression for a data race: a worker rendering TOPK/SUMMARY from a
// cached RangeView while another thread republishes the snapshot (which
// rebuilds the view) must not observe a mutating vector.  The view is now
// an immutable shared_ptr swapped under the lock; under TSAN the old
// in-place rebuild is flagged here.
TEST_F(ShardedTierTest, ConcurrentRangeReadsDuringRepublishStaySafe) {
  ingest("GEN g 400 1600 9");
  ingest("CLUSTER g sync");
  std::atomic<bool> stop{false};
  std::thread republisher([&] {
    for (int i = 0; i < 20; ++i) {
      sessions_[0]->handle_line("CLUSTER g sync");
    }
    stop.store(true);
  });
  std::thread summary_reader([&] {
    while (!stop.load()) {
      const std::string r = shards_[0]->handle_line("SUMMARY g");
      EXPECT_EQ(r.substr(0, 2), "OK") << r;
    }
  });
  while (!stop.load()) {
    const std::string r = shards_[0]->handle_line("TOPK g 4");
    ASSERT_EQ(r.substr(0, 2), "OK") << r;
  }
  republisher.join();
  summary_reader.join();
}

// SAME must recover from a stale cached vertex count the same way MEMBER
// does: when the graph is re-ingested with a different n behind the
// router's back, a shard's `wrong_shard` refusal triggers a relearn +
// retry instead of leaking the internal error to the client.
TEST_F(ShardedTierTest, SameRelearnsStaleVertexCountAfterReingest) {
  ingest("GEN g 600 2400 5");
  ingest("CLUSTER g sync");
  // Prime the router's cached vertex count (n=600, boundary 300).
  ASSERT_EQ(router_->handle_line("SAME g 1 2").substr(0, 2), "OK");
  // Re-ingest with n=900 (boundary 450) directly on the shards.
  for (auto& s : sessions_) {
    ASSERT_EQ(s->handle_line("GEN g 900 3600 11").substr(0, 2), "OK");
    ASSERT_EQ(s->handle_line("CLUSTER g sync").substr(0, 2), "OK");
  }
  // Co-located under the stale mapping (both → shard 1) but really owned
  // by shard 0: must answer OK after relearning, not ERR wrong_shard.
  const std::string colo = router_->handle_line("SAME g 350 400");
  EXPECT_EQ(colo.substr(0, 2), "OK") << colo;
  EXPECT_TRUE(fields_of(colo).count("same")) << colo;
  // Cross-shard under the stale mapping with one mis-owned MEMBER leg.
  const std::string cross = router_->handle_line("SAME g 100 400");
  EXPECT_EQ(cross.substr(0, 2), "OK") << cross;
  EXPECT_TRUE(fields_of(cross).count("same")) << cross;
}

// Chunked DCLUSTER APPLY (the mover list split across bounded frames with
// `more`) must be semantics-preserving: same codelength as the unchunked
// protocol and the rank-partitioned simulation.
TEST_F(ShardedTierTest, ChunkedDistClusterMatchesSimulation) {
  dist::RouterConfig rc = base_router_config();
  rc.apply_chunk_bytes = 256;  // a handful of mover ids per APPLY frame
  router_ = std::make_unique<dist::Router>(rc);
  EXPECT_EQ(router_->connect(), kShards);
  ingest("GEN g 800 3200 17");
  const std::string resp = router_->handle_line("CLUSTER g mode=dist");
  ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
  const double live = std::stod(fields_of(resp).at("codelength"));

  gen::ChungLuParams params;
  params.n = 800;
  params.target_edges = 3200;
  const auto graph = gen::chung_lu(params, 17);
  DistOptions opts;
  opts.num_ranks = kShards;
  const DistResult sim = dist::run_distributed_infomap(graph, opts);
  EXPECT_NEAR(live, sim.codelength, 1e-4)
      << "live=" << live << " sim=" << sim.codelength;
}

// A fake shard whose only answer is the ring-full rejection: backpressure
// must propagate through the router verbatim, not fail the shard.
TEST(RouterBackpressure, RingFullRejectionPropagatesVerbatim) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);

  std::atomic<bool> stop{false};
  std::thread responder([&] {
    while (!stop.load()) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      // One rejection per connection, then close: an idle-but-open pooled
      // connection must never wedge this thread past the test's end.
      char buf[4096];
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r > 0) {
        std::string out;
        net::append_frame("ERR rejected worker ring full; retry later", out);
        (void)!::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
      ::close(fd);
    }
  });

  dist::RouterConfig rc;
  net::ClientConfig ep;
  ep.port = ntohs(addr.sin_port);
  rc.shards = {ep, ep};  // both "shards" are the overloaded responder
  rc.retry.initial_backoff = std::chrono::milliseconds(1);
  rc.retry.max_backoff = std::chrono::milliseconds(2);
  dist::Router router(rc);

  const std::string resp = router.handle_line("SUMMARY g");
  EXPECT_EQ(resp, "ERR rejected worker ring full; retry later");
  // Rejections were retried (shard alive, just shedding load)...
  EXPECT_GE(router.metrics().counter_total("asamap_router_retries_total"),
            1u);
  // ...but never tripped the breaker or marked the shard down.
  const std::string shards = router.handle_line("SHARDS");
  EXPECT_NE(shards.find("status=up,up"), std::string::npos) << shards;
  EXPECT_NE(shards.find("breakers=closed,closed"), std::string::npos)
      << shards;

  stop.store(true);
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  responder.join();
}

// Forty attempts against a port nothing listens on: every retry sleeps on
// the decorrelated schedule, capped at max_backoff (the exponential
// `1 << (attempt - 1)` it replaced was undefined from attempt 33 on), and
// the read fails cleanly.  The ASan+UBSan job runs this too.
TEST(RouterRetry, FortyAttemptsAgainstAClosedPortAnswerUnavailable) {
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ::close(probe);  // bound, never listened: connects are refused

  dist::RouterConfig rc;
  net::ClientConfig ep;
  ep.port = ntohs(addr.sin_port);
  ep.timeout_ms = 1000;
  rc.shards = {ep};
  rc.retry.max_attempts = 40;
  rc.retry.initial_backoff = std::chrono::milliseconds(1);
  rc.retry.max_backoff = std::chrono::milliseconds(1);
  dist::Router router(rc);

  const std::string resp = router.handle_line("SUMMARY g");
  EXPECT_EQ(resp.rfind("ERR unavailable", 0), 0u) << resp;
  EXPECT_EQ(router.metrics().counter_total("asamap_router_retries_total"),
            39u);
}

// A backend that answers gathered reads *globally* (no range=/partial=
// fields — the shape a backend not running with --shard-id produces) must
// be refused loudly: merging its reply would yield a silently wrong
// "OK k=0 top=" (TOPK) or double-counted vertices (SUMMARY).
TEST(RouterMisconfiguration, NonShardGlobalRepliesAreRefusedNotMisMerged) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);

  std::thread responder([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    for (;;) {
      char buf[65536];
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      std::string out;
      net::append_frame("OK version=1 k=2 top=0:0.5,1:0.5", out);
      if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) <= 0) break;
    }
    ::close(fd);
  });

  {
    dist::RouterConfig rc;
    net::ClientConfig ep;
    ep.port = ntohs(addr.sin_port);
    ep.timeout_ms = 5000;
    rc.shards = {ep};
    dist::Router router(rc);
    const std::string topk = router.handle_line("TOPK g 3");
    EXPECT_EQ(topk.rfind("ERR misconfigured", 0), 0u) << topk;
    const std::string summary = router.handle_line("SUMMARY g");
    EXPECT_EQ(summary.rfind("ERR misconfigured", 0), 0u) << summary;
  }  // destroying the router closes the pooled connection → responder exits

  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  responder.join();
}

// --- OpsPin: the router's ops verbs as a client sees them ----------------
// The twin of the OpsPin tests in test_serve.cpp, on a router over zero
// shards (the ops verbs never need one; the FLEET forms report an empty
// fleet).

TEST(OpsPin, RouterEnvelopeHeaders) {
  dist::Router router{dist::RouterConfig{}};
  const std::string prom = "OK format=prometheus bytes=<payload>";
  const std::string json = "OK format=json bytes=<payload>";
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"METRICS", prom},
      {"METRICS prom", prom},
      {"METRICS json", json},
      {"METRICS WINDOW", prom},
      {"METRICS WINDOW prom", prom},
      {"METRICS WINDOW prometheus", prom},
      {"METRICS WINDOW json", json},
      {"METRICS FLEET", prom},
      {"METRICS FLEET prom", prom},
      {"METRICS FLEET prometheus", prom},
      {"METRICS FLEET json", json},
      {"HEALTH", "OK status=healthy slos=3 bytes=<payload>"},
      {"HEALTH FLEET",
       "OK status=healthy shards=0 up=0 down=0 bytes=<payload>"},
      {"TRACE DUMP", "OK format=chrome-trace bytes=<payload>"},
  };
  for (const auto& [line, header] : pins) {
    EXPECT_EQ(ops_pin::pinned_header(router.handle_line(line)), header)
        << line;
  }
}

TEST(OpsPin, RouterJsonScrapesCarryTheEnvelope) {
  dist::Router router{dist::RouterConfig{}};
  const std::vector<std::string> envelope = {
      "bench", "host_max_threads", "single_core_caveat", "git_rev",
      "timestamp_utc"};
  const std::vector<std::pair<std::string, std::vector<std::string>>> pins =
      {{"router_metrics", {"metrics"}},
       {"router_metrics_window", {"window"}},
       {"router_metrics_fleet", {"shards", "up", "down", "down_list",
                                 "fleet"}}};
  const char* lines[] = {"METRICS json", "METRICS WINDOW json",
                         "METRICS FLEET json"};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    std::string payload;
    ops_pin::pinned_header(router.handle_line(lines[i]), &payload);
    std::vector<std::string> keys = envelope;
    keys.insert(keys.end(), pins[i].second.begin(), pins[i].second.end());
    EXPECT_EQ(ops_pin::top_level_keys(payload), keys) << lines[i];
    EXPECT_EQ(ops_pin::string_member(payload, "bench"), pins[i].first);
    EXPECT_EQ(payload.substr(payload.size() - 2), "\n}") << lines[i];
  }
}

TEST(OpsPin, RouterHealthPayloadListsEverySlo) {
  dist::Router router{dist::RouterConfig{}};
  std::string payload;
  ops_pin::pinned_header(router.handle_line("HEALTH"), &payload);
  EXPECT_EQ(ops_pin::slo_heads(payload),
            (std::vector<std::string>{"slo=availability status=ok",
                                      "slo=latency_p99 status=ok",
                                      "slo=shards status=ok"}));
}

// TRACE STATUS carries the same fields as the session's, dropped_fraction=
// included (tools/trace_report.py parses it).
TEST(OpsPin, RouterTraceStatusReportsDroppedFraction) {
  dist::Router router{dist::RouterConfig{}};
  const std::string status = ops_pin::masked(
      router.handle_line("TRACE STATUS"),
      {"enabled", "rings", "capacity", "recorded", "dropped",
       "dropped_fraction"});
  const std::string want =
      "OK enabled=# rings=# capacity=# recorded=# dropped=# "
      "dropped_fraction=#";
  EXPECT_TRUE(status == want || status == want + " warning=ring_wrapped")
      << status;
}

TEST(OpsPin, RouterTraceMarkDropsAnInstant) {
  dist::Router router{dist::RouterConfig{}};
  EXPECT_EQ(router.handle_line("TRACE MARK router  deploy"),
            "OK marked=router deploy");
  EXPECT_NE(router.handle_line("TRACE DUMP").find("\"name\":\"router deploy\""),
            std::string::npos);
}

TEST(OpsPin, RouterMetricsAcceptsThePrometheusAlias) {
  dist::Router router{dist::RouterConfig{}};
  EXPECT_EQ(ops_pin::pinned_header(router.handle_line("METRICS prometheus")),
            "OK format=prometheus bytes=<payload>");
}

TEST(OpsPin, RouterStatsIdentitySuffix) {
  dist::Router router{dist::RouterConfig{}};
  const std::string stats = router.handle_line("STATS");
  const std::size_t at = stats.find(" uptime=");
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_EQ(ops_pin::masked(stats.substr(at), {"uptime"}),
            std::string(" uptime=# rev=") + obs::build_git_rev() +
                " build=" + obs::build_mode() + " faults=" +
                (fault::kFaultInjectionEnabled ? "1" : "0") +
                " accumulator=flat");
}

// Malformed ops verbs get the session's answers word for word; only the
// router's own FLEET forms have router text.
TEST(OpsPin, RouterMalformedForms) {
  dist::Router router{dist::RouterConfig{}};
  serve::ServeSession session(tier_config());
  for (const std::string line :
       {"METRICS json extra", "METRICS yaml", "METRICS WINDOW json extra",
        "METRICS WINDOW yaml", "HEALTH now", "TRACE", "TRACE BOGUS",
        "TRACE DUMP extra", "TRACE STATUS extra", "TRACE MARK"}) {
    EXPECT_EQ(router.handle_line(line), session.handle_line(line)) << line;
  }
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"METRICS FLEET json extra",
       "ERR invalid_argument usage: METRICS FLEET [prom|json]"},
      {"METRICS FLEET yaml",
       "ERR invalid_argument METRICS FLEET: unknown format 'yaml' (want "
       "prom or json)"},
  };
  for (const auto& [line, want] : pins) {
    EXPECT_EQ(router.handle_line(line), want) << line;
  }
}

}  // namespace
