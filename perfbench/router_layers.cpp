// The dist layer's per-layer figures, measured inside the serve_reads
// traced run: a dist::Router behind a NetServer over two ShardSessions,
// each behind its own NetServer, all in this process.  The graph is
// ingested and clustered through the router (replicated to both shards),
// then the read mix goes over TCP to the router in a closed loop.  The
// serve_reads session, a single process on the same graph, is the oracle.
//
// Routed reads are not an end-to-end workload: on a 4-vCPU KVM guest their
// closed-loop throughput moved 2.8k..11.1k req/s across runs (README.md).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "asamap/dist/partition_map.hpp"
#include "asamap/dist/router.hpp"
#include "asamap/dist/shard.hpp"
#include "asamap/net/client.hpp"
#include "asamap/net/server.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::size_t kWindow = 64;
constexpr double kSeconds = 3.0;

/// The whole tier.  Teardown runs client, router front end, router,
/// shard servers, shard wrappers, shard sessions: each object is destroyed
/// before anything it references.
struct Tier {
  std::vector<std::unique_ptr<asamap::serve::ServeSession>> sessions;
  std::vector<std::unique_ptr<asamap::dist::ShardSession>> shards;
  std::vector<std::unique_ptr<asamap::net::NetServer>> shard_servers;
  std::unique_ptr<asamap::dist::Router> router;
  std::unique_ptr<asamap::net::NetServer> front;
  std::unique_ptr<PipeClient> client;

  Tier() = default;
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;
  ~Tier() {
    client.reset();
    front.reset();
    router.reset();
    shard_servers.clear();
    shards.clear();
    sessions.clear();
  }
};

/// Starts the tier and ingests + clusters `gen_line`'s graph through the
/// router.
bool start_tier(Tier& t, Tracer& tr, const std::string& gen_line,
                const std::string& cluster_line) {
  asamap::serve::SessionConfig cfg;
  cfg.cluster_threads = 1;
  asamap::dist::RouterConfig rc;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    t.sessions.push_back(std::make_unique<asamap::serve::ServeSession>(cfg));
    t.shards.push_back(std::make_unique<asamap::dist::ShardSession>(
        *t.sessions.back(), asamap::dist::ShardConfig{i, kShards}));
    t.shard_servers.push_back(
        std::make_unique<asamap::net::NetServer>(*t.shards.back()));
    if (!t.shard_servers.back()->start().ok()) return false;
    asamap::net::ClientConfig ep;
    ep.port = t.shard_servers.back()->port();
    rc.shards.push_back(ep);
  }
  t.router = std::make_unique<asamap::dist::Router>(rc);
  if (t.router->connect() != kShards) return false;
  t.front = std::make_unique<asamap::net::NetServer>(*t.router);
  if (!t.front->start().ok()) return false;
  t.client = std::make_unique<PipeClient>();
  if (!t.client->connect(t.front->port())) return false;
  std::string reply;
  for (const std::string* line : {&gen_line, &cluster_line}) {
    Span sp(tr, "dist.Router ingest (replicated)", "dist");
    if (!t.client->call(*line, reply) || reply.rfind("OK", 0) != 0) {
      std::printf("router: '%s' failed: %s\n", line->c_str(), reply.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

void measure_router_layers(Report& rep, Tracer& tr, const std::string& gen_line,
                           const std::string& graph,
                           const std::vector<std::string>& mix,
                           const asamap::serve::PartitionSnapshot& oracle) {
  Tier t;
  const bool up = start_tier(t, tr, gen_line, "CLUSTER " + graph + " sync");
  rep.oracle(up, "router tier: shards, router, replicated GEN + CLUSTER");
  if (!up) return;

  // One shard's round trip, called directly through net::Client with a
  // MEMBER of a vertex shard 0 owns.
  asamap::net::Client direct;
  asamap::net::ClientConfig ep;
  ep.port = t.shard_servers[0]->port();
  std::vector<double> rtt_us;
  std::uint64_t rtt_failed = 0;
  const auto range = asamap::dist::make_ranges(
      static_cast<asamap::graph::VertexId>(oracle.communities.size()),
      kShards)[0];
  if (direct.connect(ep).ok()) {
    std::string reply;
    for (int i = 0; i < 2000; ++i) {
      const auto v = range.begin + static_cast<asamap::graph::VertexId>(
                                       (i * 7919) % (range.end - range.begin));
      Span sp(tr, "net.Client shard round trip", "net");
      const std::uint64_t c0 = now_ns();
      const bool ok =
          direct.request("MEMBER " + graph + " " + std::to_string(v), reply)
              .ok() &&
          reply.rfind("OK", 0) == 0;
      rtt_us.push_back(seconds_since(c0) * 1e6);
      rep.op(ok);
      if (!ok) ++rtt_failed;
    }
  }
  const double rtt = median(rtt_us);

  // Routed reads answer OK (never STALE or degraded); every 16th is checked
  // against the single-process partition.
  const std::vector<std::uint32_t> part(oracle.communities.begin(),
                                        oracle.communities.end());
  const ReplyCheck check = [&](std::size_t i, std::string_view r) {
    const std::string reply(r);
    if (reply.rfind("OK ", 0) != 0 || reply.rfind("OK STALE", 0) == 0 ||
        reply.find("degraded=1") != std::string::npos) {
      return false;
    }
    return i % 16 != 0 ||
           read_matches(mix[i], reply, part, oracle.num_communities);
  };
  const auto& reg = t.router->metrics();
  const LoadResult warm = t.client->closed_loop(mix, kWindow, 0.5, 0.5, check);
  const double calls0 =
      static_cast<double>(reg.counter_total("asamap_router_shard_calls_total"));
  const double reqs0 =
      static_cast<double>(reg.counter_sum("asamap_router_requests_total"));
  const std::uint64_t root =
      tr.begin("client closed-loop reads via router", "dist");
  const LoadResult reads =
      t.client->closed_loop(mix, kWindow, kSeconds, 0.25, check);
  tr.end(root);
  rep.ops(warm.sent + reads.sent, warm.failed + reads.failed);
  const double calls_per_read =
      (static_cast<double>(reg.counter_total("asamap_router_shard_calls_total")) -
       calls0) /
      std::max(static_cast<double>(reg.counter_sum("asamap_router_requests_total")) -
                   reqs0,
               1.0);
  const double rps = median(reads.slice_rps);
  tr.add_child(root, "shard round trips (calls x direct rtt)", "net",
               static_cast<double>(reads.received) * calls_per_read * rtt *
                   1e-6);

  rep.layer("dist.router_rps", rps, "1/s");
  rep.layer("dist.shard_rtt_us", rtt, "us");
  rep.layer("dist.shard_calls_per_read", calls_per_read, "count");
  rep.layer("dist.router_self_us", 1e6 / rps - calls_per_read * rtt, "us");
  rep.layer("dist.scatter_p99_us",
            reg.histogram_merged_all("asamap_router_scatter_seconds")
                    .quantile_seconds(0.99) *
                1e6,
            "us");
  rep.layer("dist.retries",
            static_cast<double>(reg.counter_total("asamap_router_retries_total")),
            "count");
  rep.layer("dist.degraded",
            static_cast<double>(reg.counter_total("asamap_router_degraded_total")),
            "count");
  std::printf("router: %.0f req/s closed loop (iqr %.1f%%), shard rtt %.1f us, "
              "%.3f shard calls per read\n",
              rps, 100.0 * iqr_frac(reads.slice_rps), rtt, calls_per_read);
  rep.print_layer_table(tr, "client closed-loop reads via router",
                        static_cast<double>(reads.received), std::nan(""));
  rep.oracle(warm.failed + reads.failed + rtt_failed == 0,
             "every routed read OK, sampled answers equal the single-process "
             "oracle");
}

}  // namespace perfbench
