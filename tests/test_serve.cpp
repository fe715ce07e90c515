// Tests for the serving layer: registry ingestion/dedup/eviction, scheduler
// lanes/backpressure/cancellation/deadlines, snapshot-isolated partition
// storage, the session line protocol, and the concurrent stress cases the
// subsystem exists for (readers racing snapshot swaps, shutdown with jobs
// in flight).  The stress tests run with cluster_threads=1 so every thread
// here is a std::thread the sanitizers can reason about.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asamap/fault/fault.hpp"
#include "asamap/gen/generators.hpp"
#include "asamap/obs/build_info.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/serve/graph_registry.hpp"
#include "asamap/serve/job_scheduler.hpp"
#include "asamap/serve/partition_store.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/rng.hpp"
#include "ops_pin.hpp"

namespace {

using namespace asamap;
using namespace asamap::serve;
using namespace std::chrono_literals;

constexpr const char* kTriangle = "0 1\n1 2\n2 0\n";

graph::CsrGraph small_graph(std::uint64_t seed = 7) {
  gen::ChungLuParams params;
  params.n = 300;
  params.target_edges = 1200;
  return gen::chung_lu(params, seed);
}

SessionConfig test_config() {
  SessionConfig config;
  config.cluster_threads = 1;  // scheduler workers are the concurrency
  config.scheduler.workers = 2;
  return config;
}

// --- GraphRegistry -------------------------------------------------------

TEST(GraphRegistry, PutTextParsesAndStores) {
  GraphRegistry reg;
  ASSERT_TRUE(reg.put_text("tri", kTriangle).ok());
  const auto g = reg.get("tri");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_arcs(), 6u);  // undirected default
  EXPECT_EQ(reg.stats().entries, 1u);
}

TEST(GraphRegistry, RejectsMalformedUploadWithLineNumber) {
  GraphRegistry reg;
  const auto status = reg.put_text("bad", "0 1\n0 banana\n");
  EXPECT_EQ(status.code, ServeCode::kParseError);
  EXPECT_NE(status.message.find("line 2"), std::string::npos);
  EXPECT_NE(status.message.find("banana"), std::string::npos);
  EXPECT_EQ(reg.get("bad"), nullptr);
}

TEST(GraphRegistry, RejectsEmptyUpload) {
  GraphRegistry reg;
  EXPECT_EQ(reg.put_text("empty", "# only comments\n").code,
            ServeCode::kInvalidArgument);
}

TEST(GraphRegistry, RejectsOversizedVertexId) {
  RegistryConfig config;
  config.max_vertex_id = 1000;
  GraphRegistry reg(config);
  const auto status = reg.put_text("big", "0 4000000\n");
  EXPECT_EQ(status.code, ServeCode::kParseError);
  EXPECT_NE(status.message.find("maximum vertex id"), std::string::npos);
}

TEST(GraphRegistry, DedupSharesOneGraphAcrossNames) {
  GraphRegistry reg;
  ASSERT_TRUE(reg.put_text("a", kTriangle).ok());
  ASSERT_TRUE(reg.put_text("b", kTriangle).ok());
  EXPECT_EQ(reg.get("a").get(), reg.get("b").get());  // same object
  const auto stats = reg.stats();
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
  // Memory charged once: dropping the alias frees nothing.
  const auto before = stats.resident_bytes;
  reg.erase("b");
  EXPECT_EQ(reg.stats().resident_bytes, before);
}

TEST(GraphRegistry, EvictsLeastRecentlyUsedUnderBudget) {
  RegistryConfig config;
  config.memory_budget_bytes =
      GraphRegistry::approx_bytes(small_graph()) * 3 / 2;  // fits one
  GraphRegistry reg(config);
  ASSERT_TRUE(reg.put_graph("g1", small_graph(1)).ok());
  ASSERT_TRUE(reg.put_graph("g2", small_graph(2)).ok());
  const auto stats = reg.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(reg.get("g1"), nullptr);  // cold entry went first
  EXPECT_NE(reg.get("g2"), nullptr);  // the insert itself is never evicted
}

TEST(GraphRegistry, EvictedGraphSurvivesForHolders) {
  RegistryConfig config;
  config.memory_budget_bytes = GraphRegistry::approx_bytes(small_graph());
  GraphRegistry reg(config);
  ASSERT_TRUE(reg.put_graph("g1", small_graph(1)).ok());
  const auto held = reg.get("g1");
  ASSERT_TRUE(reg.put_graph("g2", small_graph(2)).ok());  // evicts g1
  EXPECT_EQ(reg.get("g1"), nullptr);
  EXPECT_EQ(held->num_vertices(), 300u);  // still alive through our ref
}

// --- JobScheduler --------------------------------------------------------

TEST(JobScheduler, RunsJobsToCompletion) {
  JobScheduler sched;
  std::atomic<int> ran{0};
  const auto a = sched.submit([&](const JobContext&) { ++ran; });
  const auto b = sched.submit([&](const JobContext&) { ++ran; });
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  EXPECT_EQ(sched.wait(a.id), JobState::kDone);
  EXPECT_EQ(sched.wait(b.id), JobState::kDone);
  EXPECT_EQ(ran.load(), 2);
}

TEST(JobScheduler, FailedJobReportsFailed) {
  JobScheduler sched;
  const auto r = sched.submit([](const JobContext&) { throw 1; });
  EXPECT_EQ(sched.wait(r.id), JobState::kFailed);
  EXPECT_EQ(sched.stats().failed, 1u);
}

// One worker pinned on a gate job; the backlog then proves lane priority
// and backpressure without timing assumptions.
struct GatedScheduler {
  SchedulerConfig config;
  std::atomic<bool> release{false};
  std::atomic<bool> gate_running{false};
  std::optional<JobScheduler> sched;
  std::uint64_t gate_id = 0;

  explicit GatedScheduler(std::size_t batch_capacity = 2) {
    config.workers = 1;
    config.batch_capacity = batch_capacity;
    config.interactive_capacity = 8;
    sched.emplace(config);
    gate_id = sched->submit([this](const JobContext&) {
                       gate_running = true;
                       while (!release) std::this_thread::sleep_for(1ms);
                     })
                  .id;
    while (!gate_running) std::this_thread::sleep_for(1ms);
  }
};

TEST(JobScheduler, InteractiveLaneDrainsBeforeBatch) {
  GatedScheduler g;
  std::vector<int> order;
  std::mutex order_mu;
  const auto record = [&](int tag) {
    return [&, tag](const JobContext&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  const auto batch = g.sched->submit(record(1), JobPriority::kBatch);
  const auto inter = g.sched->submit(record(2), JobPriority::kInteractive);
  ASSERT_TRUE(batch.accepted());
  ASSERT_TRUE(inter.accepted());
  g.release = true;
  g.sched->wait(batch.id);
  g.sched->wait(inter.id);
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // interactive jumped the earlier batch job
  EXPECT_EQ(order[1], 1);
}

TEST(JobScheduler, FullLaneRejectsWithReason) {
  GatedScheduler g(/*batch_capacity=*/1);
  ASSERT_TRUE(g.sched->submit([](const JobContext&) {}).accepted());
  const auto rejected = g.sched->submit([](const JobContext&) {});
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.status.code, ServeCode::kRejected);
  // The reject reason is a static literal (allocation-free hot path).
  EXPECT_TRUE(rejected.status.message.empty());
  EXPECT_NE(rejected.status.text().find("batch queue full"),
            std::string::npos);
  EXPECT_EQ(g.sched->stats().rejected, 1u);
  g.release = true;
}

TEST(JobScheduler, CancelQueuedJobNeverRuns) {
  GatedScheduler g;
  std::atomic<bool> ran{false};
  const auto r = g.sched->submit([&](const JobContext&) { ran = true; });
  EXPECT_TRUE(g.sched->cancel(r.id));
  EXPECT_EQ(g.sched->state(r.id), JobState::kCancelled);
  g.release = true;
  g.sched->wait(g.gate_id);
  EXPECT_FALSE(ran.load());
  EXPECT_FALSE(g.sched->cancel(r.id));  // already terminal
}

TEST(JobScheduler, CancelRunningJobStopsCooperatively) {
  JobScheduler sched;
  std::atomic<bool> started{false};
  const auto r = sched.submit([&](const JobContext& ctx) {
    started = true;
    while (!ctx.stop_requested()) std::this_thread::sleep_for(1ms);
  });
  while (!started) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(sched.cancel(r.id));
  EXPECT_EQ(sched.wait(r.id), JobState::kCancelled);
  EXPECT_EQ(sched.stats().cancelled, 1u);
}

TEST(JobScheduler, QueuedJobExpiresAtDeadline) {
  GatedScheduler g;
  std::atomic<bool> ran{false};
  const auto r = g.sched->submit([&](const JobContext&) { ran = true; },
                                 JobPriority::kBatch, 20ms);
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(g.sched->wait(r.id), JobState::kExpired);  // reaper, not a worker
  g.release = true;
  g.sched->wait(g.gate_id);
  EXPECT_FALSE(ran.load());
}

TEST(JobScheduler, RunningJobExpiresAtDeadline) {
  JobScheduler sched;
  const auto r = sched.submit(
      [&](const JobContext& ctx) {
        while (!ctx.stop_requested()) std::this_thread::sleep_for(1ms);
      },
      JobPriority::kBatch, 30ms);
  EXPECT_EQ(sched.wait(r.id), JobState::kExpired);
  EXPECT_EQ(sched.stats().expired, 1u);
}

TEST(JobScheduler, ShutdownWithJobsInFlightIsClean) {
  std::atomic<int> observed_stops{0};
  {
    SchedulerConfig config;
    config.workers = 2;
    JobScheduler sched(config);
    for (int i = 0; i < 6; ++i) {
      sched.submit([&](const JobContext& ctx) {
        while (!ctx.stop_requested()) std::this_thread::sleep_for(1ms);
        ++observed_stops;
      });
    }
    std::this_thread::sleep_for(20ms);  // let some start running
    sched.shutdown();
    const auto stats = sched.stats();
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.cancelled + stats.completed, 6u);
  }  // destructor repeats shutdown: must be idempotent
  EXPECT_GT(observed_stops.load(), 0);  // running jobs saw their stop flag
}

TEST(JobScheduler, SubmitAfterShutdownIsRejected) {
  JobScheduler sched;
  sched.shutdown();
  const auto r = sched.submit([](const JobContext&) {});
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(r.status.code, ServeCode::kShutdown);
}

// --- PartitionStore ------------------------------------------------------

TEST(PartitionStore, PublishAssignsMonotonicVersions) {
  PartitionStore store;
  EXPECT_EQ(store.snapshot("g"), nullptr);
  EXPECT_EQ(store.publish("g", {}), 1u);
  EXPECT_EQ(store.publish("g", {}), 2u);
  EXPECT_EQ(store.snapshot("g")->version, 2u);
  store.drop("g");
  EXPECT_EQ(store.snapshot("g"), nullptr);
  EXPECT_EQ(store.publish("g", {}), 3u);  // versions survive drop
}

TEST(PartitionStore, SnapshotFlowsAreConsistent) {
  auto g = std::make_shared<const graph::CsrGraph>(small_graph());
  core::InfomapOptions opts;
  const auto result = core::run_infomap_parallel(*g, opts, 1);
  const PartitionSnapshot snap = make_snapshot(g, result);
  ASSERT_EQ(snap.communities.size(), g->num_vertices());
  ASSERT_EQ(snap.community_flow.size(), snap.num_communities);
  ASSERT_EQ(snap.by_flow.size(), snap.num_communities);
  double total = 0.0;
  for (const double f : snap.community_flow) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t i = 1; i < snap.by_flow.size(); ++i) {
    EXPECT_GE(snap.community_flow[snap.by_flow[i - 1]],
              snap.community_flow[snap.by_flow[i]]);
  }
  EXPECT_GT(snap.modularity, 0.0);  // symmetric graph: computed
}

// --- ServeSession protocol ----------------------------------------------

TEST(ServeSession, ProtocolRoundTrip) {
  ServeSession session(test_config());
  EXPECT_EQ(session.handle_line("MEMBER g 0").substr(0, 13),
            "ERR not_found");
  ASSERT_EQ(session.handle_line("GEN g 500 2000 7").substr(0, 2), "OK");
  EXPECT_EQ(session.handle_line("MEMBER g 0").substr(0, 16),
            "ERR no_partition");
  const std::string clustered = session.handle_line("CLUSTER g sync");
  ASSERT_EQ(clustered.substr(0, 2), "OK") << clustered;
  EXPECT_NE(clustered.find("state=done"), std::string::npos);
  EXPECT_NE(clustered.find("version=1"), std::string::npos);
  EXPECT_EQ(session.handle_line("MEMBER g 0").substr(0, 2), "OK");
  EXPECT_NE(session.handle_line("SAME g 0 0").find("same=1"),
            std::string::npos);
  EXPECT_EQ(session.handle_line("TOPK g 3").substr(0, 2), "OK");
  EXPECT_NE(session.handle_line("SUMMARY g").find("interrupted=0"),
            std::string::npos);
  EXPECT_EQ(session.handle_line("STATS").substr(0, 2), "OK");
  EXPECT_EQ(session.handle_line("MEMBER g 500").substr(0, 20),
            "ERR invalid_argument");
  EXPECT_EQ(session.handle_line("DROP g"), "OK dropped=g");
  EXPECT_EQ(session.handle_line("SUMMARY g").substr(0, 13), "ERR not_found");
  EXPECT_EQ(session.handle_line("QUIT"), "OK bye");
  EXPECT_EQ(session.handle_line("NOPE").substr(0, 20), "ERR invalid_argument");
  EXPECT_EQ(session.handle_line("").substr(0, 3), "ERR");
}

TEST(ServeSession, GenDedupsIdenticalParameters) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN a 400 1600 9").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("GEN b 400 1600 9").substr(0, 2), "OK");
  EXPECT_EQ(session.registry().stats().dedup_hits, 1u);
  EXPECT_EQ(session.registry().get("a").get(),
            session.registry().get("b").get());
}

TEST(ServeSession, TightDeadlineYieldsTerminalState) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 500 2000 7").substr(0, 2), "OK");
  // deadline_ms=1 on a fresh submission: the job may still finish first on
  // a fast machine, so assert only a well-formed terminal response.
  const std::string resp =
      session.handle_line("CLUSTER g sync deadline_ms=1");
  ASSERT_EQ(resp.substr(0, 2), "OK") << resp;
  EXPECT_TRUE(resp.find("state=done") != std::string::npos ||
              resp.find("state=expired") != std::string::npos)
      << resp;
}

TEST(ServeSession, CancelledJobPublishesNothing) {
  auto config = test_config();
  config.scheduler.workers = 1;
  ServeSession session(config);
  ASSERT_EQ(session.handle_line("GEN g 500 2000 7").substr(0, 2), "OK");
  // Pin the single worker so the submission stays queued, then cancel it.
  std::atomic<bool> release{false};
  const auto gate = session.scheduler().submit([&](const JobContext&) {
    while (!release) std::this_thread::sleep_for(1ms);
  });
  const auto job = session.submit_recluster("g");
  ASSERT_TRUE(job.accepted());
  EXPECT_TRUE(session.scheduler().cancel(job.id));
  release = true;
  session.scheduler().wait(gate.id);
  EXPECT_EQ(session.scheduler().wait(job.id), JobState::kCancelled);
  EXPECT_EQ(session.snapshot("g"), nullptr);  // nothing was published
}

// --- Concurrent stress ---------------------------------------------------

// The reason the subsystem exists: readers must never observe a torn
// partition while re-cluster jobs swap snapshots underneath them.  Each
// reader validates full internal consistency of every snapshot it draws and
// that versions never move backwards.
TEST(ServeStress, ReadersSeeOnlyConsistentSnapshotsDuringSwaps) {
  constexpr int kReaders = 3;
  constexpr int kSwaps = 8;
  ServeSession session(test_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 300, 1200, 7).ok());
  const auto first = session.submit_recluster("g");
  ASSERT_TRUE(first.accepted());
  ASSERT_EQ(session.scheduler().wait(first.id), JobState::kDone);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      support::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = session.snapshot("g");
        if (!snap) continue;
        // A torn snapshot would trip one of these invariants.
        if (snap->version < last_version ||
            snap->communities.size() != 300 ||
            snap->community_flow.size() != snap->num_communities) {
          ++failures;
          return;
        }
        last_version = snap->version;
        const auto v = static_cast<graph::VertexId>(rng.next_below(300));
        if (snap->communities[v] >= snap->num_communities) {
          ++failures;
          return;
        }
        // The protocol path reads through the same snapshot mechanism.
        const std::string resp =
            session.handle_line("MEMBER g " + std::to_string(v));
        if (resp.rfind("OK", 0) != 0) ++failures;
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    const auto job = session.submit_recluster("g");
    ASSERT_TRUE(job.accepted());
    ASSERT_EQ(session.scheduler().wait(job.id), JobState::kDone);
  }
  stop = true;
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  const auto snap = session.snapshot("g");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, static_cast<std::uint64_t>(kSwaps) + 1);
}

// --- METRICS verb / observability --------------------------------------

TEST(ServeSession, MetricsVerbRendersBothFormatsFromOneRegistry) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 500 2000 7").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");

  const std::string prom = session.handle_line("METRICS");
  ASSERT_EQ(prom.rfind("OK format=prometheus bytes=", 0), 0u);
  // The envelope is self-describing: bytes=N counts exactly the payload
  // after the header line.
  {
    const std::size_t nl = prom.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::size_t declared =
        std::stoull(prom.substr(27, nl - 27));
    EXPECT_EQ(declared, prom.size() - nl - 1);
  }
  EXPECT_NE(prom.find("# TYPE asamap_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("asamap_serve_requests_total{verb=\"GEN\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("asamap_kernel_seconds"), std::string::npos);
  EXPECT_NE(prom.find("asamap_jobs_submitted_total 1"), std::string::npos);
  EXPECT_NE(prom.find("asamap_runs_total 1"), std::string::npos);
  EXPECT_NE(prom.find("asamap_registry_graphs 1"), std::string::npos);

  const std::string json = session.handle_line("METRICS json");
  ASSERT_EQ(json.rfind("OK format=json bytes=", 0), 0u);
  const std::size_t json_payload = json.find('\n') + 1;
  EXPECT_EQ(json[json_payload], '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("\"asamap_runs_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"git_rev\""), std::string::npos);

  // Same registry backs the typed accessor, the scrape verbs, and (by
  // construction) asamap_cli --metrics — one source of truth.
  EXPECT_EQ(session.metrics().counter_total("asamap_serve_requests_total",
                                            "verb=\"GEN\""),
            1u);
  EXPECT_EQ(session.handle_line("METRICS yaml").substr(0, 3), "ERR");
}

// JSON scrapes name the revision the binary was built from — the value
// STATS rev= reports — wherever the server runs, and never shell out to
// find it.
TEST(ServeSession, JsonScrapeGitRevIsTheBuildRevision) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "asamap_rev_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  ServeSession session(test_config());
  std::string metrics, window;
  ops_pin::pinned_header(session.handle_line("METRICS json"), &metrics);
  ops_pin::pinned_header(session.handle_line("METRICS WINDOW json"), &window);
  std::filesystem::current_path(cwd);
  std::filesystem::remove(dir);
  EXPECT_EQ(ops_pin::string_member(metrics, "git_rev"), obs::build_git_rev());
  EXPECT_EQ(ops_pin::string_member(window, "git_rev"), obs::build_git_rev());
}

TEST(ServeSession, MetricsCountRequestsLatenciesAndErrors) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 400 1600 9").substr(0, 2), "OK");
  EXPECT_EQ(session.handle_line("MEMBER g 0").substr(0, 2), "ER");  // no snap
  EXPECT_EQ(session.handle_line("NOPE").substr(0, 3), "ERR");

  const obs::MetricRegistry& reg = session.metrics();
  EXPECT_EQ(reg.counter_total("asamap_serve_requests_total", "verb=\"GEN\""),
            1u);
  EXPECT_EQ(
      reg.counter_total("asamap_serve_requests_total", "verb=\"MEMBER\""),
      1u);
  EXPECT_EQ(reg.counter_total("asamap_serve_requests_total",
                              "verb=\"other\""),
            1u);  // unknown verbs pool under "other"
  EXPECT_EQ(reg.counter_total("asamap_serve_errors_total"), 2u);
  // Every request also recorded a latency sample under its verb.
  EXPECT_EQ(reg.histogram_merged_all("asamap_serve_request_seconds").count(),
            reg.counter_sum("asamap_serve_requests_total"));
}

// Scraping METRICS from several threads while clustering jobs run and
// publish must be clean: the registry is recorded into by scheduler
// workers (kernel spans, job timings) while scrapers merge and render it.
// This is the TSAN target for scrape-while-record across real subsystems.
TEST(ServeStress, ConcurrentMetricsScrapeWhileClustering) {
  constexpr int kScrapers = 3;
  ServeSession session(test_config());
  ASSERT_TRUE(session.gen_chung_lu("g", 300, 1200, 7).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string resp =
            session.handle_line(t % 2 == 0 ? "METRICS" : "METRICS json");
        if (resp.rfind("OK format=", 0) != 0) {
          ++failures;
          return;
        }
        // Typed scrape helpers race the same shards as the renderers.
        (void)session.metrics().histogram_merged_all(
            "asamap_kernel_seconds");
        (void)session.metrics().counter_sum("asamap_serve_requests_total");
      }
    });
  }

  for (int i = 0; i < 6; ++i) {
    const auto job = session.submit_recluster("g");
    ASSERT_TRUE(job.accepted());
    ASSERT_EQ(session.scheduler().wait(job.id), JobState::kDone);
  }
  stop = true;
  for (auto& s : scrapers) s.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(session.metrics().counter_total("asamap_runs_total"), 6u);
  EXPECT_EQ(session.metrics().counter_total("asamap_jobs_finished_total",
                                            "state=\"done\""),
            6u);
}

// Destroying the session while clustering jobs are queued and running must
// stop them cooperatively and join everything — no leaks, hangs, or
// publishes after teardown.
TEST(ServeStress, ShutdownWithClusterJobsInFlight) {
  for (int round = 0; round < 3; ++round) {
    ServeSession session(test_config());
    ASSERT_TRUE(session.gen_chung_lu("g", 300, 1200, 7).ok());
    for (int i = 0; i < 5; ++i) session.submit_recluster("g");
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
  }  // destructor: shutdown with work in every state
  SUCCEED();
}

// --- Robustness: degradation, breaker, stale serves ----------------------
// These exercise the retry/breaker/degradation layer (DESIGN.md §4e) and
// run in BOTH build flavors — they rely on real backpressure and memory
// pressure, not injected faults.

// A session whose single worker is pinned and whose batch lane holds one
// queued job: the next batch CLUSTER hits real backpressure.
struct GatedSession {
  SessionConfig config;
  std::optional<ServeSession> session;
  std::atomic<bool> release{false};
  std::uint64_t gate_id = 0;
  std::uint64_t filler_id = 0;

  explicit GatedSession(fault::BreakerConfig breaker = {}) {
    config.cluster_threads = 1;
    config.scheduler.workers = 1;
    config.scheduler.batch_capacity = 1;
    config.breaker = breaker;
    session.emplace(config);
  }

  /// Pins the worker on a gate job and fills the one-slot batch lane.
  void jam() {
    std::atomic<bool> running{false};
    gate_id = session->scheduler()
                  .submit([this, &running](const JobContext&) {
                    running = true;
                    while (!release) std::this_thread::sleep_for(1ms);
                  })
                  .id;
    while (!running) std::this_thread::sleep_for(1ms);
    filler_id = session->scheduler().submit([](const JobContext&) {}).id;
  }

  void drain() {
    release = true;
    session->scheduler().wait(gate_id);
    session->scheduler().wait(filler_id);
  }
};

TEST(ServeRobustness, ClusterDegradesToStaleUnderBackpressure) {
  GatedSession g;
  ServeSession& session = *g.session;
  ASSERT_EQ(session.handle_line("GEN g 300 1200 7").substr(0, 2), "OK");
  ASSERT_NE(session.handle_line("CLUSTER g sync").find("version=1"),
            std::string::npos);
  g.jam();
  // The batch lane is full: instead of ERR rejected, CLUSTER serves the
  // last published snapshot annotated STALE.
  const std::string resp = session.handle_line("CLUSTER g");
  EXPECT_EQ(resp.rfind("OK STALE version=1", 0), 0u) << resp;
  EXPECT_NE(resp.find("reason=queue_full"), std::string::npos);
  // Readers keep answering from that same prior snapshot.
  EXPECT_EQ(session.handle_line("MEMBER g 0").rfind("OK version=1", 0), 0u);
  EXPECT_EQ(session.metrics().counter_total("asamap_stale_serves_total"), 1u);
  g.drain();
}

TEST(ServeRobustness, ClusterDegradesToStaleUnderMemoryPressure) {
  SessionConfig config;
  config.cluster_threads = 1;
  config.scheduler.workers = 1;
  // A budget no graph fits under: the newest insert survives (the registry
  // never evicts the entry it just admitted), so the session sits
  // permanently over budget — sustained memory pressure.
  config.registry.memory_budget_bytes = 1;
  ServeSession session(config);
  ASSERT_EQ(session.handle_line("GEN g 300 1200 7").substr(0, 2), "OK");
  ASSERT_TRUE(session.registry().under_pressure());
  // No snapshot yet: degradation has nothing to serve, so the first CLUSTER
  // proceeds best-effort and publishes version 1.
  ASSERT_NE(session.handle_line("CLUSTER g sync").find("version=1"),
            std::string::npos);
  const std::string resp = session.handle_line("CLUSTER g sync");
  EXPECT_EQ(resp.rfind("OK STALE version=1", 0), 0u) << resp;
  EXPECT_NE(resp.find("reason=memory_pressure"), std::string::npos);
}

TEST(ServeRobustness, BreakerOpensAfterConsecutiveBackpressureAndSheds) {
  fault::BreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.open_duration = 10s;  // stays open for the whole test
  GatedSession g(breaker);
  ServeSession& session = *g.session;
  ASSERT_EQ(session.handle_line("GEN g 300 1200 7").substr(0, 2), "OK");
  g.jam();
  // No snapshot exists, so each backpressure failure surfaces as an error
  // (nothing to degrade to) and feeds the breaker.
  EXPECT_EQ(session.handle_line("CLUSTER g").substr(0, 12), "ERR rejected");
  EXPECT_EQ(session.metrics().gauge_value("asamap_breaker_state"), 0.0);
  EXPECT_EQ(session.handle_line("CLUSTER g").substr(0, 12), "ERR rejected");
  // Second consecutive failure tripped it: gauge flips, batch lane sheds.
  EXPECT_EQ(session.breaker().state(),
            fault::CircuitBreaker::State::kOpen);
  EXPECT_EQ(session.metrics().gauge_value("asamap_breaker_state"), 1.0);
  EXPECT_EQ(session.metrics().counter_total("asamap_breaker_transitions_total",
                                            "to=\"open\""),
            1u);
  EXPECT_EQ(session.scheduler().state(g.filler_id), JobState::kCancelled);
  EXPECT_GE(session.scheduler().stats().shed, 1u);
  EXPECT_EQ(session.metrics().counter_total("asamap_jobs_shed_total",
                                            "lane=\"batch\""),
            1u);
  // While open, CLUSTER short-circuits before touching the scheduler.
  const auto rejected_before = session.scheduler().stats().rejected;
  EXPECT_EQ(session.handle_line("CLUSTER g").substr(0, 15), "ERR unavailable");
  EXPECT_EQ(session.scheduler().stats().rejected, rejected_before);
  EXPECT_NE(session.handle_line("STATS").find("breaker=open"),
            std::string::npos);
  g.drain();
}

TEST(ServeRobustness, BreakerHalfOpensAndClosesOnProbeSuccess) {
  fault::BreakerConfig breaker;
  breaker.failure_threshold = 1;
  breaker.open_duration = 50ms;
  GatedSession g(breaker);
  ServeSession& session = *g.session;
  ASSERT_EQ(session.handle_line("GEN g 300 1200 7").substr(0, 2), "OK");
  g.jam();
  EXPECT_EQ(session.handle_line("CLUSTER g").substr(0, 12), "ERR rejected");
  EXPECT_EQ(session.breaker().state(), fault::CircuitBreaker::State::kOpen);
  g.drain();  // free the worker so the probe can actually run
  std::this_thread::sleep_for(60ms);
  // The open timer elapsed: the next CLUSTER is the half-open probe; it
  // succeeds and closes the breaker.
  const std::string resp = session.handle_line("CLUSTER g sync");
  EXPECT_NE(resp.find("state=done"), std::string::npos) << resp;
  EXPECT_EQ(session.breaker().state(), fault::CircuitBreaker::State::kClosed);
  EXPECT_EQ(session.metrics().gauge_value("asamap_breaker_state"), 0.0);
  EXPECT_EQ(session.metrics().counter_total("asamap_breaker_transitions_total",
                                            "to=\"half_open\""),
            1u);
  EXPECT_EQ(session.metrics().counter_total("asamap_breaker_transitions_total",
                                            "to=\"closed\""),
            1u);
}

// The robustness metric schema is pre-registered at construction: a scrape
// of a fresh session already exposes every name OPERATIONS.md documents,
// whether or not a fault ever fired.
TEST(ServeRobustness, MetricSchemaIsPreRegistered) {
  ServeSession session(test_config());
  const std::string prom = session.handle_line("METRICS");
  for (const char* needle : {
           "asamap_retries_total{site=\"ingest.parse\"}",
           "asamap_retries_total{site=\"scheduler.dispatch\"}",
           "asamap_breaker_state 0",
           "asamap_breaker_transitions_total{to=\"open\"}",
           "asamap_stale_serves_total 0",
           "asamap_jobs_shed_total{lane=\"batch\"}",
           "asamap_jobs_shed_total{lane=\"interactive\"}",
           "asamap_faults_injected_total{site=\"session.io\"}",
       }) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(session.handle_line("STATS").find("breaker=closed"),
            std::string::npos);
  // FAULTS STATUS answers in both build flavors.
  const std::string status = session.handle_line("FAULTS STATUS");
  EXPECT_EQ(status.rfind("OK enabled=", 0), 0u) << status;
  EXPECT_NE(status.find("armed=0"), std::string::npos);
}

// --- CRLF tolerance / batched reads --------------------------------------

// A CRLF client (telnet, netcat, any TCP peer) terminates lines with \r\n;
// the \r must not reach the parser welded onto the last token.
TEST(ServeSession, HandleLineStripsCarriageReturnAndTrailingWhitespace) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 300 1200 7\r").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("CLUSTER g sync\r").substr(0, 2), "OK");
  EXPECT_EQ(session.handle_line("MEMBER g 5\r").substr(0, 2), "OK");
  EXPECT_EQ(session.handle_line("MEMBER g 5 \t\r").substr(0, 2), "OK");
  EXPECT_EQ(session.handle_line("SUMMARY g\r\n").substr(0, 2), "OK");
  // The CRLF request must parse identically to its clean twin.
  EXPECT_EQ(session.handle_line("SAME g 1 2\r"),
            session.handle_line("SAME g 1 2"));
}

TEST(ServeSession, HandleBatchMatchesHandleLineAnswers) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 500 2000 7").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");

  const std::vector<std::string_view> lines = {
      "MEMBER g 5", "SAME g 1 2", "TOPK g 3", "SUMMARY g",
      "MEMBER g 999999",  // error answers must match too
      "STATS",            // non-read verb inside a batch
      "MEMBER g 7\r",     // CRLF twin
  };
  std::vector<std::string> batched;
  session.handle_batch(lines, batched);
  ASSERT_EQ(batched.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "STATS") continue;  // counters move between calls
    EXPECT_EQ(batched[i], session.handle_line(lines[i])) << lines[i];
  }
}

// The batch read fast path's documented guarantee: one snapshot acquire per
// contiguous read run, so every answer in the run reports the same version
// even when a writer publishes concurrently.
TEST(ServeSession, HandleBatchReadsAreVersionConsistent) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 400 1600 9").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      session.handle_line("CLUSTER g sync");
    }
  });

  const auto version_of = [](const std::string& resp) {
    const auto at = resp.find("version=");
    return resp.substr(at, resp.find(' ', at) - at);
  };
  std::vector<std::string_view> lines;
  for (int i = 0; i < 32; ++i) {
    lines.push_back(i % 2 == 0 ? "MEMBER g 3" : "SUMMARY g");
  }
  std::vector<std::string> responses;
  for (int round = 0; round < 50; ++round) {
    session.handle_batch(lines, responses);
    ASSERT_EQ(responses.size(), lines.size());
    const std::string v0 = version_of(responses[0]);
    for (const std::string& r : responses) {
      ASSERT_EQ(r.substr(0, 2), "OK") << r;
      EXPECT_EQ(version_of(r), v0) << r;
    }
  }
  stop.store(true);
  writer.join();
}

// A write inside the batch invalidates the memoised snapshot: reads after
// it must observe the version it published, not the pre-write one.
TEST(ServeSession, HandleBatchReadAfterWriteSeesNewVersion) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 300 1200 11").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");

  const std::vector<std::string_view> lines = {
      "SUMMARY g",       // version=1
      "CLUSTER g sync",  // publishes version=2
      "SUMMARY g",       // must answer version=2
  };
  std::vector<std::string> responses;
  session.handle_batch(lines, responses);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("version=1"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[2].find("version=2"), std::string::npos)
      << responses[2];
}

// Batched reads still feed the per-verb request counters and latency
// histograms — the fast path is invisible to dashboards.
TEST(ServeSession, HandleBatchRecordsPerVerbMetrics) {
  ServeSession session(test_config());
  ASSERT_EQ(session.handle_line("GEN g 300 1200 13").substr(0, 2), "OK");
  ASSERT_EQ(session.handle_line("CLUSTER g sync").substr(0, 2), "OK");

  const std::vector<std::string_view> lines = {
      "MEMBER g 1", "MEMBER g 2", "TOPK g 2", "MEMBER g 99999999"};
  std::vector<std::string> responses;
  session.handle_batch(lines, responses);

  const obs::MetricRegistry& reg = session.metrics();
  EXPECT_EQ(
      reg.counter_total("asamap_serve_requests_total", "verb=\"MEMBER\""),
      3u);
  EXPECT_EQ(reg.counter_total("asamap_serve_requests_total", "verb=\"TOPK\""),
            1u);
  EXPECT_EQ(reg.counter_total("asamap_serve_errors_total"), 1u);
  EXPECT_EQ(reg.histogram_merged_all("asamap_serve_request_seconds").count(),
            reg.counter_sum("asamap_serve_requests_total"));
}

// --- OpsPin: the ops verbs as a client sees them -------------------------
// Header lines, envelope byte counts and the exact answer to every
// malformed form of METRICS / METRICS WINDOW / HEALTH / TRACE, plus the
// STATS build-identity suffix.  The router's twin is in test_dist.cpp.

TEST(OpsPin, SessionEnvelopeHeaders) {
  ServeSession session(test_config());
  const std::string prom = "OK format=prometheus bytes=<payload>";
  const std::string json = "OK format=json bytes=<payload>";
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"METRICS", prom},
      {"METRICS prom", prom},
      {"METRICS prometheus", prom},
      {"METRICS json", json},
      {"METRICS WINDOW", prom},
      {"METRICS WINDOW prom", prom},
      {"METRICS WINDOW prometheus", prom},
      {"METRICS WINDOW json", json},
      {"HEALTH", "OK status=healthy slos=3 bytes=<payload>"},
      {"TRACE DUMP", "OK format=chrome-trace bytes=<payload>"},
  };
  for (const auto& [line, header] : pins) {
    EXPECT_EQ(ops_pin::pinned_header(session.handle_line(line)), header)
        << line;
  }
}

TEST(OpsPin, SessionJsonScrapesCarryTheEnvelope) {
  ServeSession session(test_config());
  const std::vector<std::string> envelope = {
      "bench", "host_max_threads", "single_core_caveat", "git_rev",
      "timestamp_utc"};
  std::string payload;
  ops_pin::pinned_header(session.handle_line("METRICS json"), &payload);
  std::vector<std::string> keys = envelope;
  keys.push_back("metrics");
  EXPECT_EQ(ops_pin::top_level_keys(payload), keys);
  EXPECT_EQ(ops_pin::string_member(payload, "bench"), "serve_metrics");
  EXPECT_EQ(payload.front(), '{');
  EXPECT_EQ(payload.substr(payload.size() - 2), "\n}");

  ops_pin::pinned_header(session.handle_line("METRICS WINDOW json"),
                         &payload);
  keys = envelope;
  keys.push_back("window");
  EXPECT_EQ(ops_pin::top_level_keys(payload), keys);
  EXPECT_EQ(ops_pin::string_member(payload, "bench"), "serve_metrics_window");
  EXPECT_EQ(payload.substr(payload.size() - 2), "\n}");
}

TEST(OpsPin, SessionHealthPayloadListsEverySlo) {
  ServeSession session(test_config());
  std::string payload;
  ops_pin::pinned_header(session.handle_line("HEALTH"), &payload);
  EXPECT_EQ(ops_pin::slo_heads(payload),
            (std::vector<std::string>{"slo=availability status=ok",
                                      "slo=latency_p99 status=ok",
                                      "slo=breaker status=ok"}));
}

TEST(OpsPin, SessionTraceStatusAndMark) {
  ServeSession session(test_config());
  const std::string status = ops_pin::masked(
      session.handle_line("TRACE STATUS"),
      {"enabled", "rings", "capacity", "recorded", "dropped",
       "dropped_fraction"});
  const std::string want =
      "OK enabled=# rings=# capacity=# recorded=# dropped=# "
      "dropped_fraction=#";
  EXPECT_TRUE(status == want || status == want + " warning=ring_wrapped")
      << status;
  EXPECT_EQ(session.handle_line("TRACE MARK deploy  v2"),
            "OK marked=deploy v2");
}

TEST(OpsPin, SessionStatsIdentitySuffix) {
  ServeSession session(test_config());
  const std::string stats = session.handle_line("STATS");
  const std::size_t at = stats.find(" uptime=");
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_EQ(ops_pin::masked(stats.substr(at), {"uptime"}),
            std::string(" uptime=# rev=") + obs::build_git_rev() +
                " build=" + obs::build_mode() + " faults=" +
                (fault::kFaultInjectionEnabled ? "1" : "0") +
                " accumulator=hotset");
}

TEST(OpsPin, SessionMalformedForms) {
  ServeSession session(test_config());
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"METRICS json extra",
       "ERR invalid_argument usage: METRICS [WINDOW] [prom|json]"},
      {"METRICS yaml",
       "ERR invalid_argument METRICS: unknown format 'yaml' (want prom or "
       "json)"},
      {"METRICS WINDOW json extra",
       "ERR invalid_argument usage: METRICS WINDOW [prom|json]"},
      {"METRICS WINDOW yaml",
       "ERR invalid_argument METRICS WINDOW: unknown format 'yaml' (want "
       "prom or json)"},
      {"HEALTH now", "ERR invalid_argument usage: HEALTH"},
      {"TRACE",
       "ERR invalid_argument usage: TRACE DUMP | TRACE STATUS | TRACE MARK "
       "<label>"},
      {"TRACE BOGUS",
       "ERR invalid_argument usage: TRACE DUMP | TRACE STATUS | TRACE MARK "
       "<label>"},
      {"TRACE DUMP extra", "ERR invalid_argument usage: TRACE DUMP"},
      {"TRACE STATUS extra", "ERR invalid_argument usage: TRACE STATUS"},
      {"TRACE MARK", "ERR invalid_argument usage: TRACE MARK <label>"},
  };
  for (const auto& [line, want] : pins) {
    EXPECT_EQ(session.handle_line(line), want) << line;
  }
}

}  // namespace
