// Tests for the obs tracing layer (src/obs/tracing.hpp): TraceContext
// propagation across scheduler worker threads, flight-recorder ring
// overwrite/ordering semantics, concurrent record-while-dump (this binary
// runs under TSAN in CI), the golden CLUSTER span tree, and the zero-
// allocation guarantee on the KernelSpan hot path.
//
// The binary links alloc_counter.cpp, which replaces global operator
// new/delete with counting versions so the zero-alloc test can assert on
// the exact allocation count of a span open/close; the counter is a plain
// relaxed atomic and does not perturb the other tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "asamap/obs/metrics.hpp"
#include "asamap/obs/trace.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/job_scheduler.hpp"
#include "asamap/serve/session.hpp"
#include "asamap/support/timer.hpp"

using namespace asamap;

namespace alloc_counter {
/// Allocations through global operator new so far (alloc_counter.cpp).
std::uint64_t allocations();
}  // namespace alloc_counter

namespace {

// ---- TraceSpan / TraceScope basics --------------------------------------

TEST(TraceSpan, RootMintsTraceIdAndNestedSpanInherits) {
  obs::FlightRecorder rec(64);
  ASSERT_FALSE(obs::current_trace().active());
  obs::TraceContext root_ctx, child_ctx;
  {
    obs::TraceSpan root("unit.root", obs::TraceCat::kUser, rec);
    root_ctx = root.context();
    EXPECT_TRUE(root_ctx.active());
    EXPECT_EQ(obs::current_trace().span_id, root_ctx.span_id);
    {
      obs::TraceSpan child("unit.child", obs::TraceCat::kUser, rec);
      child_ctx = child.context();
      EXPECT_EQ(child_ctx.trace_id, root_ctx.trace_id);
      EXPECT_NE(child_ctx.span_id, root_ctx.span_id);
    }
    // Child closed: the root context is current again.
    EXPECT_EQ(obs::current_trace().span_id, root_ctx.span_id);
  }
  EXPECT_FALSE(obs::current_trace().active());

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);  // B root, B child, E child, E root
  EXPECT_EQ(std::string_view(events[0].name), "unit.root");
  EXPECT_EQ(events[0].kind, obs::TraceKind::kBegin);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(std::string_view(events[1].name), "unit.child");
  EXPECT_EQ(events[1].parent_id, root_ctx.span_id);
  EXPECT_EQ(events[1].trace_id, root_ctx.trace_id);
  EXPECT_EQ(events[2].kind, obs::TraceKind::kEnd);
  EXPECT_EQ(std::string_view(events[3].name), "unit.root");
  EXPECT_EQ(events[3].kind, obs::TraceKind::kEnd);
}

TEST(TraceScope, InstallsAndRestoresContext) {
  const obs::TraceContext before = obs::current_trace();
  {
    obs::TraceScope scope({42, 7});
    EXPECT_EQ(obs::current_trace().trace_id, 42u);
    EXPECT_EQ(obs::current_trace().span_id, 7u);
  }
  EXPECT_EQ(obs::current_trace().trace_id, before.trace_id);
  EXPECT_EQ(obs::current_trace().span_id, before.span_id);
}

// ---- ring semantics ------------------------------------------------------

TEST(FlightRecorder, OverwriteOldestKeepsNewestAndCountsDrops) {
  obs::FlightRecorder rec(64);
  for (std::uint64_t i = 0; i < 200; ++i) {
    rec.record(obs::TraceKind::kInstant, obs::TraceCat::kUser, "tick",
               /*trace_id=*/0, /*span_id=*/0, /*parent_id=*/0,
               /*ts_ns=*/i + 1);
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 64u);  // bounded by ring capacity
  // Overwrite-oldest: exactly the newest 64 events survive, in ts order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 200 - 64 + i + 1);
  }
  const auto stats = rec.stats();
  EXPECT_EQ(stats.recorded, 200u);
  EXPECT_EQ(stats.dropped, 200u - 64u);
  EXPECT_EQ(stats.ring_capacity, 64u);
  EXPECT_EQ(stats.rings, 1);  // single writer thread
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwoAndClampsLow) {
  obs::FlightRecorder rec(100);  // rounds to 128
  EXPECT_EQ(rec.stats().ring_capacity, 128u);
  obs::FlightRecorder tiny(1);  // clamps to the 64-event floor
  EXPECT_EQ(tiny.stats().ring_capacity, 64u);
}

TEST(FlightRecorder, DisabledRecorderDropsEverything) {
  obs::FlightRecorder rec(64);
  rec.set_enabled(false);
  rec.instant("ghost", obs::TraceCat::kUser);
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.stats().recorded, 0u);
  rec.set_enabled(true);
  rec.instant("real", obs::TraceCat::kUser);
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST(FlightRecorder, InternDedupsAndSurvivesByPointer) {
  obs::FlightRecorder rec(64);
  const char* a = rec.intern("custom label");
  const char* b = rec.intern("custom label");
  EXPECT_EQ(a, b);  // same backing string, not just equal contents
  EXPECT_EQ(std::string_view(a), "custom label");
}

TEST(FlightRecorder, CompleteEventCarriesRetroactiveTimestamps) {
  obs::FlightRecorder rec(64);
  const obs::TraceContext ctx{99, 5};
  const std::uint64_t sid =
      rec.complete("wait", obs::TraceCat::kScheduler, ctx,
                   /*ts_ns=*/1000, /*dur_ns=*/250, /*arg=*/7);
  EXPECT_NE(sid, 0u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::TraceKind::kComplete);
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 250u);
  EXPECT_EQ(events[0].trace_id, 99u);
  EXPECT_EQ(events[0].span_id, sid);
  EXPECT_EQ(events[0].parent_id, 5u);
  EXPECT_EQ(events[0].arg, 7u);
}

// ---- concurrency ---------------------------------------------------------

TEST(FlightRecorder, ConcurrentRecordWhileDumpStaysConsistent) {
  obs::FlightRecorder rec(256);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        rec.instant("stress", obs::TraceCat::kUser,
                    /*arg=*/static_cast<std::uint64_t>(w) << 32 | i);
      }
    });
  }
  // Dump continuously while the writers hammer the rings.  Every event a
  // snapshot yields must be fully formed (no torn names/kinds), and the
  // JSON writer must never crash mid-overwrite.
  for (int pass = 0; pass < 50; ++pass) {
    const auto events = rec.snapshot();
    for (const auto& e : events) {
      ASSERT_NE(e.name, nullptr);
      EXPECT_EQ(std::string_view(e.name), "stress");
      EXPECT_EQ(e.kind, obs::TraceKind::kInstant);
      EXPECT_EQ(e.cat, obs::TraceCat::kUser);
    }
    std::ostringstream os;
    rec.write_chrome_json(os);
    EXPECT_EQ(os.str().rfind("{\"traceEvents\"", 0), 0u);
  }
  for (auto& t : writers) t.join();
  const auto stats = rec.stats();
  EXPECT_EQ(stats.recorded, kWriters * kPerWriter);
  EXPECT_LE(rec.snapshot().size(), stats.rings * stats.ring_capacity);
}

TEST(TraceContext, PropagatesAcrossSchedulerWorkerThreads) {
  serve::SchedulerConfig cfg;
  cfg.workers = 2;
  serve::JobScheduler sched(cfg);
  const std::thread::id submitter = std::this_thread::get_id();

  obs::TraceContext seen{};
  std::thread::id runner;
  std::uint64_t submitted_trace = 0;
  {
    obs::TraceSpan root("test.submit", obs::TraceCat::kUser);
    submitted_trace = root.context().trace_id;
    const auto ticket = sched.submit(
        [&](const serve::JobContext&) {
          seen = obs::current_trace();
          runner = std::this_thread::get_id();
        },
        serve::JobPriority::kInteractive);
    ASSERT_TRUE(ticket.accepted());
    ASSERT_EQ(sched.wait(ticket.id), serve::JobState::kDone);
  }
  // The job ran on a worker thread yet inherited the submitter's trace id;
  // its span id is fresh (the job.run span, not the submitter's span).
  EXPECT_NE(runner, submitter);
  EXPECT_EQ(seen.trace_id, submitted_trace);
  EXPECT_NE(seen.span_id, 0u);
  sched.shutdown();
}

TEST(TraceContext, JobWithoutAmbientTraceMintsItsOwn) {
  serve::SchedulerConfig cfg;
  cfg.workers = 1;
  serve::JobScheduler sched(cfg);
  ASSERT_FALSE(obs::current_trace().active());
  obs::TraceContext seen{};
  const auto ticket = sched.submit(
      [&](const serve::JobContext&) { seen = obs::current_trace(); },
      serve::JobPriority::kInteractive);
  ASSERT_TRUE(ticket.accepted());
  ASSERT_EQ(sched.wait(ticket.id), serve::JobState::kDone);
  // Orphan jobs still get a trace so queue.wait/job.run share an id.
  EXPECT_TRUE(seen.active());
  sched.shutdown();
}

// ---- golden CLUSTER trace ------------------------------------------------

TEST(TraceGolden, ClusterProducesOneConnectedSpanTree) {
  serve::SessionConfig cfg;
  cfg.scheduler.workers = 1;
  cfg.cluster_threads = 1;
  serve::ServeSession session(cfg);
  ASSERT_EQ(session.handle_line("GEN g 1200 5000 7").rfind("OK", 0), 0u);
  ASSERT_EQ(session.handle_line("CLUSTER g sync").rfind("OK", 0), 0u);

  // The global recorder accumulates events from every test in this binary,
  // so key off the newest CLUSTER root span.
  const auto events = obs::FlightRecorder::instance().snapshot();
  std::uint64_t cluster_trace = 0;
  std::uint64_t cluster_span = 0;
  for (const auto& e : events) {
    if (e.kind == obs::TraceKind::kBegin &&
        std::string_view(e.name) == "CLUSTER") {
      cluster_trace = e.trace_id;
      cluster_span = e.span_id;
    }
  }
  ASSERT_NE(cluster_trace, 0u) << "no CLUSTER begin event recorded";

  // Collect the spans of that trace: name -> (span_id, parent_id).
  struct SpanInfo {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
  };
  std::vector<std::pair<std::string, SpanInfo>> spans;
  for (const auto& e : events) {
    if (e.trace_id != cluster_trace) continue;
    if (e.kind == obs::TraceKind::kBegin ||
        e.kind == obs::TraceKind::kComplete) {
      spans.emplace_back(e.name, SpanInfo{e.span_id, e.parent_id});
    }
  }
  const auto find = [&spans](std::string_view name) -> const SpanInfo* {
    for (const auto& [n, info] : spans) {
      if (n == name) return &info;
    }
    return nullptr;
  };

  // The acceptance chain: verb -> queue.wait -> job.run -> four kernels,
  // all under ONE trace id.
  const SpanInfo* wait = find("queue.wait");
  const SpanInfo* run = find("job.run");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(wait->parent, cluster_span);
  EXPECT_EQ(run->parent, wait->id);
  for (const char* kernel : obs::kKernelPhaseNames) {
    const SpanInfo* k = find(kernel);
    ASSERT_NE(k, nullptr) << "kernel span missing: " << kernel;
    EXPECT_EQ(k->parent, run->id) << kernel;
  }
  const SpanInfo* publish = find("snapshot.publish");
  ASSERT_NE(publish, nullptr);
  EXPECT_EQ(publish->parent, run->id);

  // TRACE DUMP exports the same events as single-line Chrome JSON.
  const std::string dump = session.handle_line("TRACE DUMP");
  ASSERT_EQ(dump.rfind("OK format=chrome-trace bytes=", 0), 0u);
  const std::size_t json_at = dump.find('\n') + 1;
  EXPECT_EQ(dump.compare(json_at, 15, "{\"traceEvents\":"), 0);
  // bytes=N in the header counts exactly the payload after the newline.
  const std::size_t declared = std::stoull(dump.substr(29, json_at - 30));
  EXPECT_EQ(declared, dump.size() - json_at);
  const std::string status = session.handle_line("TRACE STATUS");
  EXPECT_EQ(status.rfind("OK enabled=1", 0), 0u);
}

// ---- KernelSpan hot path -------------------------------------------------

TEST(KernelSpanAlloc, SpanOpenCloseAllocatesNothingAfterWarmup) {
  support::PhaseTimer timer;
  obs::MetricRegistry registry;
  // All allocation happens up front: KernelTimers resolves the wall-clock
  // slots and histogram handles once, and the first record from this
  // thread claims its ring.
  obs::KernelTimers timers(timer, &registry);
  { obs::KernelSpan warm(timers, obs::KernelPhase::kPageRank); }

  // The counter is live: a heap-backed string moves it.
  const std::uint64_t probe = alloc_counter::allocations();
  std::ostringstream heap;
  heap << std::string(100, 'x');
  EXPECT_GT(alloc_counter::allocations(), probe) << heap.str().size();

  const std::uint64_t before = alloc_counter::allocations();
  for (int i = 0; i < 100; ++i) {
    obs::KernelSpan a(timers, obs::KernelPhase::kPageRank);
    obs::KernelSpan b(timers, obs::KernelPhase::kFindBestCommunity);
    obs::KernelSpan c(timers, obs::KernelPhase::kConvert2SuperNode);
    obs::KernelSpan d(timers, obs::KernelPhase::kUpdateMembers);
  }
  const std::uint64_t after = alloc_counter::allocations();
  EXPECT_EQ(after - before, 0u)
      << "KernelSpan open/close must not allocate on the hot path";

  // And both sinks were fed: wall-clock totals and histogram counts.
  EXPECT_GT(timer.total("PageRank"), 0.0);
  EXPECT_EQ(registry
                .histogram_merged(obs::kKernelSpanMetric,
                                  obs::kernel_label("PageRank"))
                .count(),
            101u);
}

}  // namespace
