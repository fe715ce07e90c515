#include "asamap/obs/tracing.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "asamap/obs/format.hpp"
#include "asamap/support/hash.hpp"

namespace asamap::obs {

namespace {

thread_local TraceContext g_current;

/// Process-wide monotone thread index; thread N records into ring
/// N % kMaxRings.  Same shape as Histogram's shard index.
std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t resolve_ring_capacity(std::size_t requested) noexcept {
  if (requested == 0) {
    requested = 4096;
    if (const char* env = std::getenv("ASAMAP_TRACE_RING")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        requested = static_cast<std::size_t>(v);
      }
    }
  }
  return std::clamp(round_up_pow2(requested), std::size_t{64},
                    std::size_t{1} << 20);
}

int kind_rank(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kBegin: return 0;
    case TraceKind::kInstant: return 1;
    case TraceKind::kComplete: return 2;
    case TraceKind::kEnd: return 3;
  }
  return 4;
}

char kind_phase(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kBegin: return 'B';
    case TraceKind::kEnd: return 'E';
    case TraceKind::kComplete: return 'X';
    case TraceKind::kInstant: return 'i';
  }
  return 'i';
}

}  // namespace

const char* to_string(TraceCat cat) noexcept {
  switch (cat) {
    case TraceCat::kSession: return "session";
    case TraceCat::kScheduler: return "scheduler";
    case TraceCat::kRegistry: return "registry";
    case TraceCat::kKernel: return "kernel";
    case TraceCat::kFault: return "fault";
    case TraceCat::kUser: return "user";
  }
  return "user";
}

TraceContext current_trace() noexcept { return g_current; }

std::uint64_t mint_trace_id() noexcept {
  // Seeded per process so ids minted by cooperating processes (router and
  // shards merging spans under one trace via TRACECTX) don't collide the
  // way a plain 1,2,3,... counter would.  |1 keeps 0 = "no trace".
  static std::atomic<std::uint64_t> next{
      support::mix64(static_cast<std::uint64_t>(::getpid()) ^
                     static_cast<std::uint64_t>(
                         std::chrono::steady_clock::now()
                             .time_since_epoch()
                             .count())) |
      1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// One ring cell.  Every field is atomic so a concurrent dump never races
/// with a writer at the memory-model level; the stamp seqlock decides
/// whether the decoded value is coherent.  stamp == index+1 marks a fully
/// written cell for that wrap; 0 marks "being rewritten".
struct FlightRecorder::Cell {
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> dur{0};
  std::atomic<std::uint64_t> trace{0};
  std::atomic<std::uint64_t> span{0};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> arg{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint32_t> meta{0};  // kind | cat<<8 | tid<<16
};

struct FlightRecorder::Ring {
  explicit Ring(std::size_t capacity)
      : mask(capacity - 1), cells(new Cell[capacity]) {}
  std::atomic<std::uint64_t> head{0};  // next logical index to claim
  const std::uint64_t mask;
  std::unique_ptr<Cell[]> cells;
};

FlightRecorder::FlightRecorder(std::size_t events_per_ring)
    : ring_capacity_(resolve_ring_capacity(events_per_ring)) {}

FlightRecorder::~FlightRecorder() {
  for (auto& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

std::uint64_t FlightRecorder::now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() noexcept {
  const std::size_t slot = thread_index() % kMaxRings;
  Ring* ring = rings_[slot].load(std::memory_order_acquire);
  if (ring != nullptr) return ring;
  auto fresh = std::make_unique<Ring>(ring_capacity_);
  Ring* expected = nullptr;
  if (rings_[slot].compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel)) {
    return fresh.release();
  }
  return expected;  // another thread published first
}

void FlightRecorder::record(TraceKind kind, TraceCat cat, const char* name,
                            std::uint64_t trace_id, std::uint64_t span_id,
                            std::uint64_t parent_id, std::uint64_t ts_ns,
                            std::uint64_t dur_ns, std::uint64_t arg) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = ring_for_this_thread();
  const std::uint64_t idx =
      ring->head.fetch_add(1, std::memory_order_relaxed);
  Cell& cell = ring->cells[idx & ring->mask];
  // Invalidate, write the payload, then publish the stamp: a dump that
  // observes stamp == idx+1 with an acquire load sees every payload store.
  cell.stamp.store(0, std::memory_order_release);
  cell.ts.store(ts_ns, std::memory_order_relaxed);
  cell.dur.store(dur_ns, std::memory_order_relaxed);
  cell.trace.store(trace_id, std::memory_order_relaxed);
  cell.span.store(span_id, std::memory_order_relaxed);
  cell.parent.store(parent_id, std::memory_order_relaxed);
  cell.arg.store(arg, std::memory_order_relaxed);
  cell.name.store(name, std::memory_order_relaxed);
  cell.meta.store(static_cast<std::uint32_t>(kind) |
                      (static_cast<std::uint32_t>(cat) << 8) |
                      (thread_index() << 16),
                  std::memory_order_relaxed);
  cell.stamp.store(idx + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::complete(const char* name, TraceCat cat,
                                       TraceContext ctx, std::uint64_t ts_ns,
                                       std::uint64_t dur_ns,
                                       std::uint64_t arg) noexcept {
  const std::uint64_t span = mint_trace_id();
  record(TraceKind::kComplete, cat, name, ctx.trace_id, span, ctx.span_id,
         ts_ns, dur_ns, arg);
  return span;
}

void FlightRecorder::instant(const char* name, TraceCat cat,
                             std::uint64_t arg) noexcept {
  const TraceContext ctx = g_current;
  record(TraceKind::kInstant, cat, name, ctx.trace_id, 0, ctx.span_id,
         now_ns(), 0, arg);
}

const char* FlightRecorder::intern(std::string_view text) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  for (const auto& entry : interned_) {
    if (*entry == text) return entry->c_str();
  }
  if (interned_.size() >= 256) return "mark";  // keep memory bounded
  interned_.push_back(std::make_unique<std::string>(text));
  return interned_.back()->c_str();
}

TraceStats FlightRecorder::stats() const {
  TraceStats out;
  out.ring_capacity = ring_capacity_;
  out.enabled = enabled();
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    ++out.rings;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    out.recorded += head;
    if (head > ring_capacity_) out.dropped += head - ring_capacity_;
  }
  if (out.recorded > 0) {
    out.dropped_fraction = static_cast<double>(out.dropped) /
                           static_cast<double>(out.recorded);
  }
  return out;
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t capacity = ring->mask + 1;
    const std::uint64_t lo = head > capacity ? head - capacity : 0;
    for (std::uint64_t i = lo; i < head; ++i) {
      const Cell& cell = ring->cells[i & ring->mask];
      if (cell.stamp.load(std::memory_order_acquire) != i + 1) continue;
      TraceEvent e;
      e.ts_ns = cell.ts.load(std::memory_order_relaxed);
      e.dur_ns = cell.dur.load(std::memory_order_relaxed);
      e.trace_id = cell.trace.load(std::memory_order_relaxed);
      e.span_id = cell.span.load(std::memory_order_relaxed);
      e.parent_id = cell.parent.load(std::memory_order_relaxed);
      e.arg = cell.arg.load(std::memory_order_relaxed);
      e.name = cell.name.load(std::memory_order_relaxed);
      const std::uint32_t meta = cell.meta.load(std::memory_order_relaxed);
      // Re-check the stamp: if a writer reclaimed the cell mid-read the
      // decoded fields may be torn — drop the cell.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (cell.stamp.load(std::memory_order_relaxed) != i + 1) continue;
      e.kind = static_cast<TraceKind>(meta & 0xff);
      e.cat = static_cast<TraceCat>((meta >> 8) & 0xff);
      e.tid = meta >> 16;
      if (e.name == nullptr) continue;
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              const int ra = kind_rank(a.kind);
              const int rb = kind_rank(b.kind);
              if (ra != rb) return ra < rb;
              return a.span_id < b.span_id;
            });
  return out;
}

void FlightRecorder::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  char ts_buf[40];
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << escape_json(e.name) << "\",\"cat\":\""
       << to_string(e.cat) << "\",\"ph\":\""
       << kind_phase(e.kind) << "\",\"ts\":";
    std::snprintf(ts_buf, sizeof(ts_buf), "%.3f",
                  static_cast<double>(e.ts_ns) / 1000.0);
    os << ts_buf;
    if (e.kind == TraceKind::kComplete) {
      std::snprintf(ts_buf, sizeof(ts_buf), "%.3f",
                    static_cast<double>(e.dur_ns) / 1000.0);
      os << ",\"dur\":" << ts_buf;
    }
    if (e.kind == TraceKind::kInstant) os << ",\"s\":\"t\"";
    os << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":{\"trace\":\""
       << e.trace_id << "\",\"span\":\"" << e.span_id << "\",\"parent\":\""
       << e.parent_id << '"';
    if (e.arg != 0) os << ",\"job\":" << e.arg;
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

TraceScope::TraceScope(TraceContext ctx) noexcept : saved_(g_current) {
  g_current = ctx;
}

TraceScope::~TraceScope() { g_current = saved_; }

TraceSpan::TraceSpan(const char* name, TraceCat cat, FlightRecorder& rec,
                     std::uint64_t arg) noexcept
    : rec_(rec), name_(name), cat_(cat), arg_(arg), prev_(g_current) {
  ctx_.trace_id = prev_.active() ? prev_.trace_id : mint_trace_id();
  ctx_.span_id = mint_trace_id();
  g_current = ctx_;
  rec_.record(TraceKind::kBegin, cat_, name_, ctx_.trace_id, ctx_.span_id,
              prev_.span_id, FlightRecorder::now_ns(), 0, arg_);
}

TraceSpan::~TraceSpan() {
  rec_.record(TraceKind::kEnd, cat_, name_, ctx_.trace_id, ctx_.span_id,
              prev_.span_id, FlightRecorder::now_ns(), 0, arg_);
  g_current = prev_;
}

}  // namespace asamap::obs
