#pragma once

/// \file tracing.hpp
/// Request-scoped causal tracing: TraceContext propagation plus an
/// always-on, lock-free flight recorder exportable as Chrome trace-event
/// JSON (loadable in Perfetto / chrome://tracing).
///
/// This is the *observability* trace layer — wall-clock span events keyed
/// by a 64-bit trace id, answering "where did THIS request's time go?".
/// It is unrelated to `asamap/sim/trace.hpp`, which records the simulator's
/// synthetic memory-access event stream for the ASA cost model; see the
/// README Observability section for when to reach for which.
///
/// Model
/// -----
/// A TraceContext is {trace_id, span_id}.  TraceSpan (RAII) mints a fresh
/// span id, adopts the ambient trace id (or mints one at a root), installs
/// itself as the thread's current context, and emits begin/end events.
/// TraceScope re-installs a captured context on another thread — the
/// scheduler uses it so a job body's spans parent under the submitting
/// verb's span.  Retroactive intervals (queue wait, retry backoff) are
/// emitted as single "complete" events with an explicit start + duration.
///
/// The FlightRecorder stores events in per-thread ring buffers of atomic
/// cells (overwrite-oldest, seqlock-stamped so a dump concurrent with
/// recording rejects torn cells instead of locking writers).  Memory is
/// fixed by ring capacity regardless of run length, so it is cheap enough
/// to leave on in production and dump after the fact — hence "flight
/// recorder".

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace asamap::obs {

/// Event kind, mapping 1:1 onto Chrome trace-event phases.
enum class TraceKind : std::uint8_t {
  kBegin = 0,    ///< ph "B": span opened
  kEnd = 1,      ///< ph "E": span closed
  kComplete = 2, ///< ph "X": retroactive interval with explicit duration
  kInstant = 3,  ///< ph "i": point event (marks, fault injections)
};

/// Event category, rendered as the Chrome "cat" field.
enum class TraceCat : std::uint8_t {
  kSession = 0,   ///< protocol verbs, CLI runs
  kScheduler = 1, ///< queue wait, dispatch retries, job bodies
  kRegistry = 2,  ///< graph ingest and its retries
  kKernel = 3,    ///< the four HyPC-Map kernel phases, and level setup
  kFault = 4,     ///< injected-fault annotations
  kUser = 5,      ///< TRACE MARK
};

[[nodiscard]] const char* to_string(TraceCat cat) noexcept;

/// The propagated causal identity: which request (trace_id) and which
/// enclosing span (span_id).  Zero-initialised means "no active trace" —
/// the next TraceSpan becomes a root and mints a fresh trace id.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context (thread-local).
[[nodiscard]] TraceContext current_trace() noexcept;

/// One decoded event, as returned by FlightRecorder::snapshot().
struct TraceEvent {
  std::uint64_t ts_ns = 0;     ///< nanoseconds since the recorder epoch
  std::uint64_t dur_ns = 0;    ///< kComplete only
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;   ///< 0 for kInstant
  std::uint64_t parent_id = 0; ///< enclosing span id, 0 at a root
  std::uint64_t arg = 0;       ///< optional payload (job id); 0 = absent
  const char* name = nullptr;
  TraceKind kind = TraceKind::kInstant;
  TraceCat cat = TraceCat::kUser;
  std::uint32_t tid = 0;       ///< recorder thread index
};

/// Recorder occupancy, for TRACE STATUS.
struct TraceStats {
  std::uint64_t recorded = 0; ///< events ever written (monotone)
  std::uint64_t dropped = 0;  ///< overwritten by ring wrap (monotone)
  /// dropped / recorded (0.0 when nothing recorded).  A value near 1.0
  /// means the rings wrapped many times over and a dump holds only the
  /// newest sliver of the run — consumers should warn, not silently
  /// present a near-empty trace as complete.
  double dropped_fraction = 0.0;
  int rings = 0;              ///< rings touched so far
  std::size_t ring_capacity = 0;
  bool enabled = true;
};

/// Always-on, bounded, lock-free-on-record event sink.
///
/// Writers: any thread, wait-free (one fetch_add + relaxed stores + one
/// release store per event).  Each thread maps to one of kMaxRings rings
/// via a process-wide monotone thread index; a ring overwrites its oldest
/// cell when full.  Readers (snapshot/dump) run concurrently with writers
/// and skip cells whose seqlock stamp changed mid-read — every access to
/// cell memory is atomic, so the protocol is TSAN-clean by construction.
///
/// Names are stored as `const char*` and must outlive the recorder: use
/// string literals, or intern() for dynamic text (TRACE MARK labels).
class FlightRecorder {
 public:
  /// `events_per_ring` is rounded up to a power of two; 0 means "use the
  /// ASAMAP_TRACE_RING environment knob, default 4096".
  explicit FlightRecorder(std::size_t events_per_ring = 0);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every production span records into.
  [[nodiscard]] static FlightRecorder& instance();

  /// Nanoseconds since the process trace epoch (steady clock), the
  /// timebase of every recorded event.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one event.  `name` must point at storage that outlives the
  /// recorder (literal or intern()ed).
  void record(TraceKind kind, TraceCat cat, const char* name,
              std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent_id, std::uint64_t ts_ns,
              std::uint64_t dur_ns = 0, std::uint64_t arg = 0) noexcept;

  /// Retroactive interval [ts_ns, ts_ns + dur_ns] parented under `ctx`.
  /// Mints a span id so children recorded inside the interval could refer
  /// to it; returns the minted id.
  std::uint64_t complete(const char* name, TraceCat cat, TraceContext ctx,
                         std::uint64_t ts_ns, std::uint64_t dur_ns,
                         std::uint64_t arg = 0) noexcept;

  /// Point event under the calling thread's current context.
  void instant(const char* name, TraceCat cat, std::uint64_t arg = 0) noexcept;

  /// Copies a stable interned copy of `text` (for dynamic event names).
  /// Bounded: past a small cap, returns a shared fallback label.
  [[nodiscard]] const char* intern(std::string_view text);

  [[nodiscard]] TraceStats stats() const;

  /// Decodes every readable cell, sorted by timestamp (begin before end at
  /// equal stamps).  Safe concurrent with record(); torn cells are skipped.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Writes the snapshot as one line of Chrome trace-event JSON
  /// (`{"traceEvents":[...],"displayTimeUnit":"ms"}`).  Ids are emitted as
  /// decimal strings under args{trace,span,parent} because u64 ids do not
  /// survive a double round-trip.
  void write_chrome_json(std::ostream& os) const;

  /// Ring fan-out bound; threads beyond it share rings by index modulo.
  static constexpr std::size_t kMaxRings = 64;

 private:
  struct Cell;
  struct Ring;

  Ring* ring_for_this_thread() noexcept;

  std::size_t ring_capacity_ = 0; // power of two
  std::atomic<bool> enabled_{true};
  std::atomic<Ring*> rings_[kMaxRings] = {};

  mutable std::mutex intern_mu_;
  std::vector<std::unique_ptr<std::string>> interned_;
};

/// Re-installs a captured TraceContext for a scope — the bridge that
/// carries a request's identity across the scheduler's thread hop.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span: begin event at construction, end event at destruction.
/// Child spans opened while this one is alive parent under it; if no trace
/// is active, this span becomes the root of a freshly minted trace.
class TraceSpan {
 public:
  TraceSpan(const char* name, TraceCat cat,
            FlightRecorder& rec = FlightRecorder::instance(),
            std::uint64_t arg = 0) noexcept;
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  [[nodiscard]] TraceContext context() const noexcept { return ctx_; }

 private:
  FlightRecorder& rec_;
  const char* name_;
  TraceCat cat_;
  std::uint64_t arg_;
  TraceContext ctx_;   // this span's identity
  TraceContext prev_;  // restored at destruction; prev_.span_id is parent
};

/// Mints a process-unique nonzero id (shared counter for trace and span
/// ids).  Exposed for retroactive-interval builders.
[[nodiscard]] std::uint64_t mint_trace_id() noexcept;

}  // namespace asamap::obs
