// Zero-overhead tracing: RAII spans and monotonic counters on per-thread
// fixed-capacity ring buffers.
//
// Design constraints, in order:
//
//   1. *Compile-time gate.*  The whole layer sits behind QS_ENABLE_TRACING
//      (a CMake option, OFF by default).  When OFF every macro below
//      expands to `((void)0)` — argument expressions are not evaluated, no
//      code is emitted, and the hot paths are byte-identical to a build
//      that never heard of tracing.
//   2. *Zero hot-path allocation when ON.*  Events are PODs written into a
//      fixed-capacity per-thread ring (one heap allocation per thread, at
//      its first event; the rings deliberately outlive their threads so an
//      exporter can run after a thread pool wound down).  Names are static
//      C strings; counters live in a fixed per-thread slot table.  The
//      alloc-guard test asserts a solver iteration records spans without
//      moving the allocation counter.
//   3. *Cheap when runtime-disabled.*  A compiled-in but disabled span
//      site costs one relaxed atomic load and a branch (measured by
//      bench/perf_smoke.cpp, asserted < 2% of a matvec).
//
// A span records wall time AND thread-CPU time (support/timer.hpp clocks):
// wall >> cpu inside an engine worker span is barrier/scheduling wait,
// wall ~ cpu is compute.  Exporters: obs/chrome_trace.hpp (Perfetto /
// chrome://tracing) and obs/metrics.hpp (aggregate JSON/CSV snapshot).
//
// Concurrency contract: recording is thread-local and lock-free; the
// snapshot/reset/export calls lock only the thread registry and must run
// at quiescence (no engine dispatch in flight), which is how the CLIs and
// tests use them.
#pragma once

#include <cstdint>
#include <vector>

#if defined(QS_ENABLE_TRACING) && QS_ENABLE_TRACING
#define QS_TRACING_ON 1
#else
#define QS_TRACING_ON 0
#endif

namespace qs::obs {

/// Span/counter taxonomy; becomes the Chrome trace "cat" field.
enum class Category : std::uint8_t {
  kernel,       ///< butterfly bands, microkernel sweeps
  engine,       ///< dispatch regions, per-worker lanes, reductions
  solver,       ///< iteration driver events, solver cycles
  checkpoint,   ///< checkpoint writes / restores
  distributed,  ///< block-exchange supersteps, allreduces
  facade,       ///< degradation / restart decisions
  app,          ///< CLI-level phases
};

constexpr const char* to_string(Category c) {
  switch (c) {
    case Category::kernel: return "kernel";
    case Category::engine: return "engine";
    case Category::solver: return "solver";
    case Category::checkpoint: return "checkpoint";
    case Category::distributed: return "distributed";
    case Category::facade: return "facade";
    case Category::app: return "app";
  }
  return "unknown";
}

/// One exported event.  `instant` events carry `value` and no duration;
/// spans carry wall duration plus the thread-CPU time spent inside.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t trace_id = 0;  ///< request-scoped correlation id (0 = none)
  std::int64_t arg = -1;      ///< integer payload (band, lane, iteration…)
  double value = 0.0;         ///< instant payload (residual, seconds…)
  std::uint32_t tid = 0;      ///< dense thread id assigned at registration
  Category category = Category::app;
  bool instant = false;
};

/// Request-scoped trace context.  A trace id is minted once per request
/// (qs_client) or per batch (SolverService) and stamped on every span the
/// request touches, across threads, processes, and ranks; one Chrome trace
/// filtered by the id shows the request end-to-end.
struct TraceContext {
  std::uint64_t trace_id = 0;
};

/// Mints a process-unique, collision-resistant 64-bit trace id.  Always
/// compiled (the id travels in protocol frames even in span-less builds).
std::uint64_t mint_trace_id();

/// Spans imported from remote ranks (obs::import_spans) are parked on
/// synthetic thread ids so the exporter can render one track per rank:
/// tid = kRankTidBase + rank * kRankTidStride + remote tid.
inline constexpr std::uint32_t kRankTidBase = 4096;
inline constexpr std::uint32_t kRankTidStride = 64;

/// Aggregated counter total (summed across threads, merged by name).
struct CounterTotal {
  const char* name = nullptr;
  std::uint64_t value = 0;
};

/// True when the library was built with QS_ENABLE_TRACING=ON.
constexpr bool compiled_in() { return QS_TRACING_ON != 0; }

#if QS_TRACING_ON

/// Runtime master switch (off by default even in traced builds).
void set_enabled(bool on);
bool enabled();

/// Adds `delta` to the calling thread's slot for `name` (a static string).
void counter_add(const char* name, std::uint64_t delta = 1);

/// Records a zero-duration event with a double payload.
void instant(const char* name, Category category, double value = 0.0,
             std::int64_t arg = -1);

/// Clears every thread's ring and counter table (test seam; run quiescent).
void reset();

/// All recorded spans/instants, every thread, sorted by start time.
std::vector<SpanRecord> snapshot_spans();

/// Counter totals summed across threads and merged by name text.
std::vector<CounterTotal> snapshot_counters();

/// Events lost to ring wrap-around since the last reset().
std::uint64_t dropped_spans();

/// Counter increments lost to per-thread slot-table exhaustion since the
/// last reset() (more than kCounterSlots distinct names on one thread).
std::uint64_t dropped_counters();

/// Sets / reads the calling thread's trace context.  Spans and instants
/// recorded while a context is set carry its trace id.
void set_thread_trace(TraceContext context);
TraceContext thread_trace();

/// Process-wide fallback context, used when the calling thread has none.
/// It survives fork(), so rank children and engine workers inherit the
/// request id without per-thread plumbing.
void set_process_trace(TraceContext context);

/// The context new spans record under: the thread's, else the process's.
TraceContext current_trace();

/// Records a span with explicit timing, for stitching events whose start
/// was observed elsewhere (e.g. a request span starting at the client's
/// send timestamp — CLOCK_MONOTONIC is shared across processes on a host).
void span_event(const char* name, Category category, std::uint64_t start_ns,
                std::uint64_t dur_ns, std::uint64_t trace_id,
                std::int64_t arg = -1);

/// Adds spans gathered from another rank/process to this process's
/// snapshot, offsetting each record's tid by `tid_base` (see kRankTidBase).
/// Cleared by reset(); included (sorted) in snapshot_spans().
void import_spans(const std::vector<SpanRecord>& spans, std::uint32_t tid_base);

/// RAII span: times the enclosing scope on the wall and thread-CPU clocks.
/// Capture-by-value of the construction-time state keeps the destructor a
/// couple of loads plus two clock reads.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Category category, std::int64_t arg = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_;
  std::uint64_t cpu_start_ns_;
  std::uint64_t trace_id_;
  std::int64_t arg_;
  Category category_;
  bool active_;
};

/// RAII counter: adds the scope's elapsed wall nanoseconds to `name`
/// (e.g. barrier wait time — a duration total, not a span per wait).
class ScopedCounterNs {
 public:
  explicit ScopedCounterNs(const char* name);
  ~ScopedCounterNs();
  ScopedCounterNs(const ScopedCounterNs&) = delete;
  ScopedCounterNs& operator=(const ScopedCounterNs&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_;
  bool active_;
};

/// RAII trace context: installs `context` on the calling thread for the
/// scope, restoring the previous context on exit.
class TraceScope {
 public:
  explicit TraceScope(TraceContext context) : previous_(thread_trace()) {
    set_thread_trace(context);
  }
  ~TraceScope() { set_thread_trace(previous_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext previous_;
};

#else  // !QS_TRACING_ON — the whole API collapses to nothing.

inline void set_enabled(bool) {}
inline bool enabled() { return false; }
inline void counter_add(const char*, std::uint64_t = 1) {}
inline void instant(const char*, Category, double = 0.0, std::int64_t = -1) {}
inline void reset() {}
inline std::vector<SpanRecord> snapshot_spans() { return {}; }
inline std::vector<CounterTotal> snapshot_counters() { return {}; }
inline std::uint64_t dropped_spans() { return 0; }
inline std::uint64_t dropped_counters() { return 0; }
inline void set_thread_trace(TraceContext) {}
inline TraceContext thread_trace() { return {}; }
inline void set_process_trace(TraceContext) {}
inline TraceContext current_trace() { return {}; }
inline void span_event(const char*, Category, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::int64_t = -1) {}
inline void import_spans(const std::vector<SpanRecord>&, std::uint32_t) {}

class ScopedSpan {
 public:
  ScopedSpan(const char*, Category, std::int64_t = -1) {}
};

class ScopedCounterNs {
 public:
  explicit ScopedCounterNs(const char*) {}
};

class TraceScope {
 public:
  explicit TraceScope(TraceContext) {}
};

#endif  // QS_TRACING_ON

}  // namespace qs::obs

// Call-site macros.  Use these (not the classes) in library code: when the
// build gate is off they expand to `((void)0)` and their arguments are
// never evaluated.
#if QS_TRACING_ON
#define QS_OBS_CONCAT2(a, b) a##b
#define QS_OBS_CONCAT(a, b) QS_OBS_CONCAT2(a, b)
#define QS_TRACE_SPAN(name, category) \
  ::qs::obs::ScopedSpan QS_OBS_CONCAT(qs_obs_span_, __LINE__)( \
      name, ::qs::obs::Category::category)
#define QS_TRACE_SPAN_ARG(name, category, arg) \
  ::qs::obs::ScopedSpan QS_OBS_CONCAT(qs_obs_span_, __LINE__)( \
      name, ::qs::obs::Category::category, static_cast<std::int64_t>(arg))
#define QS_TRACE_INSTANT(name, category, value) \
  ::qs::obs::instant(name, ::qs::obs::Category::category, value)
#define QS_TRACE_INSTANT_ARG(name, category, value, arg) \
  ::qs::obs::instant(name, ::qs::obs::Category::category, value, \
                     static_cast<std::int64_t>(arg))
#define QS_TRACE_COUNTER(name, delta) ::qs::obs::counter_add(name, delta)
#define QS_TRACE_COUNTER_SCOPE_NS(name) \
  ::qs::obs::ScopedCounterNs QS_OBS_CONCAT(qs_obs_ctr_, __LINE__)(name)
#else
#define QS_TRACE_SPAN(name, category) ((void)0)
#define QS_TRACE_SPAN_ARG(name, category, arg) ((void)0)
#define QS_TRACE_INSTANT(name, category, value) ((void)0)
#define QS_TRACE_INSTANT_ARG(name, category, value, arg) ((void)0)
#define QS_TRACE_COUNTER(name, delta) ((void)0)
#define QS_TRACE_COUNTER_SCOPE_NS(name) ((void)0)
#endif
