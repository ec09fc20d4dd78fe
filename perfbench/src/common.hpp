// Shared pieces of the benchmark: clocks, order statistics, metrics, the
// in-memory span store, host provenance and the memory-bandwidth probe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qs::parallel {
class Engine;
}  // namespace qs::parallel

namespace perfbench {

/// Monotonic clock in nanoseconds (CLOCK_MONOTONIC, shared with the
/// library's own timestamps).
std::uint64_t now_ns();

inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double elapsed_s(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// --- order statistics -------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// The highest whole percentile that still has at least ten samples beyond
/// it.  `percentile` is 0 when the sample has fewer than eleven values.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< Samples strictly above `value`.
  std::size_t count = 0;
};
Tail tail_with_ten_beyond(std::vector<double> v);

// --- metrics and run results ------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< Scratch for sockets and checkpoints.
};

/// What one workload run produced.  `attempted` / `failed` count every
/// operation and every oracle verdict on it; `report` holds the
/// human-readable lines (the workload's metrics under their own names).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> report;
  std::vector<std::string> failures;  ///< First few failure descriptions.
  std::uint64_t oracle_checks = 0;    ///< Oracle comparisons executed.
  std::string detail_json = "null";   ///< Per-operation record for the results file.

  /// Counts one operation; a false `ok` counts it failed with `what`.
  void count(bool ok, const std::string& what);
  void line(const std::string& text) { report.push_back(text); }
};

/// The end-to-end and per-layer metric names with their units; every run
/// reports every name of its mode (BENCHMARK.json lists the same).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Median wall time in seconds of `reps` calls of `setup`.
double median_setup_s(int reps, const std::function<void()>& setup);

/// Peak resident set size in MiB of this process; with `children` the
/// largest reaped child's peak (RUSAGE_CHILDREN) is added.
double peak_rss_mib(bool children);

/// Shortest round-trip decimal form of a double ("null" if not finite).
std::string json_number(double value);
std::string json_string(const std::string& text);
std::string json_list(const std::vector<double>& values);
/// printf into a string of at most 1023 characters (longer output is cut).
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// --- spans ------------------------------------------------------------------

/// One timed interval at a layer boundary.  `parent` is the enclosing span
/// on the same thread (0 for a root); spans of one solve or request share
/// `trace`.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span store, written out once at the end of a traced run.
/// Recording is thread-safe; when disabled every call is a no-op.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id();
  void record(Span span);
  std::vector<Span> spans() const;
  void write_chrome_json(const std::filesystem::path& path) const;

  /// Self time in ns per span name (durations minus the time child spans
  /// cover), over the spans `keep` accepts (all when empty); children are
  /// counted whether kept or not.
  std::map<std::string, std::uint64_t> self_times(
      const std::function<bool(const Span&)>& keep = {}) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

Tracer& tracer();

/// RAII span on the calling thread; nests under the thread's open span and
/// inherits its trace id unless one is given.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_trace_ = 0;
};

/// The calling thread's open span and its trace id (0 when none).
std::uint64_t current_span_id();
std::uint64_t current_trace_id();

/// Records a finished interval under an explicit parent (for spans whose
/// ends are observed on different threads).
void record_span(const char* name, std::uint64_t parent, std::uint64_t trace,
                 std::uint64_t start_ns, std::uint64_t end_ns);

// --- host -------------------------------------------------------------------

/// Last-level cache size in bytes from sysfs (0 when unreadable).
std::size_t l3_cache_bytes();

/// STREAM triad a[i] = b[i] + s * c[i] through `engine`, with each array at
/// least four times the last-level cache.  Bandwidth counts three arrays of
/// traffic per pass (write-allocate not counted).
struct TriadResult {
  double gbps = 0.0;
  std::size_t array_bytes = 0;
  std::size_t l3_bytes = 0;
};
TriadResult triad_probe(const qs::parallel::Engine& engine);

/// Where the run happened: CPU, caches, threads, kernel tier, compiler,
/// flags, commit.  `host_id` is what compare.py matches on.
std::string provenance_json(const std::string& commit, const std::string& src_digest);

}  // namespace perfbench
