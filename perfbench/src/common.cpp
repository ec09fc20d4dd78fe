#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "parallel/engine.hpp"
#include "transforms/sv_microkernel.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Tail tail_with_ten_beyond(std::vector<double> v) {
  Tail out;
  out.count = v.size();
  if (v.size() < 11) return out;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (int pct = static_cast<int>(std::floor(100.0 * (n - 10.0) / n)); pct > 0; --pct) {
    const double value = quantile(v, pct / 100.0);
    const auto beyond = static_cast<std::size_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), value));
    if (beyond >= 10) {
      out.percentile = pct;
      out.value = value;
      out.beyond = beyond;
      return out;
    }
  }
  return out;
}

void RunResult::count(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"base_p50_ms", "ms"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.matvec_count", "count"},
      {"core.matvec_ms", "ms"},
      {"core.matvec_1t_ms", "ms"},
      {"core.matvec_mib", "MiB"},
      {"core.matvec_gbps", "GB/s"},
      {"core.matvec_roofline", "ratio"},
      {"core.operator_setup_ms", "ms"},
      {"solvers.iterations", "count"},
      {"solvers.residual_checks", "count"},
      {"solvers.epilogue_ms", "ms"},
      {"solvers.driver_ms", "ms"},
      {"solvers.iter_over_matvec", "ratio"},
      {"parallel.threads", "count"},
      {"parallel.dispatches_per_iter", "count"},
      {"parallel.reduces_per_iter", "count"},
      {"parallel.dispatch_ms", "ms"},
      {"parallel.efficiency", "ratio"},
      {"service.requests", "count"},
      {"service.ok", "count"},
      {"service.shed", "count"},
      {"service.expired", "count"},
      {"service.batches", "count"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_lookup_us", "us"},
      {"service.coalesce_width", "count"},
      {"service.family_solve_ms", "ms"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.protocol_us", "us"},
      {"service.transport_ms", "ms"},
      {"service.generator_late_ms", "ms"},
      {"distributed.messages", "count"},
      {"distributed.mib_moved", "MiB"},
      {"distributed.allreduces", "count"},
      {"distributed.exchange_ms", "ms"},
      {"distributed.compute_ms", "ms"},
      {"distributed.overlap_ratio", "ratio"},
      {"io.checkpoint_count", "count"},
      {"io.checkpoint_ms", "ms"},
      {"io.checkpoint_mib", "MiB"},
      {"mem.triad_gbps", "GB/s"},
      {"obs.trace_overhead", "ratio"},
  };
  return names;
}

double median_setup_s(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t start = now_ns();
    setup();
    times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(times);
}

double peak_rss_mib(bool children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kib += static_cast<double>(kids.ru_maxrss);
  }
  return kib / 1024.0;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ",";
    out += json_number(v);
  }
  return out + "]";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += fmt("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// --- spans ------------------------------------------------------------------

namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_trace = 0;

std::uint32_t thread_tag() {
  static std::mutex mutex;
  static std::uint32_t next = 1;
  thread_local std::uint32_t tag = 0;
  if (tag == 0) {
    const std::lock_guard<std::mutex> lock(mutex);
    tag = next++;
  }
  return tag;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":" << json_string(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << json_number(static_cast<double>(s.start_ns) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << "}}";
  }
  out << "\n]}\n";
}

std::map<std::string, std::uint64_t> Tracer::self_times(
    const std::function<bool(const Span&)>& keep) const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : all) {
    if (keep && !keep(s)) continue;
    const std::uint64_t duration = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : std::min(it->second, duration);
    out[s.name] += duration - covered;
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t trace) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = t.next_id();
  span_.parent = t_current_span;
  span_.trace = trace != 0 ? trace : t_current_trace;
  span_.tid = thread_tag();
  saved_parent_ = t_current_span;
  saved_trace_ = t_current_trace;
  t_current_span = span_.id;
  t_current_trace = span_.trace;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_current_span = saved_parent_;
  t_current_trace = saved_trace_;
  tracer().record(std::move(span_));
}

std::uint64_t current_span_id() { return t_current_span; }
std::uint64_t current_trace_id() { return t_current_trace; }

void record_span(const char* name, std::uint64_t parent, std::uint64_t trace,
                 std::uint64_t start_ns, std::uint64_t end_ns) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  Span s;
  s.name = name;
  s.id = t.next_id();
  s.parent = parent;
  s.trace = trace;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.tid = thread_tag();
  t.record(std::move(s));
}

// --- host -------------------------------------------------------------------

namespace {

std::string read_first_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::size_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (text.back() == 'K') value *= 1024;
  if (text.back() == 'M') value *= 1024 * 1024;
  return value;
}

struct CacheInfo {
  unsigned level = 0;
  std::string type;
  std::string size;
};

std::vector<CacheInfo> cpu0_caches() {
  std::vector<CacheInfo> out;
  const std::filesystem::path base = "/sys/devices/system/cpu/cpu0/cache";
  for (int i = 0; i < 16; ++i) {
    const std::filesystem::path dir = base / ("index" + std::to_string(i));
    if (!std::filesystem::exists(dir)) break;
    CacheInfo c;
    c.level = static_cast<unsigned>(std::atoi(read_first_line(dir / "level").c_str()));
    c.type = read_first_line(dir / "type");
    c.size = read_first_line(dir / "size");
    out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double mem_total_gib() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  double kib = 0.0;
  while (in >> key) {
    if (key == "MemTotal:") {
      in >> kib;
      break;
    }
    in.ignore(1 << 16, '\n');
  }
  return kib / (1024.0 * 1024.0);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::size_t l3_cache_bytes() {
  std::size_t best = 0;
  unsigned best_level = 0;
  for (const CacheInfo& c : cpu0_caches()) {
    if (c.type == "Instruction") continue;
    if (c.level >= best_level) {
      best_level = c.level;
      best = parse_cache_size(c.size);
    }
  }
  return best;
}

TriadResult triad_probe(const qs::parallel::Engine& engine) {
  TriadResult out;
  out.l3_bytes = l3_cache_bytes();
  const std::size_t floor_bytes = std::size_t{64} << 20;  // when sysfs is silent
  out.array_bytes = std::max(4 * out.l3_bytes, floor_bytes);
  const std::size_t n = out.array_bytes / sizeof(double);
  out.array_bytes = n * sizeof(double);

  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  // First touch through the engine, so pages land where the lanes run.
  engine.dispatch(n, [pa, pb, pc](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
  });
  const double s = 3.0;
  std::vector<double> rates;
  for (int pass = 0; pass < 5; ++pass) {
    const std::uint64_t start = now_ns();
    engine.dispatch(n, [pa, pb, pc, s](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
    rates.push_back(3.0 * static_cast<double>(out.array_bytes) / seconds * 1e-9);
  }
  if (pa[n / 2] != 7.0) return out;  // the probe computed garbage: report 0
  out.gbps = median(rates);
  return out;
}

std::string provenance_json(const std::string& commit, const std::string& src_digest) {
  const std::string model = cpu_model();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::string caches = "[";
  std::string cache_key;
  for (const CacheInfo& c : cpu0_caches()) {
    if (caches.size() > 1) caches += ",";
    caches += fmt("{\"level\":%u,\"type\":%s,\"size\":%s}", c.level,
                  json_string(c.type).c_str(), json_string(c.size).c_str());
    cache_key += fmt("L%u%s=%s;", c.level, c.type.c_str(), c.size.c_str());
  }
  caches += "]";
  const double mem_gib = mem_total_gib();
  const std::string host_key =
      model + "|" + std::to_string(nproc) + "|" + cache_key + "|" +
      std::to_string(static_cast<long>(std::lround(mem_gib)));
  const char* omp_env = std::getenv("OMP_NUM_THREADS");

  std::ostringstream out;
  out << "{\"host_id\":" << json_string(fmt("%016llx", static_cast<unsigned long long>(
                                                           fnv1a(host_key))))
      << ",\"cpu_model\":" << json_string(model) << ",\"nproc\":" << nproc
      << ",\"caches\":" << caches << ",\"mem_total_gib\":" << json_number(mem_gib)
      << ",\"openmp_threads\":" << qs::parallel::parallel_engine().concurrency()
      << ",\"parallel_backend\":"
      << json_string(std::string(qs::parallel::parallel_engine().name()))
      << ",\"OMP_NUM_THREADS\":" << json_string(omp_env != nullptr ? omp_env : "")
      << ",\"sv_kernel\":"
      << json_string(qs::transforms::resolved_sv_kernel_name(
             qs::transforms::SvKernel::automatic))
      << ",\"compiler\":" << json_string(QS_BENCH_COMPILER)
      << ",\"flags\":" << json_string(QS_BENCH_FLAGS)
      << ",\"build_type\":" << json_string(QS_BENCH_BUILD_TYPE)
      << ",\"commit\":" << json_string(commit)
      << ",\"src_digest\":" << json_string(src_digest) << "}";
  return out.str();
}

}  // namespace perfbench
