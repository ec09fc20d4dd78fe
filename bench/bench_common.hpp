// Shared helpers for the figure-reproduction bench binaries.
//
// Each bench binary reproduces one table/figure of the paper: it prints a
// human-readable table mirroring the figure's series plus a CSV block for
// re-plotting.  Problem sizes are capped so the default run finishes on a
// laptop; the caps can be raised via the QS_BENCH_MAX_NU environment
// variable (the paper itself extrapolates the O(N^2) reference beyond
// nu = 21, and so do we — extrapolated rows are marked).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "support/timer.hpp"

namespace qs::bench {

/// Reads an unsigned from the environment with a default.
inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<unsigned>(parsed) : fallback;
}

/// Wall-clock time of fn(), in seconds: best of `reps` runs.  Thin alias
/// for qs::best_of_seconds (support/timer.hpp), the benches' one timing
/// idiom.
template <typename Fn>
double time_best_of(unsigned reps, Fn&& fn) {
  return qs::best_of_seconds(reps, std::forward<Fn>(fn));
}

/// Least-squares fit of log2(t) = a + b * nu over the measured points;
/// used to extrapolate the O(N^2) reference beyond feasible sizes exactly
/// as the paper does for nu >= 22.
struct LogFit {
  double a = 0.0;
  double b = 0.0;

  double evaluate(double nu) const { return std::exp2(a + b * nu); }
};

inline LogFit fit_log2(const std::vector<double>& nus,
                       const std::vector<double>& times) {
  const std::size_t n = nus.size();
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = nus[i];
    const double y = std::log2(times[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  LogFit fit;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  fit.b = (static_cast<double>(n) * sxy - sx * sy) / denom;
  fit.a = (sy - fit.b * sx) / static_cast<double>(n);
  return fit;
}

/// Data-cache sizes in bytes; 0 when a level is absent or unreadable.
/// Recorded in bench JSON provenance: it is why two hosts produce
/// different rows.
struct CacheHierarchy {
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
  bool detected = false;  ///< true iff at least L1d or L2 was read
};

/// Parses a sysfs cache size string ("48K", "2048K", "8M"); 0 on failure.
inline std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[pos] - '0');
    ++pos;
  }
  if (pos == 0) return 0;
  if (pos < text.size()) {
    const char unit = text[pos];
    if (unit == 'K' || unit == 'k') value <<= 10;
    else if (unit == 'M' || unit == 'm') value <<= 20;
    else if (unit == 'G' || unit == 'g') value <<= 30;
  }
  return value;
}

inline std::string read_sysfs_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// Reads /sys/devices/system/cpu/cpu0/cache/index*/ (Linux).  On other
/// platforms or restricted containers returns detected == false.
inline CacheHierarchy detect_cache_hierarchy() {
  CacheHierarchy c;
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + std::to_string(idx) + "/";
    const std::string level = read_sysfs_line(dir + "level");
    if (level.empty()) {
      if (idx == 0) break;  // no cache directory at all
      continue;
    }
    const std::string type = read_sysfs_line(dir + "type");
    if (type == "Instruction") continue;
    const std::size_t bytes = parse_cache_size(read_sysfs_line(dir + "size"));
    if (bytes == 0) continue;
    if (level == "1") c.l1d_bytes = bytes;
    else if (level == "2") c.l2_bytes = bytes;
    else if (level == "3") c.l3_bytes = bytes;
  }
  c.detected = c.l1d_bytes != 0 || c.l2_bytes != 0;
  return c;
}

}  // namespace qs::bench
