// A minimal multi-threaded Engine for the tests: every dispatch starts
// lanes − 1 std::threads over contiguous chunks, runs the last chunk on the
// calling thread and joins them.  No pool, no speed claim.  ThreadSanitizer
// cannot see libgomp's barriers and an OpenMP-off build has no other
// threaded engine, so this is where the Engine contract runs on real threads.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/engine.hpp"
#include "support/contracts.hpp"

namespace qs::testing {

class ThreadedTestEngine final : public parallel::Engine {
 public:
  static constexpr unsigned kMaxLanes = 8;

  explicit ThreadedTestEngine(unsigned lanes) : lanes_(lanes) {
    require(lanes >= 1 && lanes <= kMaxLanes,
            "ThreadedTestEngine: lanes must be in [1, 8]");
  }

  std::string_view name() const override { return "threaded-test"; }
  unsigned concurrency() const override { return lanes_; }

  /// The first exception any lane threw is rethrown after the joins.
  void dispatch(std::size_t n, const parallel::RangeKernel& kernel) const override {
    if (n == 0) return;
    const std::size_t chunk = (n + lanes_ - 1) / lanes_;
    std::exception_ptr first_error;
    std::mutex error_mutex;
    const auto lane_task = [&](unsigned lane) {
      const std::size_t begin = std::min(lane * chunk, n);
      const std::size_t end = std::min(begin + chunk, n);
      if (begin == end) return;
      try {
        kernel(begin, end);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> threads;  // joined as the scope closes
      for (unsigned lane = 0; lane + 1 < lanes_; ++lane) {
        threads.emplace_back(lane_task, lane);
      }
      lane_task(lanes_ - 1);
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Adds the lane partials in lane order (an empty lane adds 0.0).
  double reduce_partials(std::size_t n,
                         const parallel::PartialKernel& kernel) const override {
    std::array<double, kMaxLanes> partial{};
    const std::size_t chunk = (n + lanes_ - 1) / lanes_;
    dispatch(n, [&](std::size_t begin, std::size_t end) {
      partial[begin / chunk] = kernel(begin, end);
    });
    double total = 0.0;
    for (unsigned lane = 0; lane < lanes_; ++lane) total += partial[lane];
    return total;
  }

  double reduce_sum(std::span<const double> v) const override {
    return sum_of(v.size(), [&](std::size_t i) { return v[i]; });
  }
  double reduce_abs_sum(std::span<const double> v) const override {
    return sum_of(v.size(), [&](std::size_t i) { return std::abs(v[i]); });
  }
  double reduce_sum_squares(std::span<const double> v) const override {
    return sum_of(v.size(), [&](std::size_t i) { return v[i] * v[i]; });
  }
  double reduce_dot(std::span<const double> a, std::span<const double> b) const override {
    require(a.size() == b.size(), "reduce_dot: dimension mismatch");
    return sum_of(a.size(), [&](std::size_t i) { return a[i] * b[i]; });
  }

 private:
  template <typename Term>
  double sum_of(std::size_t n, const Term& term) const {
    return reduce_partials(n, [&](std::size_t begin, std::size_t end) {
      double acc = 0.0;
      for (std::size_t i = begin; i < end; ++i) acc += term(i);
      return acc;
    });
  }

  unsigned lanes_;
};

}  // namespace qs::testing
