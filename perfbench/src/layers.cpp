#include "layers.hpp"

#include <type_traits>

#include "common.hpp"

namespace perfbench {
namespace {

thread_local bool t_in_apply = false;

}  // namespace

void TimingOperator::apply(std::span<const double> x, std::span<double> y) const {
  t_in_apply = true;
  const std::uint64_t start = now_ns();
  {
    const ScopedSpan span("core.matvec");
    inner_->apply(x, y);
  }
  const std::uint64_t end = now_ns();
  t_in_apply = false;
  tally_.apply_start_ns.push_back(start);
  tally_.apply_ms.push_back(ns_to_ms(end - start));
}

template <typename F>
auto TimingEngine::timed(bool reduce, F&& call) const {
  const bool kernel = t_in_apply;
  (kernel ? (reduce ? tally_.kernel_reduces : tally_.kernel_dispatches)
          : (reduce ? tally_.epilogue_reduces : tally_.epilogue_dispatches)) += 1;
  const std::uint64_t start = now_ns();
  const ScopedSpan span(kernel ? (reduce ? "parallel.reduce" : "parallel.dispatch")
                               : "solvers.epilogue");
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    tally_.engine_ns += now_ns() - start;
  } else {
    const auto value = call();
    tally_.engine_ns += now_ns() - start;
    return value;
  }
}

void TimingEngine::dispatch(std::size_t n, const qs::parallel::RangeKernel& kernel) const {
  timed(false, [&] { inner_.dispatch(n, kernel); });
}

double TimingEngine::reduce_sum(std::span<const double> v) const {
  return timed(true, [&] { return inner_.reduce_sum(v); });
}

double TimingEngine::reduce_abs_sum(std::span<const double> v) const {
  return timed(true, [&] { return inner_.reduce_abs_sum(v); });
}

double TimingEngine::reduce_sum_squares(std::span<const double> v) const {
  return timed(true, [&] { return inner_.reduce_sum_squares(v); });
}

double TimingEngine::reduce_dot(std::span<const double> a,
                                std::span<const double> b) const {
  return timed(true, [&] { return inner_.reduce_dot(a, b); });
}

double TimingEngine::reduce_partials(std::size_t n,
                                     const qs::parallel::PartialKernel& kernel) const {
  return timed(true, [&] { return inner_.reduce_partials(n, kernel); });
}

}  // namespace perfbench
