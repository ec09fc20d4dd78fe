// Timing decorators installed from outside the library: a LinearOperator
// wrapper (through SolveOptions::wrap_operator) and a parallel::Engine
// wrapper (passed as IterationOptions::engine).  Both forward every call
// unchanged, so a traced solve computes the same numbers as an untraced one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/operators.hpp"
#include "parallel/engine.hpp"

namespace perfbench {

/// Counts and times of one solve, filled by the two decorators.  Used from
/// the solving thread only.
struct LayerTally {
  std::vector<double> apply_ms;
  std::vector<std::uint64_t> apply_start_ns;
  std::uint64_t kernel_dispatches = 0;    ///< Engine dispatches inside apply().
  std::uint64_t kernel_reduces = 0;
  std::uint64_t epilogue_dispatches = 0;  ///< Engine calls outside apply().
  std::uint64_t epilogue_reduces = 0;
  std::uint64_t engine_ns = 0;            ///< All engine calls.
};

/// Times every apply() of the wrapped operator and marks the calling thread
/// as inside the mat-vec, so engine calls made by the kernel are told apart
/// from the power loop's own.
class TimingOperator final : public qs::core::LinearOperator {
 public:
  TimingOperator(std::unique_ptr<qs::core::LinearOperator> inner, LayerTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  qs::seq_t dimension() const override { return inner_->dimension(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<qs::core::LinearOperator> inner_;
  LayerTally& tally_;
};

/// Forwards to `inner`, counting and timing each call and recording it as
/// a span: "parallel.dispatch" / "parallel.reduce" inside a mat-vec,
/// "solvers.epilogue" outside one.
class TimingEngine final : public qs::parallel::Engine {
 public:
  TimingEngine(const qs::parallel::Engine& inner, LayerTally& tally)
      : inner_(inner), tally_(tally) {}

  std::string_view name() const override { return inner_.name(); }
  unsigned concurrency() const override { return inner_.concurrency(); }
  void dispatch(std::size_t n, const qs::parallel::RangeKernel& kernel) const override;
  double reduce_sum(std::span<const double> v) const override;
  double reduce_abs_sum(std::span<const double> v) const override;
  double reduce_sum_squares(std::span<const double> v) const override;
  double reduce_dot(std::span<const double> a, std::span<const double> b) const override;
  double reduce_partials(std::size_t n,
                         const qs::parallel::PartialKernel& kernel) const override;

 private:
  template <typename F>
  auto timed(bool reduce, F&& call) const;

  const qs::parallel::Engine& inner_;
  LayerTally& tally_;
};

}  // namespace perfbench
