// Kernel-dispatch execution engine: the repo's stand-in for the paper's
// OpenCL/GPU runtime.
//
// The paper's GPU implementation (Section 4) launches, per butterfly level,
// a kernel over N/2 independent work items and synchronises between levels;
// the host loop owns the level iteration.  This engine reproduces exactly
// that structure on the CPU: dispatch(n, kernel) runs a 1-D index space with
// barrier semantics (all work items complete before dispatch returns), and
// reductions cover the norm/residual computations the power iteration needs
// between products.  Backends: a serial one (the "single CPU core" reference
// of the paper's Figure 2) and an OpenMP one (the "parallel hardware" axis
// of Figure 4); the tests add a threaded one TSan can see
// (testing/threaded_test_engine.hpp).  See DESIGN.md, "Substitutions".
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>

namespace qs::parallel {

/// Non-owning callable reference: a pointer to the callee plus a trampoline,
/// so binding a lambda never heap-allocates — unlike std::function, whose
/// small-buffer optimisation the capture lists of the banded kernels exceed,
/// which would put an allocation on every dispatch of the solver hot path
/// (see tests/alloc_guard_test.cpp).  Safe for the Engine interface because
/// dispatch/reduce_partials have barrier semantics: the kernel is only ever
/// invoked while the caller's callable is alive; backends must not retain it
/// past the call.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // std::function — call sites pass lambdas directly.
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              static_cast<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, static_cast<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// A chunk of a 1-D index space: the kernel body is invoked as
/// body(begin, end) and must process every index in [begin, end).
/// Passing ranges instead of single indices keeps dispatch overhead
/// negligible next to memory-bound kernel bodies.
using RangeKernel = FunctionRef<void(std::size_t begin, std::size_t end)>;

/// A partial reduction over a chunk of a 1-D index space: the body returns
/// the partial sum for [begin, end).  Lets callers run arbitrary fused
/// element-wise reductions (e.g. ||y - lambda x||^2) through the backend
/// without materialising a scratch vector.
using PartialKernel = FunctionRef<double(std::size_t begin, std::size_t end)>;

/// Two sums taken in one sweep (see Engine::reduce_pair).
using PairSum = std::array<double, 2>;

/// A paired partial reduction: the body returns both partial sums for
/// [begin, end), so two reductions over the same vectors cost one pass.
using PairKernel = FunctionRef<PairSum(std::size_t begin, std::size_t end)>;

/// Abstract execution backend with kernel-launch semantics.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Human-readable backend name ("serial", "openmp").
  virtual std::string_view name() const = 0;

  /// Number of hardware lanes the backend will use.
  virtual unsigned concurrency() const = 0;

  /// Executes `kernel` over the index space [0, n) and returns when every
  /// index has been processed (barrier semantics, like clFinish after a
  /// kernel launch). Chunking is backend-defined; the kernel must be safe
  /// to run concurrently on disjoint ranges.
  ///
  /// Exception safety (all backends): if a kernel body throws on any lane,
  /// the first exception is captured, the barrier still completes (every
  /// other lane finishes its chunk), and the exception is rethrown on the
  /// dispatching thread.  The engine remains usable afterwards.  The same
  /// contract holds for reduce_partials; the partial sum is then discarded.
  virtual void dispatch(std::size_t n, const RangeKernel& kernel) const = 0;

  /// Parallel reduction: sum of entries.
  virtual double reduce_sum(std::span<const double> v) const = 0;

  /// Parallel reduction: sum of absolute values (1-norm).
  virtual double reduce_abs_sum(std::span<const double> v) const = 0;

  /// Parallel reduction: sum of squares (squared 2-norm).
  virtual double reduce_sum_squares(std::span<const double> v) const = 0;

  /// Parallel reduction: inner product. Requires equal lengths.
  virtual double reduce_dot(std::span<const double> a,
                            std::span<const double> b) const = 0;

  /// Generic parallel reduction: sums the per-chunk partials of `kernel`
  /// over the index space [0, n).  The kernel must be safe to run
  /// concurrently on disjoint ranges; the combination order of partials is
  /// backend-defined (like any floating-point parallel reduction).
  virtual double reduce_partials(std::size_t n, const PartialKernel& kernel) const = 0;

  /// Paired reduction: sums both components of `kernel`'s partials over
  /// [0, n) in one sweep.  Unlike reduce_partials the combination order is
  /// fixed: the default splits [0, n) into one contiguous block per lane
  /// (concurrency() blocks, at most kMaxPairBlocks), runs the blocks through
  /// dispatch(), and adds the block partials in block order — so a backend
  /// with one lane computes exactly kernel(0, n), and repeated calls on any
  /// backend give the same bits.  Same exception contract as dispatch().
  virtual PairSum reduce_pair(std::size_t n, const PairKernel& kernel) const;

  /// Upper bound on the default reduce_pair's block count (its partials
  /// live on the stack, so the call never allocates).
  static constexpr std::size_t kMaxPairBlocks = 64;
};

/// Process-lifetime serial engine (always available).
const Engine& serial_engine();

/// Process-lifetime parallel engine: OpenMP when available, otherwise the
/// serial engine.
const Engine& parallel_engine();

}  // namespace qs::parallel
