#include "solvers/power_iteration.hpp"

#include <cmath>
#include <utility>

#include "core/workspace.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

// With no engine the element-wise passes and the residual reduction call
// their lambdas directly, inlined.  (The engine path is allocation-free too:
// parallel::RangeKernel/PartialKernel are non-owning FunctionRefs, not
// std::functions — see tests/alloc_guard_test.cpp for the zero-allocation
// hot-path guard.)
template <typename Kernel>
void dispatch(const parallel::Engine* engine, std::size_t n, const Kernel& kernel) {
  if (engine != nullptr) {
    engine->dispatch(n, kernel);
  } else if (n != 0) {
    kernel(0, n);
  }
}

/// Left-to-right sums of both components of term(i) over [begin, end).
template <typename Term>
parallel::PairSum sweep(std::size_t begin, std::size_t end, const Term& term) {
  parallel::PairSum acc{0.0, 0.0};
  for (std::size_t i = begin; i < end; ++i) {
    const parallel::PairSum t = term(i);
    acc[0] += t[0];
    acc[1] += t[1];
  }
  return acc;
}

/// The engine-local reducer: every global operation is one engine
/// reduction, or with no engine the serial fallback.
class EngineReducer final : public PowerReducer {
 public:
  explicit EngineReducer(const parallel::Engine* engine) : engine_(engine) {}

  bool root() const override { return true; }
  parallel::PairSum rayleigh(std::span<const double> x,
                             std::span<const double> y) override {
    return sum(x.size(), RayleighTerm{x.data(), y.data()});
  }
  parallel::PairSum residual_norm1(std::span<const double> x,
                                   std::span<const double> y, double lambda,
                                   double mu, bool check) override {
    return sum_residual_norm1(x, y, lambda, mu, check, [this, &x](const auto& term) {
      return sum(x.size(), term);
    });
  }
  double sign_sum(std::span<const double> x) override {
    return engine_ != nullptr ? engine_->reduce_sum(x) : linalg::sum(x);
  }
  Control agree(Control mine) override { return mine; }
  std::span<const double> full_iterate(std::span<const double> x) override {
    return x;
  }
  void final_vector(std::vector<double>& x, bool normalise) override {
    if (normalise) linalg::normalize1(x);
  }

 private:
  template <typename Term>
  parallel::PairSum sum(std::size_t n, const Term& term) const {
    auto kernel = [&term](std::size_t begin, std::size_t end) {
      return sweep(begin, end, term);
    };
    return engine_ != nullptr ? engine_->reduce_pair(n, kernel) : kernel(0, n);
  }

  const parallel::Engine* engine_;
};

/// The iterations proper, from out.iterations + 1 on; `out.eigenvector`
/// holds the iterate and `driver` the (possibly restored) stall-window
/// accounting.
void iterate_power(const core::LinearOperator& op, IterationDriver& driver,
                   const PowerOptions& options, PowerReducer& reducer,
                   PowerResult& out) {
  const std::size_t n = out.eigenvector.size();

  // The product buffer comes from the shared workspace when one is
  // configured, so repeated solves (sweeps, recovery retries) reuse it.
  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  std::span<double> y = workspace.take(core::Workspace::Slot::product, n);

  std::span<double> x(out.eigenvector);
  const double mu = options.shift;
  // Cancellation votes and the wall-clock checkpoint cadence are agreed at
  // every residual check, and only when one of them is configured.
  const bool agree_control =
      static_cast<bool>(options.should_stop) || options.checkpoint_every_seconds > 0.0;

  for (unsigned it = out.iterations + 1; it <= options.max_iterations; ++it) {
    QS_TRACE_SPAN_ARG("power.iteration", solver, it);
    op.apply(x, y);  // y = W x (unshifted product)
    out.iterations = it;

    // Two paired sweeps read x and y; neither writes, so a stop below
    // leaves x as the pre-update iterate.
    const bool check = driver.should_check(it, options.max_iterations);
    double lambda = 0.0;
    double xx = 0.0;
    if (check) {
      // Rayleigh quotient from the product already in hand.
      const parallel::PairSum r = reducer.rayleigh(x, y);
      xx = r[0];
      lambda = r[1] / xx;
    }
    // Residual ||y - lambda x||_2 formed explicitly (the algebraically
    // equivalent sqrt(yy - xy^2/xx) cancels catastrophically: its noise
    // floor is sqrt(eps) ~ 1e-8 in eigenvector error, far above the
    // tolerances this solver targets), and the 1-norm of the shifted
    // product (W - mu I) x, both from one sweep.
    const auto [res2, norm] = reducer.residual_norm1(x, y, lambda, mu, check);

    bool time_due = false;
    if (check) {
      // Numerical-health guard: a NaN/Inf iterate makes both the Rayleigh
      // quotient and the residual non-finite.  Fail fast with a structured
      // reason instead of spinning max_iterations on garbage.
      if (!driver.guard({lambda, res2}, out)) break;
      out.eigenvalue = lambda;
      out.residual =
          std::sqrt(res2) / std::max(std::abs(lambda) * std::sqrt(xx), 1e-300);

      PowerReducer::Control control;
      if (agree_control) {
        control = reducer.agree(
            {options.should_stop && options.should_stop(), driver.time_due()});
      }
      time_due = control.time_due;
      const IterationDriver::Verdict verdict =
          driver.observe(it, out.residual, out, control.stop);
      if (verdict != IterationDriver::Verdict::proceed) {
        // A cancelled solve (deadline, disconnect, SIGTERM) flushes its
        // finite pre-update iterate — the result of iteration it-1 — so a
        // restart resumes exactly this aborted iteration.
        if (verdict == IterationDriver::Verdict::cancelled &&
            driver.checkpointing()) {
          driver.write_checkpoint(it - 1, out, reducer.full_iterate(x), it - 1);
        }
        break;
      }
    }

    // The 1-norm is computed every iteration anyway, so checking it for
    // NaN/Inf costs one compare and catches a poisoned product at the
    // earliest possible iteration — before it can reach a checkpoint.
    if (!driver.guard({norm}, out)) break;
    require(norm > 0.0, "power_iteration: iterate collapsed to zero");
    // Shifted, normalised update x <- (W - mu I) x / ||(W - mu I) x||_1 in
    // one element-wise pass through the engine, so a parallel backend covers
    // the whole iteration.  The shifted product is never stored: each
    // element rounds y_i - mu x_i, then the product with inv, exactly as a
    // shift pass followed by a scaling pass would.
    const double inv = 1.0 / norm;
    const double* yp = y.data();
    double* xp = x.data();
    if (mu != 0.0) {
      dispatch(options.engine, n, [yp, xp, mu, inv](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) xp[i] = (yp[i] - mu * xp[i]) * inv;
      });
    } else {
      dispatch(options.engine, n, [yp, xp, inv](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) xp[i] = yp[i] * inv;
      });
    }

    // Periodic checkpoint, written only after the health guard above passed:
    // the last checkpoint on disk is always a finite, resumable state.
    if (driver.iteration_due(it) || time_due) {
      driver.write_checkpoint(it, out, reducer.full_iterate(x), it);
    }
  }
}

}  // namespace

std::vector<double> landscape_start(const core::Landscape& landscape) {
  std::vector<double> s(landscape.values().begin(), landscape.values().end());
  linalg::normalize1(s);
  return s;
}

PowerResult run_power_iteration(const core::LinearOperator& op,
                                std::vector<double> iterate,
                                const io::SolverCheckpoint* resume,
                                const PowerOptions& options,
                                PowerReducer& reducer) {
  require(iterate.size() == static_cast<std::size_t>(op.dimension()),
          "power_iteration: iterate does not match the operator dimension");
  PowerResult out;
  IterationDriver driver(options, io::SolverKind::power, reducer.root());
  bool resumable = true;
  if (resume != nullptr) {
    resumable = check_resumable(*resume, io::SolverKind::power, out);
    out.eigenvalue = resume->eigenvalue;
    out.residual = resume->residual;
    out.iterations = static_cast<unsigned>(resume->iteration);
    driver.restore(*resume);
  }
  out.eigenvector = std::move(iterate);
  if (resumable) iterate_power(op, driver, options, reducer, out);

  // A failed exit leaves the last iterate in place for post-mortem
  // inspection but skips the orientation fix (flipping NaNs is meaningless).
  const bool ok = out.failure == SolverFailure::none;
  // Perron orientation: the dominant eigenvector is nonnegative; flip if the
  // iteration settled on the negative representative.
  if (ok && reducer.sign_sum(out.eigenvector) < 0.0) {
    linalg::scale(out.eigenvector, -1.0);
  }
  reducer.final_vector(out.eigenvector, ok);
  return out;
}

PowerResult power_iteration(const core::LinearOperator& op,
                            std::span<const double> start,
                            const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  require(n > 0, "power_iteration: empty operator");
  if (!start.empty()) {
    return power_iteration_owned(op, std::vector<double>(start.begin(), start.end()),
                                 options);
  }
  EngineReducer reducer(options.engine);
  return run_power_iteration(op, std::vector<double>(n, 1.0 / static_cast<double>(n)),
                             nullptr, options, reducer);
}

PowerResult power_iteration_owned(const core::LinearOperator& op,
                                  std::vector<double> start,
                                  const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  require(n > 0, "power_iteration: empty operator");
  require(start.size() == n, "power_iteration: starting vector has wrong dimension");
  linalg::normalize1(start);
  EngineReducer reducer(options.engine);
  return run_power_iteration(op, std::move(start), nullptr, options, reducer);
}

PowerResult resume_power_iteration(const core::LinearOperator& op,
                                   const io::SolverCheckpoint& checkpoint,
                                   const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  require(n > 0, "resume_power_iteration: empty operator");
  require(checkpoint.eigenvector.size() == n,
          "resume_power_iteration: checkpoint dimension does not match operator");
  EngineReducer reducer(options.engine);
  return run_power_iteration(op, checkpoint.eigenvector, &checkpoint, options,
                             reducer);
}

}  // namespace qs::solvers
