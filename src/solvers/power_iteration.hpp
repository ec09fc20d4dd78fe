// Power iteration for the dominant eigenpair of an implicit operator
// (Section 3 of the paper).
//
// The paper selects the power iteration over Lanczos/Arnoldi (fewer stored
// vectors) and over randomised sketching (accuracy): with W positive
// definite and Perron-Frobenius applicable, lambda_0 > lambda_1 >= ... > 0
// guarantees convergence.  The spectral shift mu (W - mu I) improves the
// convergence ratio from lambda_1/lambda_0 to (lambda_1-mu)/(lambda_0-mu);
// the conservative choice mu = (1-2p)^nu f_min from core/spectral.hpp is
// always admissible.
//
// Resilience: the loop runs through solvers/iteration_driver, which owns the
// periodic checkpointing (write-to-temp-then-rename, checksummed), the stall
// window, and the NaN/Inf health guards; a resumed run continues the
// original residual trajectory bit for bit on the serial backend, and a
// non-finite iterate is detected at residual-check cadence and reported as
// a structured SolverFailure instead of spinning max_iterations on garbage.
//
// run_power_iteration is the library's one power-iteration loop: the entry
// points below run it with the engine's reductions, and every rank of a
// distributed solve runs it on its block with cross-rank reductions (see
// distributed/distributed_solver.hpp).  PowerReducer is the seam.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "core/operators.hpp"
#include "io/binary_io.hpp"
#include "parallel/engine.hpp"
#include "solvers/iteration_driver.hpp"

namespace qs::solvers {

/// Tuning knobs for the power iteration: the shared iteration block (see
/// solvers/iteration_driver.hpp for tolerance, max_iterations, residual
/// cadence, stall window, engine, workspace, and checkpointing) plus the
/// spectral shift.
struct PowerOptions : IterationOptions {
  /// Spectral shift mu: iterates with (W - mu I). Must keep lambda_0 - mu
  /// the dominant eigenvalue (any mu <= lambda_min(W) qualifies).
  double shift = 0.0;
};

/// Outcome of a power iteration run: the shared outcome fields (eigenvalue,
/// iterations, residual, converged/stalled/failure, checkpoint statistics)
/// plus the eigenvector.
struct PowerResult : IterationResult {
  std::vector<double> eigenvector;  ///< 1-norm normalised, nonnegative.
};

/// The per-element terms of PowerReducer::rayleigh: {x_i x_i, x_i y_i}.
/// Every reducer sums exactly these terms and differs only in the order it
/// adds them, so each term rounds the same on every engine and rank.
struct RayleighTerm {
  const double* x;
  const double* y;
  parallel::PairSum operator()(std::size_t i) const {
    return {x[i] * x[i], x[i] * y[i]};
  }
};

/// The per-element terms of PowerReducer::residual_norm1:
/// {(y_i - lambda x_i)^2, |y_i - mu x_i|}; without `Check` the first is 0,
/// without `Shift` the second is |y_i|.
template <bool Check, bool Shift>
struct ResidualNorm1Term {
  const double* x;
  const double* y;
  double lambda;
  double mu;
  parallel::PairSum operator()(std::size_t i) const {
    double r2 = 0.0;
    if constexpr (Check) {
      const double r = y[i] - lambda * x[i];
      r2 = r * r;
    }
    return {r2, std::abs(Shift ? y[i] - mu * x[i] : y[i])};
  }
};

/// Returns sum(term) for the ResidualNorm1Term variant that (check, mu != 0)
/// selects, so each variant's sweep is branch-free.
template <typename Sum>
parallel::PairSum sum_residual_norm1(std::span<const double> x,
                                     std::span<const double> y, double lambda,
                                     double mu, bool check, const Sum& sum) {
  const double* xp = x.data();
  const double* yp = y.data();
  if (check) {
    return mu != 0.0 ? sum(ResidualNorm1Term<true, true>{xp, yp, lambda, mu})
                     : sum(ResidualNorm1Term<true, false>{xp, yp, lambda, mu});
  }
  return mu != 0.0 ? sum(ResidualNorm1Term<false, true>{xp, yp, lambda, mu})
                   : sum(ResidualNorm1Term<false, false>{xp, yp, lambda, mu});
}

/// The global operations of the power loop — everything that reads the
/// whole vector, not the caller's part of it.  A serial solve reduces with
/// its engine; a distributed rank combines block partials across ranks, so
/// every value is identical on every rank.  On a distributed solve every
/// method is a collective, called by all ranks in the same order.
class PowerReducer {
 public:
  /// Residual-check decisions that must agree everywhere: any rank's stop
  /// vote cancels; the root's clock decides the time cadence.
  struct Control {
    bool stop = false;
    bool time_due = false;
  };

  virtual ~PowerReducer() = default;
  /// True on the one participant that reports (hooks, metrics, checkpoint
  /// writes): rank 0 of a distributed solve.
  virtual bool root() const = 0;
  /// {x·x, x·y}: the Rayleigh quotient's sums (RayleighTerm), one sweep.
  virtual parallel::PairSum rayleigh(std::span<const double> x,
                                     std::span<const double> y) = 0;
  /// {sum_i (y_i - lambda x_i)^2, sum_i |y_i - mu x_i|}: the residual and
  /// the 1-norm of the shifted product (ResidualNorm1Term), one sweep.  The
  /// first is 0 when !check.
  virtual parallel::PairSum residual_norm1(std::span<const double> x,
                                           std::span<const double> y,
                                           double lambda, double mu,
                                           bool check) = 0;
  /// Sum of the entries (the Perron orientation test).
  virtual double sign_sum(std::span<const double> x) = 0;
  virtual Control agree(Control mine) = 0;
  /// The full iterate for a checkpoint: `x` itself, or the blocks gathered
  /// to the root (empty elsewhere).
  virtual std::span<const double> full_iterate(std::span<const double> x) = 0;
  /// Replaces `x` with the result vector — the full iterate on the root, or
  /// each rank's own part when the solve keeps blocks — scaled to unit
  /// 1-norm when `normalise`.
  virtual void final_vector(std::vector<double>& x, bool normalise) = 0;
};

/// The power-iteration loop.  `iterate` (op.dimension() entries) is taken
/// verbatim: callers normalise cold starts, and a resume passes the
/// caller's part of resume->eigenvector.  `resume` is checked as a whole
/// (check_resumable) before any reduction, so every participant refuses a
/// bad checkpoint identically.
PowerResult run_power_iteration(const core::LinearOperator& op,
                                std::vector<double> iterate,
                                const io::SolverCheckpoint* resume,
                                const PowerOptions& options,
                                PowerReducer& reducer);

/// Runs the (shifted) power iteration on `op` starting from `start`
/// (1-norm normalised internally; empty selects the uniform vector).
///
/// The paper's recommended start is the landscape itself,
/// s = diag(F)/||diag(F)||_1, since the dominant eigenvector of W = Q F
/// resembles F (the dominant eigenvector of Q alone is the uniform vector).
PowerResult power_iteration(const core::LinearOperator& op,
                            std::span<const double> start = {},
                            const PowerOptions& options = {});

/// power_iteration from a non-empty `start` that is handed over: the vector
/// is 1-norm normalised in place and becomes the iterate, so a solve
/// allocates, first-touches and copies one N-vector fewer.  Same results as
/// power_iteration(op, start, options), bit for bit.
PowerResult power_iteration_owned(const core::LinearOperator& op,
                                  std::vector<double> start,
                                  const PowerOptions& options = {});

/// Resumes a power iteration from a checkpoint written by a previous run
/// with the same operator and options.  The iterate is taken verbatim (no
/// re-normalisation) and the stall-window state is restored, so on the
/// serial backend the residual trajectory from the checkpoint iteration
/// onward is bit-identical to the uninterrupted run.
PowerResult resume_power_iteration(const core::LinearOperator& op,
                                   const io::SolverCheckpoint& checkpoint,
                                   const PowerOptions& options = {});

/// The paper's starting vector for a given landscape.
std::vector<double> landscape_start(const core::Landscape& landscape);

}  // namespace qs::solvers
