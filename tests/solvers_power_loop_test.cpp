// The power loop's sweeps around each mat-vec.
//
// run_power_iteration reads x and y in two paired sweeps ({x·x, x·y}, then
// {Σ(y−λx)², Σ|y−μx|}) and writes x = (y − μx)/‖y − μx‖₁ in a third, where
// it used to run six engine calls and eleven N-double sweeps.  These tests
// hold it to three promises:
//   * the arithmetic did not move: the residual stream, eigenvalue and
//     eigenvector equal the old six-sweep loop (kept below as the oracle)
//     bit for bit, with no engine, on serial_engine() and on tree_engine();
//   * the pass count did not creep back: a checked iteration makes exactly
//     two reduce_pair calls and one dispatch outside the mat-vec, and two
//     allreduces over an Exchange (plus the control word when configured);
//   * the sums are deterministic on the threaded engine: two facade solves
//     on parallel_engine() give the same bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/spectral.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/reduction.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"

namespace qs::solvers {
namespace {

constexpr unsigned kNu = 10;

core::MutationModel test_model() { return core::MutationModel::uniform(kNu, 0.01); }
core::Landscape test_landscape() { return core::Landscape::random(kNu, 5.0, 1.0, 29); }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Outcome {
  std::vector<unsigned> iterations;
  std::vector<double> residuals;
  double eigenvalue = 0.0;
  std::vector<double> eigenvector;
};

/// The power loop before its sweeps were paired, kept as the oracle: after
/// each product it ran x·x, x·y and Σ(y−λx)² (checked iterations only),
/// then y −= μx, ‖y‖₁ and x = y/‖y‖₁, each through the engine's scalar
/// reductions or, with no engine, the linalg serial loops.  Stall window,
/// checkpoints and cancellation are left out; the tests run without them.
/// Starts from `x` taken verbatim.
Outcome six_sweep_loop(const core::LinearOperator& op, std::vector<double> x,
                       const PowerOptions& options) {
  const parallel::Engine* engine = options.engine;
  const std::size_t n = x.size();
  std::vector<double> y(n);
  const double mu = options.shift;
  const auto dot = [engine](std::span<const double> a, std::span<const double> b) {
    return engine != nullptr ? engine->reduce_dot(a, b) : linalg::dot(a, b);
  };
  const auto each = [engine, n](const auto& kernel) {
    if (engine != nullptr) {
      engine->dispatch(n, kernel);
    } else {
      kernel(0, n);
    }
  };

  Outcome out;
  for (unsigned it = 1; it <= options.max_iterations; ++it) {
    op.apply(x, y);
    if (it % options.residual_check_every == 0 || it == options.max_iterations) {
      const double xx = dot(x, x);
      const double xy = dot(x, y);
      const double lambda = xy / xx;
      const double* yp = y.data();
      const double* xp = x.data();
      const auto kernel = [yp, xp, lambda](std::size_t begin, std::size_t end) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const double r = yp[i] - lambda * xp[i];
          acc += r * r;
        }
        return acc;
      };
      const double res2 = engine != nullptr ? engine->reduce_partials(n, kernel)
                                            : kernel(0, n);
      out.eigenvalue = lambda;
      const double residual =
          std::sqrt(res2) / std::max(std::abs(lambda) * std::sqrt(xx), 1e-300);
      out.iterations.push_back(it);
      out.residuals.push_back(residual);
      if (residual <= options.tolerance) break;
    }
    if (mu != 0.0) {
      each([&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) y[i] -= mu * x[i];
      });
    }
    const double norm = engine != nullptr ? engine->reduce_abs_sum(y) : linalg::norm1(y);
    const double inv = 1.0 / norm;
    each([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) x[i] = y[i] * inv;
    });
  }
  const double sign = engine != nullptr ? engine->reduce_sum(x) : linalg::sum(x);
  if (sign < 0.0) linalg::scale(x, -1.0);
  linalg::normalize1(x);
  out.eigenvector = std::move(x);
  return out;
}

/// Expects `actual` to equal the oracle bitwise from iteration `after` + 1 on.
void expect_bitwise(const Outcome& oracle, const Outcome& actual, unsigned after = 0) {
  std::vector<unsigned> iterations;
  std::vector<double> residuals;
  for (std::size_t i = 0; i < oracle.iterations.size(); ++i) {
    if (oracle.iterations[i] <= after) continue;
    iterations.push_back(oracle.iterations[i]);
    residuals.push_back(oracle.residuals[i]);
  }
  ASSERT_EQ(actual.iterations, iterations);
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    ASSERT_EQ(bits(actual.residuals[i]), bits(residuals[i]))
        << "residual at iteration " << iterations[i];
  }
  EXPECT_EQ(bits(actual.eigenvalue), bits(oracle.eigenvalue));
  ASSERT_EQ(actual.eigenvector.size(), oracle.eigenvector.size());
  for (std::size_t i = 0; i < oracle.eigenvector.size(); ++i) {
    ASSERT_EQ(bits(actual.eigenvector[i]), bits(oracle.eigenvector[i])) << "entry " << i;
  }
}

Outcome record(PowerResult result, const Outcome& stream) {
  Outcome out = stream;
  out.eigenvalue = result.eigenvalue;
  out.eigenvector = std::move(result.eigenvector);
  return out;
}

struct LoopCase {
  const char* engine_name;
  const parallel::Engine* engine;
  bool shifted;
  unsigned check_every;
};

std::string case_name(const LoopCase& c) {
  return std::string(c.engine_name) + (c.shifted ? "_shifted" : "_unshifted") +
         "_every" + std::to_string(c.check_every);
}

void PrintTo(const LoopCase& c, std::ostream* os) { *os << case_name(c); }

class PowerLoopOracle : public ::testing::TestWithParam<LoopCase> {};

TEST_P(PowerLoopOracle, PairedSweepsReproduceTheSixSweepLoopBitForBit) {
  const LoopCase c = GetParam();
  const auto model = test_model();
  const auto landscape = test_landscape();
  const core::FmmpOperator op(model, landscape);

  PowerOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 400;
  options.stall_window = 0;
  options.residual_check_every = c.check_every;
  options.engine = c.engine;
  options.shift = c.shifted ? core::conservative_shift(model, landscape) : 0.0;
  ASSERT_EQ(options.shift != 0.0, c.shifted);

  // The facade's start: the landscape, normalised by landscape_start and
  // once more by power_iteration.
  std::vector<double> start = landscape_start(landscape);
  linalg::normalize1(start);
  const Outcome oracle = six_sweep_loop(op, start, options);
  ASSERT_LE(oracle.residuals.back(), options.tolerance);
  ASSERT_GT(oracle.iterations.back(), 12u);

  Outcome stream;
  options.on_residual = [&stream](unsigned it, double res) {
    stream.iterations.push_back(it);
    stream.residuals.push_back(res);
  };
  // Checkpoints every 4 iterations; the second one is resumed below.
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_every = 4;
  options.checkpoint_sink = [&checkpoints](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  const PowerResult full = power_iteration(op, landscape_start(landscape), options);
  ASSERT_TRUE(full.converged);
  expect_bitwise(oracle, record(full, stream));

  // The handed-over start runs the same loop.
  stream = {};
  expect_bitwise(oracle,
                 record(power_iteration_owned(op, landscape_start(landscape), options),
                        stream));

  // A resume partway through continues the oracle's trajectory exactly.
  ASSERT_GE(checkpoints.size(), 2u);
  const io::SolverCheckpoint mid = checkpoints[1];
  ASSERT_EQ(mid.iteration, 8u);
  stream = {};
  options.checkpoint_sink = {};
  options.checkpoint_every = 0;
  expect_bitwise(oracle, record(resume_power_iteration(op, mid, options), stream),
                 8);
}

std::vector<LoopCase> loop_cases() {
  std::vector<LoopCase> cases;
  const std::pair<const char*, const parallel::Engine*> engines[] = {
      {"none", nullptr},
      {"serial", &parallel::serial_engine()},
      {"tree", &distributed::tree_engine()}};
  for (const auto& [name, engine] : engines) {
    for (const bool shifted : {true, false}) {
      for (const unsigned every : {1u, 3u}) {
        cases.push_back({name, engine, shifted, every});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EnginesShiftsCadences, PowerLoopOracle,
                         ::testing::ValuesIn(loop_cases()),
                         [](const auto& info) { return case_name(info.param); });

/// Forwards to `inner`, counting the calls the power loop makes.
class CountingEngine final : public parallel::Engine {
 public:
  struct Counts {
    std::size_t dispatches = 0;
    std::size_t pairs = 0;
    std::size_t scalar_reductions = 0;
  };

  explicit CountingEngine(const parallel::Engine& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  unsigned concurrency() const override { return inner_.concurrency(); }
  void dispatch(std::size_t n, const parallel::RangeKernel& kernel) const override {
    ++counts_.dispatches;
    inner_.dispatch(n, kernel);
  }
  parallel::PairSum reduce_pair(std::size_t n,
                                const parallel::PairKernel& kernel) const override {
    ++counts_.pairs;
    return inner_.reduce_pair(n, kernel);
  }
  double reduce_sum(std::span<const double> v) const override {
    ++counts_.scalar_reductions;
    return inner_.reduce_sum(v);
  }
  double reduce_abs_sum(std::span<const double> v) const override {
    ++counts_.scalar_reductions;
    return inner_.reduce_abs_sum(v);
  }
  double reduce_sum_squares(std::span<const double> v) const override {
    ++counts_.scalar_reductions;
    return inner_.reduce_sum_squares(v);
  }
  double reduce_dot(std::span<const double> a,
                    std::span<const double> b) const override {
    ++counts_.scalar_reductions;
    return inner_.reduce_dot(a, b);
  }
  double reduce_partials(std::size_t n,
                         const parallel::PartialKernel& kernel) const override {
    ++counts_.scalar_reductions;
    return inner_.reduce_partials(n, kernel);
  }

  Counts counts() const { return counts_; }

 private:
  const parallel::Engine& inner_;
  mutable Counts counts_;
};

/// Engine calls between consecutive residual checks of a never-converging
/// run; the operator has no engine, so every call is the loop's own.
std::vector<CountingEngine::Counts> calls_between_checks(unsigned check_every) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const core::FmmpOperator op(model, landscape);
  const CountingEngine engine(parallel::serial_engine());
  PowerOptions options;
  options.tolerance = 0.0;
  options.stall_window = 0;
  options.max_iterations = 12;
  options.residual_check_every = check_every;
  options.shift = core::conservative_shift(model, landscape);
  options.engine = &engine;
  std::vector<CountingEngine::Counts> at_check;
  options.on_residual = [&](unsigned, double) { at_check.push_back(engine.counts()); };
  const PowerResult result = power_iteration(op, landscape_start(landscape), options);
  EXPECT_EQ(result.iterations, 12u);

  std::vector<CountingEngine::Counts> deltas;
  for (std::size_t i = 1; i < at_check.size(); ++i) {
    deltas.push_back({at_check[i].dispatches - at_check[i - 1].dispatches,
                      at_check[i].pairs - at_check[i - 1].pairs,
                      at_check[i].scalar_reductions - at_check[i - 1].scalar_reductions});
  }
  return deltas;
}

TEST(PowerLoopPasses, CheckedIterationMakesTwoPairedSumsAndOneDispatch) {
  const auto deltas = calls_between_checks(1);
  ASSERT_EQ(deltas.size(), 11u);
  for (const auto& d : deltas) {
    EXPECT_EQ(d.pairs, 2u);
    EXPECT_EQ(d.dispatches, 1u);
    EXPECT_EQ(d.scalar_reductions, 0u);
  }
}

TEST(PowerLoopPasses, UncheckedIterationMakesOnePairedSumAndOneDispatch) {
  // Between two checks three iterations apart: one checked iteration (2
  // pairs, 1 dispatch) and two unchecked ones (1 pair, 1 dispatch each).
  const auto deltas = calls_between_checks(3);
  ASSERT_EQ(deltas.size(), 3u);
  for (const auto& d : deltas) {
    EXPECT_EQ(d.pairs, 2u + 2u * 1u);
    EXPECT_EQ(d.dispatches, 1u + 2u * 1u);
    EXPECT_EQ(d.scalar_reductions, 0u);
  }
}

/// Allreduces per rank of a never-converging lockstep solve of `iterations`.
std::size_t allreduces_per_rank(unsigned iterations, unsigned check_every,
                                bool control) {
  constexpr unsigned kRanks = 2;
  distributed::DistributedPowerOptions options;
  options.tolerance = 0.0;
  options.stall_window = 0;
  options.max_iterations = iterations;
  options.residual_check_every = check_every;
  if (control) options.should_stop = [] { return false; };
  const auto result = distributed::distributed_power_iteration(
      test_model(), test_landscape(), kRanks, options);
  EXPECT_EQ(result.iterations, iterations);
  return result.traffic.allreduce_calls / kRanks;
}

TEST(PowerLoopPasses, CheckedIterationMakesTwoAllreducesOverTheExchange) {
  // Three more iterations, so the difference is three iterations' worth and
  // the start, sign and final collectives cancel out.
  EXPECT_EQ(allreduces_per_rank(9, 1, false) - allreduces_per_rank(6, 1, false),
            3u * 2u);
  // The control word (cancellation vote) adds one per check.
  EXPECT_EQ(allreduces_per_rank(9, 1, true) - allreduces_per_rank(6, 1, true),
            3u * 3u);
  // Unchecked iterations need only the 1-norm.
  EXPECT_EQ(allreduces_per_rank(9, 1000, false) - allreduces_per_rank(6, 1000, false),
            3u * 1u);
}

TEST(PowerLoopDeterminism, ReducePairRepeatsBitwiseOnOpenMP) {
  // The fixed block order makes a paired sum repeatable where OpenMP's
  // reduction clause leaves the order unspecified.  This runs here rather
  // than with the serial and threaded-test-engine cases in
  // parallel_engine_test.cpp, which is also the TSan suite: TSan cannot see
  // libgomp's barriers.
  const parallel::Engine* engine = &parallel::parallel_engine();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{engine->concurrency() - 1},
                              (std::size_t{1} << 16) + 5}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(0.37 * static_cast<double>(i));
    const auto kernel = [&v](std::size_t begin, std::size_t end) {
      parallel::PairSum acc{0.0, 0.0};
      for (std::size_t i = begin; i < end; ++i) {
        acc[0] += v[i];
        acc[1] += std::abs(v[i]);
      }
      return acc;
    };
    const parallel::PairSum first = engine->reduce_pair(n, kernel);
    EXPECT_NEAR(first[0], linalg::sum(v), 1e-9) << "n=" << n;
    EXPECT_NEAR(first[1], linalg::norm1(v), 1e-9) << "n=" << n;
    for (int rep = 0; rep < 5; ++rep) {
      const parallel::PairSum again = engine->reduce_pair(n, kernel);
      ASSERT_EQ(bits(again[0]), bits(first[0])) << "n=" << n << " rep " << rep;
      ASSERT_EQ(bits(again[1]), bits(first[1])) << "n=" << n << " rep " << rep;
    }
  }
}

TEST(PowerLoopDeterminism, TwoFacadeSolvesOnTheParallelEngineAreBitIdentical) {
  const unsigned nu = 14;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 3);
  const auto solve_once = [&](std::vector<double>& residuals) {
    SolveOptions options;
    options.engine = &parallel::parallel_engine();
    options.on_residual = [&residuals](unsigned, double res) {
      residuals.push_back(res);
    };
    return solve(model, landscape, options);
  };
  std::vector<double> first_residuals, second_residuals;
  const QuasispeciesResult first = solve_once(first_residuals);
  const QuasispeciesResult second = solve_once(second_residuals);
  ASSERT_TRUE(first.converged);

  ASSERT_EQ(first_residuals.size(), second_residuals.size());
  for (std::size_t i = 0; i < first_residuals.size(); ++i) {
    ASSERT_EQ(bits(first_residuals[i]), bits(second_residuals[i])) << "check " << i;
  }
  EXPECT_EQ(bits(first.eigenvalue), bits(second.eigenvalue));
  ASSERT_EQ(first.concentrations.size(), second.concentrations.size());
  for (std::size_t i = 0; i < first.concentrations.size(); ++i) {
    ASSERT_EQ(bits(first.concentrations[i]), bits(second.concentrations[i])) << i;
  }
  for (unsigned k = 0; k <= nu; ++k) {
    EXPECT_EQ(bits(first.class_concentrations[k]), bits(second.class_concentrations[k]));
  }
}

}  // namespace
}  // namespace qs::solvers
