// solve_nu22: back-to-back facade solves of the paper's Fig. 3 problem
// (Eq. 13 random landscape, nu = 22, p = 0.01, tolerance 1e-13) in cycles of
// (parallel engine with nproc threads, serial engine, parallel engine).
#include <cmath>
#include <optional>
#include <set>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "layers.hpp"
#include "parallel/engine.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "workloads.hpp"

namespace perfbench {

double banded_matvec_bytes(unsigned nu) {
  const double n = std::ldexp(1.0, static_cast<int>(nu));
  const double bands =
      static_cast<double>(qs::transforms::blocked_band_boundaries(nu, {}).size() - 1);
  return (2.0 * bands + 1.0) * n * sizeof(double);
}

namespace {

using qs::core::Landscape;
using qs::core::MutationModel;

constexpr unsigned kNu = 22;
constexpr double kP = 0.01;
constexpr double kTolerance = 1e-13;
constexpr double kAgree = 1e-12;  ///< Relative eigenvalue agreement.

double relative(double a, double b) { return std::abs(a - b) / std::abs(b); }

/// The residual of a returned eigenpair recomputed with the paper's
/// Algorithm 2 (one engine launch per butterfly level) — a mat-vec path
/// separate from the banded kernel the solver used.
class ResidualOracle {
 public:
  ResidualOracle(const MutationModel& model, const Landscape& landscape)
      : op_(model, landscape, qs::core::Formulation::right,
            &qs::parallel::parallel_engine(), qs::transforms::LevelOrder::ascending,
            qs::core::EngineKernel::per_level),
        y_(static_cast<std::size_t>(op_.dimension())) {}

  double residual(const std::vector<double>& x, double lambda) {
    op_.apply(x, y_);
    double rr = 0.0;
    double xx = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double r = y_[i] - lambda * x[i];
      rr += r * r;
      xx += x[i] * x[i];
    }
    return std::sqrt(rr) / (std::abs(lambda) * std::sqrt(xx));
  }

 private:
  qs::core::FmmpOperator op_;
  std::vector<double> y_;
};

struct Lane {
  Lane(const char* name_, const char* span_, const qs::parallel::Engine* engine_)
      : name(name_), span(span_), engine(engine_) {}

  const char* name;
  const char* span;
  const qs::parallel::Engine* engine;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  bool have_first = false;
  double first_eigenvalue = 0.0;
  unsigned first_iterations = 0;
  // Traced solves only.
  std::vector<LayerTally> tallies;
  std::vector<double> operator_setup_ms;
  std::vector<unsigned> iterations;
  std::vector<unsigned> residual_checks;
  std::set<std::uint64_t> traces;
};

class SolveLoop {
 public:
  SolveLoop(const MutationModel& model, const Landscape& landscape, RunResult& out)
      : model_(model), landscape_(landscape), oracle_(model, landscape), out_(out) {}

  /// Runs cycles of (parallel, serial, parallel) solves, at least two and
  /// then as many more as the last cycle's length says will fit in
  /// `seconds`: the parallel lane is the faster and noisier one, so it gets
  /// twice the samples.
  void run(Lane& parallel, Lane& serial, bool traced, double seconds) {
    tracer().set_enabled(traced);
    const std::uint64_t start = now_ns();
    double cycle_s = 0.0;
    for (unsigned cycle = 0; cycle < 2 || elapsed_s(start) + cycle_s <= seconds; ++cycle) {
      const std::uint64_t cycle_start = now_ns();
      solve_once(parallel, traced);
      solve_once(serial, traced);
      solve_once(parallel, traced);
      cycle_s = elapsed_s(cycle_start);
    }
    tracer().set_enabled(false);
  }

 private:
  void solve_once(Lane& lane, bool traced) {
    qs::solvers::SolveOptions options;
    options.tolerance = kTolerance;
    options.engine = lane.engine;
    LayerTally tally;
    std::optional<TimingEngine> timing_engine;
    std::uint64_t start = 0;
    std::uint64_t wrapped = 0;
    unsigned checks = 0;
    if (traced) {
      timing_engine.emplace(*lane.engine, tally);
      options.engine = &*timing_engine;
      options.wrap_operator = [&](std::unique_ptr<qs::core::LinearOperator> op) {
        wrapped = now_ns();
        record_span("core.operator_setup", current_span_id(), current_trace_id(), start,
                    wrapped);
        return std::unique_ptr<qs::core::LinearOperator>(
            std::make_unique<TimingOperator>(std::move(op), tally));
      };
      options.on_residual = [&checks](unsigned, double) { ++checks; };
    }

    const std::uint64_t trace_id = ++solves_;
    qs::solvers::QuasispeciesResult result;
    {
      const ScopedSpan span(lane.span, trace_id);
      start = now_ns();
      result = qs::solvers::solve(model_, landscape_, options);
    }
    const double ms = ns_to_ms(now_ns() - start);

    if (traced) {
      lane.traced_ms.push_back(ms);
      lane.tallies.push_back(std::move(tally));
      lane.operator_setup_ms.push_back(ns_to_ms(wrapped - start));
      lane.iterations.push_back(result.iterations);
      lane.residual_checks.push_back(checks);
      lane.traces.insert(trace_id);
    } else {
      lane.untraced_ms.push_back(ms);
    }

    // Oracle, outside the timed region.
    bool ok = result.converged && result.failure == qs::solvers::SolverFailure::none;
    const double residual = oracle_.residual(result.concentrations, result.eigenvalue);
    ++out_.oracle_checks;
    ok = ok && residual <= 2.0 * kTolerance;
    if (!lane.have_first) {
      lane.have_first = true;
      lane.first_eigenvalue = result.eigenvalue;
      lane.first_iterations = result.iterations;
    } else {
      ++out_.oracle_checks;
      ok = ok && relative(result.eigenvalue, lane.first_eigenvalue) <= kAgree &&
           result.iterations == lane.first_iterations;
    }
    out_.count(ok, fmt("%s solve: converged=%d iterations=%u eigenvalue=%.17g "
                       "oracle residual=%.3g",
                       lane.name, result.converged ? 1 : 0, result.iterations,
                       result.eigenvalue, residual));
  }

  const MutationModel& model_;
  const Landscape& landscape_;
  ResidualOracle oracle_;
  RunResult& out_;
  std::uint64_t solves_ = 0;
};

std::vector<double> iteration_ms(const std::vector<LayerTally>& tallies) {
  std::vector<double> out;
  for (const LayerTally& t : tallies) {
    for (std::size_t i = 1; i < t.apply_start_ns.size(); ++i) {
      out.push_back(ns_to_ms(t.apply_start_ns[i] - t.apply_start_ns[i - 1]));
    }
  }
  return out;
}

std::vector<double> all_apply_ms(const std::vector<LayerTally>& tallies) {
  std::vector<double> out;
  for (const LayerTally& t : tallies) out.insert(out.end(), t.apply_ms.begin(), t.apply_ms.end());
  return out;
}

}  // namespace

RunResult run_solve_nu22(const RunConfig& config) {
  RunResult out;
  const qs::parallel::Engine& parallel = qs::parallel::parallel_engine();
  std::optional<Landscape> landscape;
  std::optional<MutationModel> model;
  const double setup_s = median_setup_s(9, [&] {
    landscape.emplace(Landscape::random(kNu, 5.0, 1.0, config.seed));
    model.emplace(MutationModel::uniform(kNu, kP));
    // Engine start: the first dispatch brings the lanes up.
    parallel.dispatch(parallel.concurrency(), [](std::size_t, std::size_t) {});
  });

  Lane par("parallel", "solvers.solve.parallel", &parallel);
  Lane ser("serial", "solvers.solve.serial", &qs::parallel::serial_engine());
  SolveLoop loop(*model, *landscape, out);
  loop.run(par, ser, false, config.trace ? config.seconds / 2 : config.seconds);
  const double rss = peak_rss_mib(false);
  if (config.trace) loop.run(par, ser, true, config.seconds / 2);

  ++out.oracle_checks;
  out.count(relative(par.first_eigenvalue, ser.first_eigenvalue) <= kAgree,
            fmt("parallel/serial eigenvalues disagree: %.17g vs %.17g",
                par.first_eigenvalue, ser.first_eigenvalue));

  out.detail_json = "{\"iterations\":" + std::to_string(par.first_iterations) +
                    ",\"parallel_ms\":" + json_list(par.untraced_ms) +
                    ",\"serial_ms\":" + json_list(ser.untraced_ms) + "}";
  const double solve_ms = median(par.untraced_ms);
  const double solve_1t_ms = median(ser.untraced_ms);
  const unsigned threads = parallel.concurrency();
  out.line(fmt("solve_s            %.4f s   median of %zu solves, parallel engine (%s, %u threads)",
               solve_ms * 1e-3, par.untraced_ms.size(), std::string(parallel.name()).c_str(),
               threads));
  out.line(fmt("solve_1t_s         %.4f s   median of %zu solves, serial engine",
               solve_1t_ms * 1e-3, ser.untraced_ms.size()));
  out.line(fmt("iterations         %u", par.first_iterations));
  out.line(fmt("peak_rss_mib       %.1f MiB (includes the oracle's one extra vector)", rss));
  out.line(fmt("setup_s            %.4f s   landscape generation, model, engine start; median of 9",
               setup_s));

  if (!config.trace) {
    set(out.end_to_end, "setup_s", setup_s);
    set(out.end_to_end, "p50_ms", solve_ms);
    set(out.end_to_end, "base_p50_ms", solve_1t_ms);
    return out;
  }

  Metrics& m = out.per_layer;
  const double matvec_ms = median(all_apply_ms(par.tallies));
  const double bytes = banded_matvec_bytes(kNu);
  const double iterations = par.iterations.front();
  set(m, "core.matvec_count", static_cast<double>(par.tallies.front().apply_ms.size()));
  set(m, "core.matvec_ms", matvec_ms);
  set(m, "core.matvec_1t_ms", median(all_apply_ms(ser.tallies)));
  set(m, "core.matvec_mib", bytes / (1 << 20));
  set(m, "core.matvec_gbps", bytes / (matvec_ms * 1e-3) * 1e-9);
  set(m, "core.operator_setup_ms", median(par.operator_setup_ms));
  set(m, "solvers.iterations", iterations);
  set(m, "solvers.residual_checks", par.residual_checks.front());

  const auto self = tracer().self_times(
      [&par](const Span& s) { return par.traces.count(s.trace) != 0; });
  const double solves = static_cast<double>(par.tallies.size());
  auto self_ms_per_iter = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : ns_to_ms(it->second) / solves / iterations;
  };
  set(m, "solvers.epilogue_ms", self_ms_per_iter("solvers.epilogue"));
  set(m, "solvers.driver_ms", self_ms_per_iter("solvers.solve.parallel"));
  set(m, "solvers.iter_over_matvec", median(iteration_ms(par.tallies)) / matvec_ms);

  const LayerTally& first = par.tallies.front();
  std::vector<double> engine_ms_per_iter;
  for (const LayerTally& t : par.tallies) {
    engine_ms_per_iter.push_back(ns_to_ms(t.engine_ns) / iterations);
  }
  set(m, "parallel.threads", threads);
  set(m, "parallel.dispatches_per_iter",
      static_cast<double>(first.kernel_dispatches + first.epilogue_dispatches) / iterations);
  set(m, "parallel.reduces_per_iter",
      static_cast<double>(first.kernel_reduces + first.epilogue_reduces) / iterations);
  set(m, "parallel.dispatch_ms", median(engine_ms_per_iter));
  set(m, "parallel.efficiency", solve_1t_ms / (threads * solve_ms));
  set(m, "obs.trace_overhead", median(par.traced_ms) / solve_ms - 1.0);
  return out;
}

}  // namespace perfbench
