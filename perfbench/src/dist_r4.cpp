// dist_r4: the solve_nu22 problem through distributed_power_iteration over
// four forked ranks (ExchangeKind::process), in cycles with the same solve on
// one rank; rank 0 writes a checkpoint every kCheckpointEvery iterations
// through a timing checkpoint_sink that calls io::save_checkpoint.
#include <filesystem>
#include <limits>
#include <optional>
#include <set>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/spectral.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/reduction.hpp"
#include "io/binary_io.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qs::core::Landscape;
using qs::core::MutationModel;

constexpr unsigned kNu = 22;
constexpr double kP = 0.01;
constexpr double kTolerance = 1e-13;
constexpr unsigned kCheckpointEvery = 8;

struct Solve {
  double eigenvalue = 0.0;
  unsigned iterations = 0;
  bool converged = false;
  unsigned checkpoint_failures = 0;
  double ms = 0.0;
  qs::distributed::TrafficStats traffic;
  std::vector<double> checkpoint_ms;
  unsigned residual_checks = 0;
};

struct Lane {
  Lane(const char* name_, const char* span_, unsigned ranks_)
      : name(name_), span(span_), ranks(ranks_) {}

  const char* name;
  const char* span;
  unsigned ranks;
  std::vector<Solve> untraced;
  std::vector<Solve> traced;
};

std::vector<double> times_ms(const std::vector<Solve>& solves) {
  std::vector<double> out;
  for (const Solve& s : solves) out.push_back(s.ms);
  return out;
}

}  // namespace

RunResult run_dist_r4(const RunConfig& config) {
  RunResult out;
  std::optional<Landscape> landscape;
  std::optional<MutationModel> model;
  double shift = 0.0;
  const double setup_s = median_setup_s(9, [&] {
    landscape.emplace(Landscape::random(kNu, 5.0, 1.0, config.seed));
    model.emplace(MutationModel::uniform(kNu, kP));
    shift = qs::core::conservative_shift(*model, *landscape);
  });
  const std::filesystem::path checkpoint = config.work_dir / "dist_r4.ckpt";
  double checkpoint_mib = 0.0;

  auto solve_once = [&](Lane& lane, bool traced) {
    Solve s;
    qs::distributed::DistributedPowerOptions options;
    options.tolerance = kTolerance;
    options.shift = shift;
    options.exchange = qs::distributed::ExchangeKind::process;
    options.checkpoint_every = kCheckpointEvery;
    options.checkpoint_sink = [&s, &checkpoint](const qs::io::SolverCheckpoint& state) {
      const std::uint64_t start = now_ns();
      {
        const ScopedSpan span("io.checkpoint");
        qs::io::save_checkpoint(checkpoint, state);
      }
      s.checkpoint_ms.push_back(ns_to_ms(now_ns() - start));
    };
    options.on_residual = [&s](unsigned, double) { ++s.residual_checks; };

    qs::distributed::DistributedPowerResult result;
    std::uint64_t start = 0;
    {
      const ScopedSpan span(lane.span, tracer().next_id());
      start = now_ns();
      result = qs::distributed::distributed_power_iteration(*model, *landscape, lane.ranks,
                                                           options);
    }
    s.ms = ns_to_ms(now_ns() - start);
    s.eigenvalue = result.eigenvalue;
    s.iterations = result.iterations;
    s.converged = result.converged;
    s.checkpoint_failures = result.checkpoint_failures;
    s.traffic = result.traffic;
    if (checkpoint_mib == 0.0 && std::filesystem::exists(checkpoint)) {
      checkpoint_mib = static_cast<double>(std::filesystem::file_size(checkpoint)) / (1 << 20);
    }
    (traced ? lane.traced : lane.untraced).push_back(std::move(s));
  };

  Lane lanes[2] = {{"4 ranks", "distributed.solve.r4", 4}, {"1 rank", "distributed.solve.r1", 1}};
  // Cycles of (4 ranks, 1 rank, 4 ranks), at least two and then as many
  // more as the last cycle's length says will fit in `seconds`: the 4-rank
  // lane is the faster and noisier one.
  auto run_pass = [&](bool traced, double seconds) {
    tracer().set_enabled(traced);
    const std::uint64_t start = now_ns();
    double cycle_s = 0.0;
    for (unsigned cycle = 0; cycle < 2 || elapsed_s(start) + cycle_s <= seconds; ++cycle) {
      const std::uint64_t cycle_start = now_ns();
      solve_once(lanes[0], traced);
      solve_once(lanes[1], traced);
      solve_once(lanes[0], traced);
      cycle_s = elapsed_s(cycle_start);
    }
    tracer().set_enabled(false);
  };
  run_pass(false, config.trace ? config.seconds / 2 : config.seconds);
  const double rss = peak_rss_mib(true);
  if (config.trace) run_pass(true, config.seconds / 2);
  std::filesystem::remove(checkpoint);

  // Oracle: the documented equivalence contract — every distributed solve is
  // bit-identical to the serial facade run with tree_engine() reductions
  // from a tree_landscape_start iterate (iteration-0 checkpoint).
  const qs::core::FmmpOperator op(*model, *landscape, qs::core::Formulation::right,
                                  &qs::parallel::serial_engine());
  qs::solvers::PowerOptions reference_options;
  reference_options.tolerance = kTolerance;
  reference_options.shift = shift;
  reference_options.engine = &qs::distributed::tree_engine();
  qs::io::SolverCheckpoint start;
  start.iteration = 0;
  start.solver_kind = qs::io::SolverKind::power;
  start.best_residual = std::numeric_limits<double>::infinity();
  start.window_start_best = std::numeric_limits<double>::infinity();
  start.eigenvector = qs::distributed::tree_landscape_start(*landscape);
  const qs::solvers::PowerResult reference =
      qs::solvers::resume_power_iteration(op, start, reference_options);

  for (const Lane& lane : lanes) {
    for (const auto* solves : {&lane.untraced, &lane.traced}) {
      for (const Solve& s : *solves) {
        ++out.oracle_checks;
        const bool ok = s.converged && s.checkpoint_failures == 0 &&
                        s.eigenvalue == reference.eigenvalue &&
                        s.iterations == reference.iterations;
        out.count(ok, fmt("%s solve: converged=%d checkpoint_failures=%u eigenvalue=%.17g "
                          "iterations=%u; reference %.17g in %u iterations",
                          lane.name, s.converged ? 1 : 0, s.checkpoint_failures,
                          s.eigenvalue, s.iterations, reference.eigenvalue,
                          reference.iterations));
      }
    }
  }

  const Lane& r4 = lanes[0];
  const Lane& r1 = lanes[1];
  out.detail_json = "{\"iterations\":" + std::to_string(reference.iterations) +
                    ",\"r4_ms\":" + json_list(times_ms(r4.untraced)) +
                    ",\"r1_ms\":" + json_list(times_ms(r1.untraced)) + "}";
  const double solve_ms = median(times_ms(r4.untraced));
  const double solve_r1_ms = median(times_ms(r1.untraced));
  const Solve& first = r4.untraced.front();
  out.line(fmt("solve_s            %.4f s   median of %zu solves, 4 ranks, process exchange",
               solve_ms * 1e-3, r4.untraced.size()));
  out.line(fmt("solve_r1_s         %.4f s   median of %zu solves, 1 rank", solve_r1_ms * 1e-3,
               r1.untraced.size()));
  out.line(fmt("traffic            %zu messages, %.1f MiB, %zu allreduces per 4-rank solve",
               first.traffic.messages,
               static_cast<double>(first.traffic.bytes_moved()) / (1 << 20),
               first.traffic.allreduce_calls));
  out.line(fmt("checkpoints        %zu per solve (every %u iterations), %.1f MiB each",
               first.checkpoint_ms.size(), kCheckpointEvery, checkpoint_mib));
  out.line(fmt("iterations         %u (reference %u)", first.iterations, reference.iterations));
  out.line(fmt("peak_rss_mib       %.1f MiB (this process + largest forked rank)", rss));
  out.line(fmt("setup_s            %.4f s   landscape generation, model, shift; median of 9",
               setup_s));

  if (!config.trace) {
    set(out.end_to_end, "setup_s", setup_s);
    set(out.end_to_end, "p50_ms", solve_ms);
    set(out.end_to_end, "base_p50_ms", solve_r1_ms);
    return out;
  }

  Metrics& m = out.per_layer;
  const Solve& t = r4.traced.front();
  std::vector<double> exchange_ms;
  std::vector<double> compute_ms;
  std::vector<double> overlap;
  std::vector<double> write_ms;
  for (const Solve& s : r4.traced) {
    const double iterations = s.iterations;
    const double exchange_total = ns_to_ms(s.traffic.exchange_ns) / r4.ranks;
    double io_total = 0.0;
    for (const double w : s.checkpoint_ms) io_total += w;
    exchange_ms.push_back(exchange_total / iterations);
    compute_ms.push_back((s.ms - exchange_total - io_total) / iterations);
    overlap.push_back(s.traffic.overlap_ratio());
    write_ms.insert(write_ms.end(), s.checkpoint_ms.begin(), s.checkpoint_ms.end());
  }
  set(m, "solvers.iterations", t.iterations);
  set(m, "solvers.residual_checks", t.residual_checks);
  set(m, "distributed.messages", static_cast<double>(t.traffic.messages));
  set(m, "distributed.mib_moved", static_cast<double>(t.traffic.bytes_moved()) / (1 << 20));
  set(m, "distributed.allreduces", static_cast<double>(t.traffic.allreduce_calls));
  set(m, "distributed.exchange_ms", median(exchange_ms));
  set(m, "distributed.compute_ms", median(compute_ms));
  set(m, "distributed.overlap_ratio", median(overlap));
  set(m, "io.checkpoint_count", static_cast<double>(t.checkpoint_ms.size()));
  set(m, "io.checkpoint_ms", median(write_ms));
  set(m, "io.checkpoint_mib", checkpoint_mib);
  set(m, "obs.trace_overhead", median(times_ms(r4.traced)) / solve_ms - 1.0);
  return out;
}

}  // namespace perfbench
