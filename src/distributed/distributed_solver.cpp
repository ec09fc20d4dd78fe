#include "distributed/distributed_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "distributed/reduction.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/span_wire.hpp"
#include "obs/trace.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "support/timer.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::distributed {
namespace {

// Collective tags.  The butterfly exchanges use the level index (0..nu-1)
// so a rank one level ahead of its partner fails with a named tag mismatch;
// the reduction/gather tags live above any level index.
constexpr unsigned kTagStartNorm = 100;
constexpr unsigned kTagRayleigh = 101;       ///< {x·x, x·y}.
constexpr unsigned kTagResidualNorm1 = 102;  ///< {Σ(y−λx)², Σ|y−μx|}.
constexpr unsigned kTagControl = 104;
constexpr unsigned kTagSign = 106;
constexpr unsigned kTagFinalNorm = 107;
constexpr unsigned kTagGather = 108;
constexpr unsigned kTagStats = 109;
constexpr unsigned kTagSpanLens = 110;  ///< Packed span-buffer lengths.
constexpr unsigned kTagSpanShip = 111;  ///< Span buffers gathered to root.

/// Bit 32 of the per-check control word carries rank 0's wall-clock
/// checkpoint cadence; bits below sum the ranks' cancellation votes.
constexpr double kControlTimeBit = 4294967296.0;  // 2^32

const char* kind_name(core::MutationKind kind) {
  switch (kind) {
    case core::MutationKind::uniform: return "uniform";
    case core::MutationKind::per_site: return "per_site";
    case core::MutationKind::grouped: return "grouped";
  }
  return "unknown";
}

/// Cross-rank butterfly combine on one segment: `mine` and `theirs` hold the
/// same offsets of the two pair blocks; the lower rank's block is the "lo"
/// operand.  Runs the plan's sv microkernel when one resolved (the kernel
/// writes both halves — the scratch half is discarded), else the plain
/// non-FMA expression; both are bit-identical to the serial butterfly.
void combine_cross_segment(double* mine, double* theirs, bool is_low,
                           std::size_t count, transforms::Factor2 f,
                           const transforms::SvKernels* sv) {
  double* lo = is_low ? mine : theirs;
  double* hi = is_low ? theirs : mine;
  if (sv != nullptr) {
    sv->butterfly_span(lo, hi, count, f);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const double t1 = lo[i];
    const double t2 = hi[i];
    lo[i] = f.m00 * t1 + f.m01 * t2;
    hi[i] = f.m10 * t1 + f.m11 * t2;
  }
}

/// The sites of a model the distributed kernels can run.
std::span<const transforms::Factor2> checked_sites(const core::MutationModel& model) {
  if (model.kind() == core::MutationKind::grouped) {
    throw UnsupportedModelError(model.kind());
  }
  return model.site_factors();
}

/// The power loop's global operations over the Exchange: each paired
/// quantity is a per-block tree partial combined by one 2-element
/// tree-ordered allreduce under its own tag, which equals the serial
/// tree_engine() reduction bit for bit.
class ExchangeReducer final : public solvers::PowerReducer {
 public:
  ExchangeReducer(Exchange& exchange, bool gather)
      : exchange_(exchange), gather_(gather) {}

  bool root() const override { return exchange_.rank() == 0; }
  parallel::PairSum rayleigh(std::span<const double> x,
                             std::span<const double> y) override {
    return allreduce(tree_reduce_pair(std::size_t{0}, x.size(),
                                      solvers::RayleighTerm{x.data(), y.data()}),
                     kTagRayleigh);
  }
  parallel::PairSum residual_norm1(std::span<const double> x,
                                   std::span<const double> y, double lambda,
                                   double mu, bool check) override {
    const parallel::PairSum partial = solvers::sum_residual_norm1(
        x, y, lambda, mu, check, [&x](const auto& term) {
          return tree_reduce_pair(std::size_t{0}, x.size(), term);
        });
    return allreduce(partial, kTagResidualNorm1);
  }
  double sign_sum(std::span<const double> x) override {
    return exchange_.allreduce_sum(tree_sum(x), kTagSign);
  }
  Control agree(Control mine) override {
    double word = mine.stop ? 1.0 : 0.0;
    if (root() && mine.time_due) word += kControlTimeBit;
    const double agreed = exchange_.allreduce_sum(word, kTagControl);
    return {std::fmod(agreed, kControlTimeBit) != 0.0, agreed >= kControlTimeBit};
  }
  std::span<const double> full_iterate(std::span<const double> x) override {
    if (root()) full_.resize(x.size() * exchange_.rank_count());
    exchange_.gather_to_root(x, full_, kTagGather);
    return full_;
  }
  void final_vector(std::vector<double>& x, bool normalise) override {
    if (!gather_) {
      // Capacity mode: no rank materialises the full vector; blocks are
      // normalised by the tree-ordered global 1-norm instead.
      if (normalise) {
        linalg::scale(x, 1.0 / exchange_.allreduce_sum(tree_abs_sum(x),
                                                        kTagFinalNorm));
      }
      return;
    }
    full_iterate(x);
    x = std::move(full_);  // empty off the root
    // The serial left-to-right 1-norm on the gathered vector, so rank 0's
    // result is bit-identical to the facade's.
    if (normalise && root()) linalg::normalize1(x);
  }

 private:
  parallel::PairSum allreduce(parallel::PairSum partial, unsigned tag) {
    exchange_.allreduce_sum(std::span<double>(partial), tag);
    return partial;
  }

  Exchange& exchange_;
  bool gather_;
  std::vector<double> full_;  ///< Rank 0's gather target.
};

/// Ships every rank's span buffer to rank 0 and merges them into its
/// snapshot, so one Chrome trace shows per-rank tracks with the request's
/// trace id.  Runs only over a transport whose ranks live in separate
/// address spaces (forked processes): in-process lockstep ranks already
/// share the span registry.  All ranks must call this together — it is a
/// collective rendezvous (one allreduce + one gather), and the decision to
/// run is replicated (compile gate, enabled flag, and transport kind are
/// identical on every rank).
void ship_spans_to_root(Exchange& exchange, std::uint64_t rank_start_ns) {
  if (!obs::compiled_in() || !obs::enabled()) return;
  if (exchange.shared_address_space()) return;
  const unsigned rank = exchange.rank();
  const unsigned ranks = exchange.rank_count();
  const bool root = rank == 0;

  std::vector<double> packed;
  if (!root) {
    // fork() duplicated rank 0's span rings into this child, so the
    // snapshot holds the parent's pre-fork spans too; ship only what this
    // rank recorded itself (started at or after its own entry), capped to
    // the most recent records to bound the gather.
    std::vector<obs::SpanRecord> spans = obs::snapshot_spans();
    std::erase_if(spans, [rank_start_ns](const obs::SpanRecord& s) {
      return s.start_ns < rank_start_ns;
    });
    constexpr std::size_t kMaxShippedSpans = 16384;
    if (spans.size() > kMaxShippedSpans) {
      spans.erase(spans.begin(),
                  spans.end() - static_cast<std::ptrdiff_t>(kMaxShippedSpans));
    }
    packed = obs::pack_spans(spans);
  }

  // The binomial gather needs equal block sizes: agree on the longest
  // packed buffer, pad everyone up to it, and slice exact lengths on root.
  std::vector<double> lens(ranks, 0.0);
  lens[rank] = static_cast<double>(packed.size());
  exchange.allreduce_sum(std::span<double>(lens), kTagSpanLens);
  std::size_t max_len = 0;
  for (double l : lens) max_len = std::max(max_len, static_cast<std::size_t>(l));
  if (max_len == 0) return;  // span-less run everywhere: skip the gather
  packed.resize(max_len, 0.0);

  std::vector<double> full;
  if (root) full.resize(max_len * ranks);
  exchange.gather_to_root(
      packed, root ? std::span<double>(full) : std::span<double>{}, kTagSpanShip);
  if (!root) return;

  std::vector<obs::SpanRecord> remote;
  for (unsigned r = 1; r < ranks; ++r) {
    remote.clear();
    const std::span<const double> slice(full.data() + r * max_len,
                                        static_cast<std::size_t>(lens[r]));
    if (obs::unpack_spans(slice, remote)) {
      obs::import_spans(remote, obs::kRankTidBase + r * obs::kRankTidStride);
    }
    // A malformed buffer (a rank died mid-pack) is dropped, not fatal:
    // telemetry must never fail a solve that already finished.
  }
}

}  // namespace

UnsupportedModelError::UnsupportedModelError(core::MutationKind kind)
    : precondition_error(
          std::string("distributed solver: unsupported mutation model kind '") +
          kind_name(kind) +
          "' (the distributed kernels require 2x2 site factors; run the "
          "serial solver for grouped models)"),
      kind_(kind) {}

const char* to_string(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::lockstep: return "lockstep";
    case ExchangeKind::process: return "process";
  }
  return "unknown";
}

RankFmmpOperator::RankFmmpOperator(Exchange& exchange, const BlockLayout& layout,
                                   const core::MutationModel& model,
                                   std::span<const double> fitness_block,
                                   const transforms::BlockedPlan& plan)
    : RankFmmpOperator(exchange, layout, checked_sites(model), fitness_block,
                       plan) {}

RankFmmpOperator::RankFmmpOperator(Exchange& exchange, const BlockLayout& layout,
                                   std::span<const transforms::Factor2> sites,
                                   std::span<const double> fitness_block,
                                   const transforms::BlockedPlan& plan)
    : exchange_(exchange),
      layout_(layout),
      sites_(sites),
      fitness_block_(fitness_block),
      plan_(plan),
      sv_(transforms::resolve_sv_kernels(plan.sv_kernel)),
      recv_(layout.block_size()) {
  require(exchange.rank_count() == layout.rank_count(),
          "RankFmmpOperator: exchange/layout rank count mismatch");
  require(sites.size() == layout.nu(),
          "RankFmmpOperator: factor count does not match nu");
  require(fitness_block.size() == layout.block_size(),
          "RankFmmpOperator: fitness block has the wrong size");
}

void RankFmmpOperator::apply(std::span<const double> x, std::span<double> y) const {
  const unsigned rank = exchange_.rank();
  const unsigned local_levels = log2_exact(layout_.block_size());
  {
    // Bottom nu-k levels: the same cache-blocked banded kernel (and sv
    // microkernel tier) the serial blocked solver runs, on this rank's
    // block only.  Rank-local compute is serial by design — the
    // parallelism of a distributed solve is across ranks.
    QS_TRACE_SPAN_ARG("dist.local_band", distributed, rank);
    transforms::apply_blocked_butterfly_fused(x, y, sites_.first(local_levels),
                                              fitness_block_, {},
                                              parallel::serial_engine(), plan_);
  }
  for (unsigned k = local_levels; k < layout_.nu(); ++k) {
    const std::size_t stride = std::size_t{1} << k;
    const unsigned partner = layout_.partner(rank, stride);
    const bool is_low = rank < partner;
    const transforms::Factor2 f = sites_[k];
    const transforms::SvKernels* sv = sv_;
    QS_TRACE_SPAN_ARG("dist.exchange", distributed, k);
    QS_TRACE_COUNTER("dist.exchange_messages", 1);
    double* mine = y.data();
    double* theirs = recv_.data();
    const std::uint64_t exchange_start = monotonic_ns();
    exchange_.sendrecv_overlapped(
        partner, y, recv_, k,
        [mine, theirs, is_low, f, sv](std::size_t begin, std::size_t end) {
          combine_cross_segment(mine + begin, theirs + begin, is_low,
                                end - begin, f, sv);
        });
    static obs::Histogram& exchange_hist = obs::histogram("dist.exchange");
    exchange_hist.record_ns(monotonic_ns() - exchange_start);
  }
}

std::vector<double> tree_landscape_start(const core::Landscape& landscape) {
  std::vector<double> s(landscape.values().begin(), landscape.values().end());
  const double norm = tree_abs_sum(s);
  require(norm > 0.0, "tree_landscape_start: landscape has zero 1-norm");
  linalg::scale(s, 1.0 / norm);
  return s;
}

DistributedPowerResult distributed_power_rank(
    Exchange& exchange, const BlockLayout& layout,
    std::span<const transforms::Factor2> sites,
    std::span<const double> fitness_block, const DistributedPowerOptions& options,
    const io::SolverCheckpoint* resume) {
  const unsigned rank = exchange.rank();
  const std::size_t block = layout.block_size();
  // Span-shipping cutoff: a forked rank only ships spans that started at or
  // after its own entry (everything earlier is the parent's, already in
  // rank 0's rings).  Taken before any work so no own span is lost.
  const std::uint64_t rank_start_ns = monotonic_ns();
  const RankFmmpOperator op(exchange, layout, sites, fitness_block, options.plan);

  // The serial loop's options; the engine and workspace do not apply to a
  // rank (its compute is serial and its buffers are its own).  Non-root
  // ranks keep every hook: their drivers do not report.
  solvers::PowerOptions loop_options;
  static_cast<solvers::IterationOptions&>(loop_options) = options;
  loop_options.shift = options.shift;
  loop_options.engine = nullptr;
  loop_options.workspace = nullptr;

  std::vector<double> x(block);
  if (resume != nullptr) {
    // The iterate slice verbatim; the loop checks the whole checkpoint.
    require(resume->eigenvector.size() == block * layout.rank_count(),
            "distributed_power_rank: checkpoint dimension mismatch");
    const double* src = resume->eigenvector.data() + layout.block_begin(rank);
    std::copy(src, src + block, x.begin());
  } else {
    // Cold start: the landscape block scaled by the reciprocal of the
    // global tree-ordered 1-norm — bit-identical to tree_landscape_start.
    const double norm =
        exchange.allreduce_sum(tree_abs_sum(fitness_block), kTagStartNorm);
    require(norm > 0.0, "distributed_power_iteration: landscape has zero 1-norm");
    const double inv = 1.0 / norm;
    for (std::size_t t = 0; t < block; ++t) x[t] = fitness_block[t] * inv;
  }

  ExchangeReducer reducer(exchange, options.gather_eigenvector);
  solvers::PowerResult solved = solvers::run_power_iteration(
      op, std::move(x), resume, loop_options, reducer);

  DistributedPowerResult out;
  static_cast<solvers::IterationResult&>(out) = solved;
  out.eigenvector = std::move(solved.eigenvector);
  out.rank_count = layout.rank_count();
  out.plan_kernel = transforms::resolved_sv_kernel_name(options.plan.sv_kernel);
  out.local_levels = log2_exact(block);

  // Aggregate traffic over all ranks.  The snapshot is taken before the
  // aggregation allreduce so the aggregation itself is not counted.
  const TrafficStats mine = exchange.stats();
  double agg[5] = {static_cast<double>(mine.messages),
                   static_cast<double>(mine.doubles_moved),
                   static_cast<double>(mine.allreduce_calls),
                   static_cast<double>(mine.exchange_ns),
                   static_cast<double>(mine.overlap_ns)};
  exchange.allreduce_sum(std::span<double>(agg), kTagStats);
  out.traffic.messages = static_cast<std::size_t>(agg[0]);
  out.traffic.doubles_moved = static_cast<std::size_t>(agg[1]);
  out.traffic.allreduce_calls = static_cast<std::size_t>(agg[2]);
  out.traffic.exchange_ns = static_cast<std::uint64_t>(agg[3]);
  out.traffic.overlap_ns = static_cast<std::uint64_t>(agg[4]);

  // Final collective: merge every rank's span buffer into rank 0's
  // timeline (no-op in span-less builds, with tracing disabled, or when
  // the ranks share this address space).
  ship_spans_to_root(exchange, rank_start_ns);
  return out;
}

namespace {

DistributedPowerResult run_distributed(const core::MutationModel& model,
                                       unsigned rank_count,
                                       const DistributedPowerOptions& options,
                                       const FitnessBlockFn& fitness,
                                       const io::SolverCheckpoint* resume) {
  const auto sites = checked_sites(model);
  const BlockLayout layout(model.nu(), rank_count);

  DistributedPowerResult root_result;
  auto body = [&](Exchange& exchange) {
    const std::vector<double> block = fitness(layout, exchange.rank());
    DistributedPowerResult res =
        distributed_power_rank(exchange, layout, sites, block, options, resume);
    if (exchange.rank() == 0) root_result = std::move(res);
  };
  if (options.exchange == ExchangeKind::process) {
    run_multiprocess(rank_count, body, options.exchange_timeout_ms);
  } else {
    LockstepGroup group(rank_count);
    group.run(body);
  }

  // Provenance: which transport and which rank-local kernel tier ran.
  auto& recorder = obs::metrics();
  recorder.set_info("dist.exchange", to_string(options.exchange));
  recorder.set_info("dist.sv_kernel", root_result.plan_kernel);
  recorder.set_value("dist.ranks", static_cast<double>(rank_count));
  recorder.set_value("dist.block_doubles",
                     static_cast<double>(layout.block_size()));
  recorder.set_value("dist.local_levels",
                     static_cast<double>(root_result.local_levels));
  recorder.set_value("dist.messages",
                     static_cast<double>(root_result.traffic.messages));
  recorder.set_value("dist.bytes_moved",
                     static_cast<double>(root_result.traffic.bytes_moved()));
  recorder.set_value("dist.overlap_ratio", root_result.traffic.overlap_ratio());
  return root_result;
}

/// Each rank's block of a full landscape.
FitnessBlockFn landscape_blocks(const core::Landscape& landscape) {
  return [values = landscape.values()](const BlockLayout& layout, unsigned rank) {
    const auto block = values.subspan(layout.block_begin(rank), layout.block_size());
    return std::vector<double>(block.begin(), block.end());
  };
}

}  // namespace

DistributedPowerResult distributed_power_iteration(
    const core::MutationModel& model, const core::Landscape& landscape,
    unsigned rank_count, const DistributedPowerOptions& options) {
  require(landscape.dimension() == model.dimension(),
          "distributed_power_iteration: dimension mismatch");
  return run_distributed(model, rank_count, options, landscape_blocks(landscape),
                         nullptr);
}

DistributedPowerResult distributed_power_iteration_blocks(
    const core::MutationModel& model, unsigned rank_count,
    const FitnessBlockFn& fitness, const DistributedPowerOptions& options) {
  require(static_cast<bool>(fitness),
          "distributed_power_iteration_blocks: fitness source must be set");
  return run_distributed(model, rank_count, options, fitness, nullptr);
}

DistributedPowerResult resume_distributed_power_iteration(
    const core::MutationModel& model, const core::Landscape& landscape,
    unsigned rank_count, const io::SolverCheckpoint& checkpoint,
    const DistributedPowerOptions& options) {
  require(landscape.dimension() == model.dimension(),
          "resume_distributed_power_iteration: dimension mismatch");
  require(checkpoint.eigenvector.size() == model.dimension(),
          "resume_distributed_power_iteration: checkpoint dimension does not "
          "match the model");
  return run_distributed(model, rank_count, options, landscape_blocks(landscape),
                         &checkpoint);
}

}  // namespace qs::distributed
