#include "solvers/kronecker_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "support/bits.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {

KroneckerResult::KroneckerResult(double eigenvalue,
                                 std::vector<std::vector<double>> factors,
                                 std::vector<unsigned> factor_bits)
    : eigenvalue_(eigenvalue),
      factors_(std::move(factors)),
      factor_bits_(std::move(factor_bits)) {
  require(factors_.size() == factor_bits_.size(),
          "KroneckerResult: factor/bit-width count mismatch");
  for (unsigned b : factor_bits_) total_bits_ += b;
}

double KroneckerResult::concentration(seq_t i) const {
  // For nu >= 64 a 64-bit index addresses the low positions and implies
  // zeros (the master motif) in all higher ones — the natural query
  // semantics for chain lengths beyond integer indexing.
  if (total_bits_ < 64) {
    require(i < (seq_t{1} << total_bits_),
            "concentration: sequence index out of range");
  }
  double prod = 1.0;
  unsigned lo = 0;
  for (std::size_t m = 0; m < factors_.size(); ++m) {
    const seq_t mask = (seq_t{1} << factor_bits_[m]) - 1;
    const seq_t chunk = (lo < 64) ? ((i >> lo) & mask) : 0;
    prod *= factors_[m][static_cast<std::size_t>(chunk)];
    lo += factor_bits_[m];
  }
  return prod;
}

std::vector<double> KroneckerResult::expand() const {
  require(total_bits_ <= 30, "expand: nu too large to materialise");
  const seq_t n = sequence_count(total_bits_);
  std::vector<double> x(n);
  for (seq_t i = 0; i < n; ++i) x[i] = concentration(i);
  return x;
}

std::vector<double> KroneckerResult::class_concentrations() const {
  // Per-factor class sums S_m(k) = sum_{j in Gamma_k of factor m} x^(m)_j,
  // then the full-problem class totals are their convolution over the
  // composition k = sum_m k_m.
  std::vector<double> acc{1.0};
  unsigned acc_bits = 0;
  for (std::size_t m = 0; m < factors_.size(); ++m) {
    const unsigned bits = factor_bits_[m];
    std::vector<double> s(bits + 1, 0.0);
    for (std::size_t j = 0; j < factors_[m].size(); ++j) {
      s[hamming_weight(j)] += factors_[m][j];
    }
    std::vector<double> next(acc_bits + bits + 1, 0.0);
    for (std::size_t a = 0; a < acc.size(); ++a) {
      for (std::size_t b = 0; b < s.size(); ++b) {
        next[a + b] += acc[a] * s[b];
      }
    }
    acc = std::move(next);
    acc_bits += bits;
  }
  return acc;
}

std::vector<std::pair<double, double>> KroneckerResult::class_min_max() const {
  // Same dynamic program in the (min, max)-product semiring: all factor
  // entries are positive (Perron), so extremes of a product over a
  // composition are products of per-part extremes.
  std::vector<std::pair<double, double>> acc{{1.0, 1.0}};
  unsigned acc_bits = 0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < factors_.size(); ++m) {
    const unsigned bits = factor_bits_[m];
    std::vector<std::pair<double, double>> s(bits + 1, {kInf, -kInf});
    for (std::size_t j = 0; j < factors_[m].size(); ++j) {
      auto& [lo, hi] = s[hamming_weight(j)];
      lo = std::min(lo, factors_[m][j]);
      hi = std::max(hi, factors_[m][j]);
    }
    std::vector<std::pair<double, double>> next(acc_bits + bits + 1, {kInf, -kInf});
    for (std::size_t a = 0; a < acc.size(); ++a) {
      for (std::size_t b = 0; b < s.size(); ++b) {
        auto& [lo, hi] = next[a + b];
        lo = std::min(lo, acc[a].first * s[b].first);
        hi = std::max(hi, acc[a].second * s[b].second);
      }
    }
    acc = std::move(next);
    acc_bits += bits;
  }
  return acc;
}

std::vector<double> KroneckerResult::marginal_distribution(seq_t mask) const {
  require(mask != 0, "marginal_distribution: mask must select at least one bit");
  require(total_bits_ >= 64 || mask < (seq_t{1} << total_bits_),
          "marginal_distribution: mask exceeds the chain length");
  require(hamming_weight(mask) <= 24,
          "marginal_distribution: mask selects too many positions");

  // Factor independence: the joint over the selected bits is the outer
  // product of per-factor marginals, in ascending packed-bit order.
  std::vector<double> acc{1.0};
  unsigned lo = 0;
  for (std::size_t m = 0; m < factors_.size() && lo < 64; ++m) {
    const unsigned bits = factor_bits_[m];
    const seq_t local_mask = (mask >> lo) & ((seq_t{1} << bits) - 1);
    lo += bits;
    if (local_mask == 0) continue;  // factor fully marginalised: sums to 1

    // Local marginal of this factor over its selected bits.
    const unsigned local_bits = hamming_weight(local_mask);
    std::vector<double> local(std::size_t{1} << local_bits, 0.0);
    for (std::size_t j = 0; j < factors_[m].size(); ++j) {
      // Pack the selected bits of j (ascending) into a local configuration.
      seq_t packed = 0;
      unsigned out_bit = 0;
      seq_t rest = local_mask;
      while (rest != 0) {
        const seq_t low_bit = rest & (~rest + 1);
        if (j & low_bit) packed |= (seq_t{1} << out_bit);
        ++out_bit;
        rest &= rest - 1;
      }
      local[static_cast<std::size_t>(packed)] += factors_[m][j];
    }

    // Outer product: this factor's configurations occupy the next packed
    // bits above everything accumulated so far.
    std::vector<double> next(acc.size() * local.size());
    for (std::size_t h = 0; h < local.size(); ++h) {
      for (std::size_t l = 0; l < acc.size(); ++l) {
        next[h * acc.size() + l] = acc[l] * local[h];
      }
    }
    acc = std::move(next);
  }
  return acc;
}

namespace {

/// Extracts the sub-model of `model` acting on the bit range [lo, lo+bits).
core::MutationModel slice_model(const core::MutationModel& model, unsigned lo,
                                unsigned bits, std::size_t group_index) {
  switch (model.kind()) {
    case core::MutationKind::uniform:
      return core::MutationModel::uniform(bits, model.error_rate());
    case core::MutationKind::per_site: {
      const auto& sites = model.site_factors();
      std::vector<transforms::Factor2> sub(sites.begin() + lo,
                                           sites.begin() + lo + bits);
      return core::MutationModel::per_site(std::move(sub));
    }
    case core::MutationKind::grouped: {
      const auto& kp = model.group_product();
      require(group_index < kp.group_count() &&
                  kp.group_bits(group_index) == bits,
              "solve_kronecker: grouped model partition must match the "
              "landscape partition");
      return core::MutationModel::grouped({kp.factors()[group_index]});
    }
  }
  throw precondition_error("solve_kronecker: unknown mutation kind");
}

}  // namespace

KroneckerResult solve_kronecker(const core::MutationModel& model,
                                const core::KroneckerLandscape& landscape,
                                const PowerOptions& options) {
  require(model.nu() == landscape.nu(),
          "solve_kronecker: model and landscape chain lengths differ");
  if (model.kind() == core::MutationKind::grouped) {
    require(model.group_product().group_count() == landscape.group_count(),
            "solve_kronecker: grouped model partition must match the landscape");
  }

  double eigenvalue = 1.0;
  std::vector<std::vector<double>> vectors;
  std::vector<unsigned> bits_list;
  unsigned lo = 0;
  for (std::size_t g = 0; g < landscape.group_count(); ++g) {
    const unsigned bits = landscape.group_bits(g);
    core::MutationModel sub_model = slice_model(model, lo, bits, g);
    core::Landscape sub_landscape =
        core::Landscape::from_values(bits, landscape.factors()[g]);

    PowerOptions sub_options = options;
    if (sub_options.shift == 0.0 && sub_model.symmetric() &&
        sub_model.kind() != core::MutationKind::grouped) {
      sub_options.shift = core::conservative_shift(sub_model, sub_landscape);
    }
    const core::FmmpOperator op(sub_model, sub_landscape, core::Formulation::right,
                                options.engine);
    PowerResult r =
        power_iteration_owned(op, landscape_start(sub_landscape), sub_options);
    require(r.converged, "solve_kronecker: subproblem power iteration failed");
    eigenvalue *= r.eigenvalue;
    vectors.push_back(std::move(r.eigenvector));
    bits_list.push_back(bits);
    lo += bits;
  }
  return KroneckerResult(eigenvalue, std::move(vectors), std::move(bits_list));
}

}  // namespace qs::solvers
