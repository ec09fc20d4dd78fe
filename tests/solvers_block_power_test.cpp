// Block subspace iteration and landscape-family solves: Ritz pairs must
// agree with the dense spectrum and with the one-at-a-time deflation
// baseline on the paper's landscapes, and the batched family solve must
// reproduce the per-landscape facade results.
#include "solvers/block_power.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/sweep.hpp"
#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "parallel/engine.hpp"
#include "solvers/deflation.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

TEST(BlockPower, TopPairsMatchDenseSpectrumOnRandomLandscape) {
  const unsigned nu = 6;
  const std::size_t n = std::size_t{1} << nu;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  const core::FmmpOperator op(model, landscape, core::Formulation::symmetric);

  // Dense reference spectrum of W_sym via columns of the operator.
  linalg::DenseMatrix w(n, n);
  std::vector<double> e(n, 0.0), col(n);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    op.apply(e, col);
    e[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) w(i, j) = col[i];
  }
  const auto dense = linalg::jacobi_eigen(w);

  BlockPowerOptions opts;
  opts.k = 4;
  opts.tolerance = 1e-11;
  const auto r = block_power_iteration(op, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.eigenvalues.size(), 4u);
  for (unsigned j = 0; j < opts.k; ++j) {
    EXPECT_NEAR(r.eigenvalues[j], dense.values[j],
                1e-9 * std::abs(dense.values[j]))
        << "pair " << j;
    // Eigenvector agreement up to sign: |<v_block, v_dense>| ~ 1.
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += r.eigenvectors[j][i] * dense.vectors(i, j);
    }
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-7) << "pair " << j;
  }
}

TEST(BlockPower, AgreesWithDeflationGapOnPaperLandscapes) {
  const unsigned nu = 8;
  const auto landscapes = {core::Landscape::single_peak(nu, 2.0, 1.0),
                           core::Landscape::random(nu, 5.0, 1.0, 3)};
  for (const auto& landscape : landscapes) {
    const auto model = core::MutationModel::uniform(nu, 0.01);
    const SpectralGap gap = spectral_gap(model, landscape);

    BlockPowerOptions opts;
    opts.k = 2;
    opts.tolerance = 1e-11;
    const auto r = top_k_spectrum(model, landscape, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.eigenvalues[0], gap.lambda0, 1e-8 * gap.lambda0);
    EXPECT_NEAR(r.eigenvalues[1], gap.lambda1, 1e-7 * gap.lambda0);
  }
}

TEST(BlockPower, DominantPairMatchesFacadeSolveAcrossBackends) {
  const unsigned nu = 7;
  const auto model = core::MutationModel::uniform(nu, 0.015);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const auto facade = solve(model, landscape);
  ASSERT_TRUE(facade.converged);

  for (const auto& [name, engine] : testing::all_engines()) {
    BlockPowerOptions opts;
    opts.k = 2;
    opts.tolerance = 1e-11;
    opts.engine = engine;
    const auto r = top_k_spectrum(model, landscape, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.eigenvalues[0], facade.eigenvalue, 1e-9 * facade.eigenvalue);
    // top_k_spectrum reports right-formulation concentrations; compare to
    // the facade's concentration vector entrywise.
    ASSERT_EQ(r.eigenvectors[0].size(), facade.concentrations.size());
    for (std::size_t i = 0; i < facade.concentrations.size(); ++i) {
      EXPECT_NEAR(r.eigenvectors[0][i], facade.concentrations[i], 1e-8)
          << "entry " << i;
    }
  }
}

TEST(BlockPower, GuardColumnsAcceleratedWidthStillCorrect) {
  // Explicit wide block (guard columns beyond k) converges to the same pairs.
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::linear(nu, 2.0, 1.0);
  BlockPowerOptions narrow, wide;
  narrow.k = wide.k = 2;
  narrow.tolerance = wide.tolerance = 1e-11;
  wide.block = 8;
  const auto a = top_k_spectrum(model, landscape, narrow);
  const auto b = top_k_spectrum(model, landscape, wide);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.eigenvalues[0], b.eigenvalues[0], 1e-9 * a.eigenvalues[0]);
  EXPECT_NEAR(a.eigenvalues[1], b.eigenvalues[1], 1e-8 * a.eigenvalues[0]);
}

TEST(LandscapeFamily, BatchedSolveMatchesPerLandscapeFacade) {
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const std::vector<core::Landscape> family = {
      core::Landscape::single_peak(nu, 2.0, 1.0),
      core::Landscape::linear(nu, 2.0, 1.0),
      core::Landscape::random(nu, 5.0, 1.0, 17)};

  analysis::FamilyOptions fopts;
  fopts.tolerance = 1e-12;
  const auto batched = analysis::sweep_landscape_family(model, family, fopts);
  ASSERT_TRUE(batched.converged);
  ASSERT_EQ(batched.eigenvalues.size(), family.size());

  for (std::size_t j = 0; j < family.size(); ++j) {
    SolveOptions opts;
    opts.use_shift = false;
    const auto single = solve(model, family[j], opts);
    ASSERT_TRUE(single.converged);
    EXPECT_NEAR(batched.eigenvalues[j], single.eigenvalue,
                1e-9 * single.eigenvalue)
        << "landscape " << j;
    for (std::size_t i = 0; i < single.concentrations.size(); ++i) {
      EXPECT_NEAR(batched.eigenvectors[j][i], single.concentrations[i], 1e-8)
          << "landscape " << j << " entry " << i;
    }
  }
}

TEST(LandscapeFamily, GroupedModelAndBackendsAgree) {
  // The family path also covers grouped Q (scaling sweeps + banded grouped
  // kernel) and every backend.
  const unsigned nu = 6;
  std::vector<linalg::DenseMatrix> groups;
  for (unsigned g = 0; g < 3; ++g) {
    linalg::DenseMatrix f(4, 4);
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t r = 0; r < 4; ++r) f(r, c) = r == c ? 0.91 : 0.03;
    }
    groups.push_back(std::move(f));
  }
  const auto model = core::MutationModel::grouped(groups);
  ASSERT_EQ(model.nu(), nu);
  const std::vector<core::Landscape> family = {
      core::Landscape::single_peak(nu, 3.0, 1.0),
      core::Landscape::random(nu, 5.0, 1.0, 29)};

  std::vector<double> reference;
  for (const auto& [name, engine] : testing::all_engines()) {
    analysis::FamilyOptions fopts;
    fopts.tolerance = 1e-12;
    fopts.engine = engine;
    const auto r = analysis::sweep_landscape_family(model, family, fopts);
    ASSERT_TRUE(r.converged);
    if (reference.empty()) {
      reference = r.eigenvalues;
      // Cross-check against the facade on the same grouped model.
      for (std::size_t j = 0; j < family.size(); ++j) {
        SolveOptions opts;
        const auto single = solve(model, family[j], opts);
        ASSERT_TRUE(single.converged);
        EXPECT_NEAR(r.eigenvalues[j], single.eigenvalue,
                    1e-9 * single.eigenvalue);
      }
    } else {
      for (std::size_t j = 0; j < reference.size(); ++j) {
        EXPECT_NEAR(r.eigenvalues[j], reference[j], 1e-10 * reference[j]);
      }
    }
  }
}

}  // namespace
}  // namespace qs::solvers
