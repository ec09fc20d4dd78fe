// Tests for core/planned_operator: the one-stop execution object that owns
// the FmmpOperator, the tiling plan, and the scratch workspace the solver
// loops draw from.
//
// The numerical contract is transparency: a PlannedOperator built with the
// defaults computes bit-for-bit what a bare FmmpOperator computes, and one
// built with any other fixed plan computes those same bits too (the banded
// butterfly's arithmetic per element does not depend on the tiling).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/planned_operator.hpp"
#include "core/workspace.hpp"
#include "parallel/engine.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::core {
namespace {

MutationModel test_model() { return MutationModel::uniform(8, 0.02); }
Landscape test_landscape() { return Landscape::random(8, 4.0, 1.0, 11); }

std::vector<double> test_vector(std::size_t n, std::size_t m = 1) {
  std::vector<double> x(n * m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.125 * static_cast<double>(i % 17);
  }
  return x;
}

TEST(PlannedOperatorTest, DefaultApplyMatchesABareFmmpOperatorBitForBit) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  const PlannedOperator planned(model, fitness);
  const FmmpOperator bare(model, fitness);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  const auto x = test_vector(n);
  std::vector<double> y_planned(n), y_bare(n);
  planned.apply(x, y_planned);
  bare.apply(x, y_bare);

  ASSERT_EQ(y_planned, y_bare);
}

TEST(PlannedOperatorTest, SymmetricPanelApplyMatchesBitForBit) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  PlannedOperatorConfig config;
  config.formulation = Formulation::symmetric;
  const PlannedOperator planned(model, fitness, config);
  const FmmpOperator bare(model, fitness, Formulation::symmetric);
  EXPECT_EQ(planned.fmmp().formulation(), Formulation::symmetric);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  const std::size_t m = 4;
  const auto x = test_vector(n, m);
  std::vector<double> y_planned(n * m), y_bare(n * m);
  planned.apply_panel(x, y_planned, m);
  bare.apply_panel(x, y_bare, m);

  ASSERT_EQ(y_planned, y_bare);
}

/// A small non-default plan: at nu = 12 it splits the butterfly into several
/// bands where the default plan needs two, and it caps the fused radix.
transforms::BlockedPlan small_plan() {
  transforms::BlockedPlan plan;
  plan.tile_log2 = 5;
  plan.chunk_log2 = 2;
  plan.sv_max_radix = 4;
  return plan;
}

TEST(PlannedOperatorTest, AnyFixedPlanGivesTheSameBits) {
  const unsigned nu = 12;
  const auto model = MutationModel::uniform(nu, 0.02);
  const auto fitness = Landscape::random(nu, 4.0, 1.0, 11);
  const auto plan = small_plan();
  ASSERT_GT(transforms::blocked_band_boundaries(nu, plan).size(),
            transforms::blocked_band_boundaries(nu, {}).size());

  PlannedOperatorConfig config;
  config.plan = plan;
  const PlannedOperator planned(model, fitness, config);
  EXPECT_EQ(planned.plan().tile_log2, plan.tile_log2);
  EXPECT_EQ(planned.plan().chunk_log2, plan.chunk_log2);
  EXPECT_EQ(planned.plan().sv_max_radix, plan.sv_max_radix);
  const PlannedOperator default_planned(model, fitness);
  const FmmpOperator bare(model, fitness, Formulation::right,
                          &parallel::serial_engine(),
                          transforms::LevelOrder::ascending,
                          EngineKernel::blocked, plan);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  const auto x = test_vector(n);
  std::vector<double> y_planned(n), y_bare(n), y_default(n);
  planned.apply(x, y_planned);
  bare.apply(x, y_bare);
  default_planned.apply(x, y_default);
  ASSERT_EQ(y_planned, y_bare);
  ASSERT_EQ(y_planned, y_default);

  const std::size_t m = 4;
  const auto xp = test_vector(n, m);
  std::vector<double> yp_planned(n * m), yp_bare(n * m), yp_default(n * m);
  planned.apply_panel(xp, yp_planned, m);
  bare.apply_panel(xp, yp_bare, m);
  default_planned.apply_panel(xp, yp_default, m);
  ASSERT_EQ(yp_planned, yp_bare);
  ASSERT_EQ(yp_planned, yp_default);
}

TEST(PlannedOperatorTest, AnyFixedPlanSolvesToTheSameBits) {
  const unsigned nu = 12;
  const auto model = MutationModel::uniform(nu, 0.01);
  const auto fitness = Landscape::random(nu, 4.0, 1.0, 11);
  solvers::SolveOptions defaults, planned;
  planned.plan = small_plan();
  const auto a = solvers::solve(model, fitness, defaults);
  const auto b = solvers::solve(model, fitness, planned);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_EQ(a.eigenvalue, b.eigenvalue);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.class_concentrations, b.class_concentrations);
}

TEST(PlannedOperatorTest, WorkspaceSlotsAreStableAndGrowOnly) {
  Workspace workspace;
  const auto a = workspace.take(Workspace::Slot::product, 100);
  ASSERT_EQ(a.size(), 100u);
  a[0] = 42.0;

  // A smaller take on the same slot reuses the same backing buffer.
  const auto b = workspace.take(Workspace::Slot::product, 50);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b[0], 42.0);

  // Distinct slots are distinct buffers.
  const auto c = workspace.take(Workspace::Slot::recurrence, 100);
  EXPECT_NE(c.data(), a.data());

  // Growth never shrinks: bytes() is monotone across takes.
  const std::size_t before = workspace.bytes();
  const auto d = workspace.take(Workspace::Slot::product, 200);
  EXPECT_EQ(d.size(), 200u);
  EXPECT_GE(workspace.bytes(), before);
  workspace.take(Workspace::Slot::product, 10);
  EXPECT_GE(workspace.bytes(), before);

  // Any slot index is valid, including the high Krylov slots.
  const auto e = workspace.take(Workspace::Slot::krylov6, 8);
  EXPECT_EQ(e.size(), 8u);
}

TEST(PlannedOperatorTest, WorkspaceIsSharedAcrossRepeatedTakes) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  const PlannedOperator planned(model, fitness);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  Workspace& workspace = planned.workspace();
  const auto first = workspace.take(Workspace::Slot::product, n);
  const auto second = workspace.take(Workspace::Slot::product, n);
  EXPECT_EQ(first.data(), second.data());
  EXPECT_GE(workspace.bytes(), n * sizeof(double));
}

}  // namespace
}  // namespace qs::core
