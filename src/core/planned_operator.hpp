// PlannedOperator — the operator layer's one-stop execution object.
//
// Before this layer every call site that wanted the fast product assembled
// the pieces itself: construct an FmmpOperator, thread a BlockedPlan through,
// and allocate its own scratch.  A PlannedOperator owns all of it in one
// object:
//
//   * the FmmpOperator (model copy + landscape reference + formulation),
//   * the banded/panel butterfly tiling plan (the fixed default unless the
//     caller passes another),
//   * a preallocated scratch Workspace shared with the solver loops, so the
//     per-iteration hot path performs zero heap allocations.
//
// `apply` / `apply_panel` route through the owned plan on every engine
// (serial, openmp).  The facade, qs_solve/qs_sweep, the block
// solver, and the benches all build their operator through this class.
#pragma once

#include <memory>

#include "core/fmmp.hpp"
#include "core/workspace.hpp"
#include "obs/trace.hpp"

namespace qs::core {

/// Construction-time configuration for a PlannedOperator.
struct PlannedOperatorConfig {
  Formulation formulation = Formulation::right;

  /// Execution engine; null routes default configurations (blocked kernel,
  /// ascending order, non-grouped model) through the serial engine so they
  /// get the banded kernel + single-vector microkernels — bit-identical to
  /// the classic serial sweep.  Per-level/descending/grouped configurations
  /// keep the classic serial path when null.
  const parallel::Engine* engine = nullptr;
  transforms::LevelOrder order = transforms::LevelOrder::ascending;
  EngineKernel kernel = EngineKernel::blocked;

  /// Tiling plan (the hand-tuned default unless overridden).
  transforms::BlockedPlan plan;
};

/// Implicit fast product with W that owns its plan and scratch workspace.
class PlannedOperator final : public LinearOperator {
 public:
  /// Builds the operator.  `model` is copied (it is small); `landscape` is
  /// referenced and must outlive the operator, as must `config.engine` when
  /// non-null.
  PlannedOperator(MutationModel model, const Landscape& landscape,
                  const PlannedOperatorConfig& config = {});

  seq_t dimension() const override { return op_->dimension(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    QS_TRACE_SPAN("fmmp.apply", kernel);
    op_->apply(x, y);
  }
  std::string_view name() const override { return "PlannedFmmp"; }

  /// Panel product Y <- W X on an interleaved panel of m vectors; see
  /// FmmpOperator::apply_panel.
  void apply_panel(std::span<const double> x, std::span<double> y,
                   std::size_t m) const {
    QS_TRACE_SPAN_ARG("fmmp.apply_panel", kernel, m);
    op_->apply_panel(x, y, m);
  }

  /// The underlying Fmmp operator (for call sites that need the concrete
  /// type, e.g. the block solver's formulation check).
  const FmmpOperator& fmmp() const { return *op_; }

  /// The plan the operator executes with.
  const transforms::BlockedPlan& plan() const { return op_->plan(); }

  /// The scratch arena solver loops draw their temporaries from.  Mutable
  /// through a const operator: scratch contents are not part of the
  /// operator's logical state (one solve at a time, like apply itself).
  Workspace& workspace() const { return workspace_; }

 private:
  std::unique_ptr<FmmpOperator> op_;
  mutable Workspace workspace_;
};

}  // namespace qs::core
