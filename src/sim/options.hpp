// Simulator tolerances and analysis controls (SPICE-style .options).
#pragma once

#include <cstddef>
#include <memory>

#include "numeric/linear_solver.hpp"
#include "util/budget.hpp"

namespace softfet::sim {

/// Floating-point reproducibility contract of a run.
enum class Determinism {
  /// Every result is bit-for-bit identical to the scalar reference engine.
  /// Batched lanes may share factor/solve structure but device model math
  /// stays scalar, capping the batched speedup (the documented ≈2.8×
  /// Amdahl ceiling of EXPERIMENTS.md).
  kBitwise,
  /// Device models may evaluate across lanes with the SIMD vecmath kernels
  /// (numeric/vecmath.hpp). Results agree with the scalar engine only to
  /// the kernels' documented ULP bounds — still deterministic for a given
  /// binary and lane-independent (the kernels are elementwise), but not
  /// bitwise-equal to kBitwise runs. Checkpoints are tagged with the mode
  /// so resumes never silently mix rounding regimes.
  kRelaxedUlp,
};

[[nodiscard]] constexpr const char* to_string(Determinism mode) noexcept {
  return mode == Determinism::kRelaxedUlp ? "relaxed" : "bitwise";
}

struct SimOptions {
  // --- Newton convergence ---------------------------------------------
  double reltol = 1e-3;    ///< relative dx tolerance
  double vabstol = 1e-6;   ///< absolute tolerance for node voltages [V]
  double iabstol = 1e-12;  ///< absolute tolerance for branch currents [A]
  int newton_max_iter = 150;
  double v_max_step = 0.5;  ///< Newton dv clamp for node voltages [V]

  // --- Conductance regularization --------------------------------------
  double gmin = 1e-12;  ///< node-to-ground shunt conductance [S]

  // --- DC operating point homotopy --------------------------------------
  int source_steps = 20;  ///< source-stepping points in the fallback

  // --- Transient --------------------------------------------------------
  double dtmin = 1e-18;      ///< smallest step before declaring failure [s]
  double dtmax = 0.0;        ///< largest step; 0 selects tstop/200
  double dt_initial = 0.0;   ///< first step; 0 selects tstop/1e6
  double lte_reltol = 5e-3;  ///< local-error target relative to signal swing
  double dt_grow = 1.6;      ///< max step growth per accepted step
  double dt_shrink = 0.25;   ///< shrink factor on Newton failure
  std::size_t max_steps = 20'000'000;
  bool use_trapezoidal = true;  ///< false = backward Euler everywhere

  // --- Transient recovery ladder ----------------------------------------
  /// After this many consecutive Newton failures at one step the engine
  /// escalates beyond dt shrinking: predictor reset, transient gmin ramp,
  /// then per-step source ramping (each attempt recorded in the result's
  /// diagnostics). The ladder also runs once more at the minimum timestep
  /// before the run gives up. <= 0 disables escalation (shrink-only).
  int recovery_escalate_after = 6;
  /// Starting shunt conductance of the transient gmin-ramp rung [S].
  double recovery_gmin_start = 1e-3;
  /// Continuation points of the per-step source-ramp rung.
  int recovery_source_steps = 4;

  // --- Linear solver ----------------------------------------------------
  numeric::SolverKind solver = numeric::SolverKind::kAuto;
  /// Direct vs. preconditioned-iterative strategy. kDirect (the default)
  /// keeps every result bitwise identical to the historical behavior;
  /// kIterative answers solves with BiCGSTAB preconditioned by the last
  /// cached LU and only refactors on convergence failure.
  numeric::SolverPolicy solver_policy = numeric::SolverPolicy::kDirect;
  /// Fill-reducing ordering ahead of the sparse symbolic phase. kAuto
  /// applies AMD at or above SparseLu::kAutoOrderingThreshold unknowns, so
  /// small circuits keep their natural order bit-for-bit.
  numeric::OrderingKind solver_ordering = numeric::OrderingKind::kAuto;
  /// Shared AMD-permutation memo attached to every LinearSolver this run
  /// creates (null = compute per solver). The simulation service points
  /// runs of one cached netlist at one OrderingCache so repeat requests
  /// skip the symbolic ordering work; results are bitwise unchanged.
  std::shared_ptr<numeric::OrderingCache> ordering_cache;

  /// Facade configuration handed to every LinearSolver this run creates.
  [[nodiscard]] numeric::LinearSolverConfig solver_config() const {
    numeric::LinearSolverConfig config;
    config.kind = solver;
    config.policy = solver_policy;
    config.ordering = solver_ordering;
    config.ordering_cache = ordering_cache;
    return config;
  }

  // --- Reproducibility --------------------------------------------------
  /// Floating-point contract (see Determinism above). kBitwise keeps every
  /// analysis bit-for-bit equal to the scalar reference engine; kRelaxedUlp
  /// lets the batched Monte-Carlo engine evaluate device models across
  /// lanes with SIMD kernels, trading ULP-level agreement for throughput
  /// beyond the bitwise Amdahl ceiling.
  Determinism determinism = Determinism::kBitwise;

  // --- Run budget -------------------------------------------------------
  /// Wall-clock / step / iteration limits plus an optional cancel token.
  /// Default-constructed = unlimited. Each analysis arms its own
  /// util::BudgetTimer from this spec at entry; transients that trip it
  /// return a partial result flagged `truncated` instead of throwing.
  util::RunBudget budget;
};

}  // namespace softfet::sim
