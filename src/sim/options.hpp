// Simulator tolerances and analysis controls (SPICE-style .options).
#pragma once

#include "numeric/linear_solver.hpp"
#include "util/budget.hpp"

namespace softfet::sim {

/// Floating-point reproducibility contract a run asks for. Both modes run
/// the same engine today, so every result is bit-for-bit identical to the
/// scalar reference engine either way; the mode is a label that diagnostics
/// echo and checkpoint tags pin.
enum class Determinism {
  /// Every result is bit-for-bit identical to the scalar reference engine.
  kBitwise,
  /// Results need only agree with the scalar engine to within ULP-level
  /// rounding. The engine does not use that freedom, so relaxed runs equal
  /// bitwise runs; checkpoints are still tagged with the mode so a resume
  /// never mixes the two contracts.
  kRelaxedUlp,
};

[[nodiscard]] constexpr const char* to_string(Determinism mode) noexcept {
  return mode == Determinism::kRelaxedUlp ? "relaxed" : "bitwise";
}

/// Node-to-ground shunt conductance every solve stamps [S] (SPICE GMIN):
/// the DC and transient Jacobians and the AC admittance matrix alike.
inline constexpr double kGmin = 1e-12;

struct SimOptions {
  // --- Newton convergence ---------------------------------------------
  double reltol = 1e-3;    ///< relative dx tolerance
  double vabstol = 1e-6;   ///< absolute tolerance for node voltages [V]
  double iabstol = 1e-12;  ///< absolute tolerance for branch currents [A]
  int newton_max_iter = 150;
  double v_max_step = 0.5;  ///< Newton dv clamp for node voltages [V]

  // --- Transient --------------------------------------------------------
  double dtmax = 0.0;        ///< largest step; 0 selects tstop/200
  double dt_grow = 1.6;      ///< max step growth per accepted step
  double dt_shrink = 0.25;   ///< shrink factor on Newton failure
  bool use_trapezoidal = true;  ///< false = backward Euler everywhere

  // --- Transient recovery ladder ----------------------------------------
  /// After this many consecutive Newton failures at one step the engine
  /// escalates beyond dt shrinking: predictor reset, transient gmin ramp,
  /// then per-step source ramping (each attempt recorded in the result's
  /// diagnostics). The ladder also runs once more at the minimum timestep
  /// before the run gives up. <= 0 disables escalation (shrink-only).
  int recovery_escalate_after = 6;

  // --- Linear solver ----------------------------------------------------
  numeric::SolverKind solver = numeric::SolverKind::kAuto;
  /// Direct vs. preconditioned-iterative strategy. kDirect (the default)
  /// keeps every result bitwise identical to the historical behavior;
  /// kIterative answers solves with BiCGSTAB preconditioned by the last
  /// cached LU and only refactors on convergence failure.
  numeric::SolverPolicy solver_policy = numeric::SolverPolicy::kDirect;

  /// Facade configuration handed to every LinearSolver this run creates.
  [[nodiscard]] numeric::LinearSolverConfig solver_config() const {
    return {.kind = solver, .policy = solver_policy};
  }

  // --- Reproducibility --------------------------------------------------
  /// Floating-point contract (see Determinism above).
  Determinism determinism = Determinism::kBitwise;

  // --- Run budget -------------------------------------------------------
  /// Wall-clock / step / iteration limits plus an optional cancel token.
  /// Default-constructed = unlimited. Each analysis arms its own
  /// util::BudgetTimer from this spec at entry; transients that trip it
  /// return a partial result flagged `truncated` instead of throwing.
  util::RunBudget budget;
};

}  // namespace softfet::sim
