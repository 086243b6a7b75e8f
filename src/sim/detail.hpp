// Internal helpers shared between analysis translation units.
#pragma once

#include <vector>

#include "numeric/linear_solver.hpp"
#include "sim/circuit.hpp"
#include "sim/device.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace softfet::sim::detail {

/// The DC solve of one bias point: direct Newton, then gmin stepping, then
/// source stepping, on the lane's OP entry (step_control.hpp); then
/// re-solves until hysteretic devices' quasistatic state is self-consistent
/// and initializes every device's state at the solution. `x` is the warm
/// start in and the solution out; returns the first solve's Newton
/// iterations. `solver` carries the cached factorization across calls (one
/// per circuit). `diag`, if given, accumulates the homotopy attempt log.
/// Throws softfet::ConvergenceError, carrying that log with the failing
/// node and device filled in, when every homotopy fails, and
/// softfet::BudgetExceededError when `budget` trips.
int solve_dc(Circuit& circuit, const SimOptions& options,
             std::vector<double>& x, numeric::LinearSolver& solver,
             const util::BudgetTimer& budget,
             SolverDiagnostics* diag = nullptr);

/// dc_operating_point under a budget the caller armed, so an analysis that
/// starts from the operating point (AC) bounds both with one timer.
[[nodiscard]] OpResult operating_point(Circuit& circuit,
                                       const SimOptions& options,
                                       const util::BudgetTimer& budget);

/// Copy a LinearSolver's lifetime counters (analyses, refactors, fill
/// ratio, Krylov work) into the diagnostics' plain mirror fields.
void fill_solver_stats(SolverDiagnostics& diag,
                       const numeric::LinearSolver& solver);

/// Collect the full signal-name list: unknown labels then device probes.
[[nodiscard]] std::vector<std::string> signal_names(const Circuit& circuit);

/// Build one sample row matching signal_names() — unknowns then probes —
/// into a caller-owned buffer: no per-row allocation, and probe values come
/// from Device::probe_values so no name strings are built.
void sample_row_into(const Circuit& circuit, const std::vector<double>& x,
                     std::vector<double>& row);

}  // namespace softfet::sim::detail
