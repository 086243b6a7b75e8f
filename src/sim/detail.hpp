// Internal helpers shared between analysis translation units.
#pragma once

#include <vector>

#include "numeric/linear_solver.hpp"
#include "sim/circuit.hpp"
#include "sim/device.hpp"
#include "sim/options.hpp"
#include "util/error.hpp"

namespace softfet::sim::detail {

/// Robust DC solve (direct Newton -> gmin stepping -> source stepping).
/// `x` is the warm start in and the solution out; returns Newton iterations.
/// Throws softfet::ConvergenceError when every strategy fails. `solver`, if
/// given, carries the cached factorization across calls (one per circuit).
/// `diag`, if given, accumulates the homotopy attempt log; on total failure
/// the thrown error carries a copy with the failing node/device filled in.
/// `budget`, if given, is checked inside every Newton solve; tripping it
/// throws softfet::BudgetExceededError (never retried by batch drivers).
int solve_dc(Circuit& circuit, const SimOptions& options, LoadContext& ctx,
             std::vector<double>& x, numeric::LinearSolver* solver = nullptr,
             SolverDiagnostics* diag = nullptr,
             const util::BudgetTimer* budget = nullptr);

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
