#include "util/error.hpp"

#include <utility>

#include "util/table.hpp"
#include "util/units.hpp"

namespace softfet {

void SolverDiagnostics::record_attempt(RecoveryAttempt attempt) {
  if (attempts.size() >= kMaxRecordedAttempts) {
    ++attempts_dropped;
    return;
  }
  attempts.push_back(std::move(attempt));
}

std::string SolverDiagnostics::summary() const {
  std::string out = analysis.empty() ? "solver" : analysis;
  out += ": ";
  out += failure.empty() ? "failure" : failure;
  out += " at t=" + util::format_si(time, 4, "s");
  if (last_dt > 0.0) out += " (dt=" + util::format_si(last_dt, 3, "s");
  if (last_dt > 0.0 && iterations > 0) {
    out += ", " + std::to_string(iterations) + " iterations)";
  } else if (last_dt > 0.0) {
    out += ")";
  } else if (iterations > 0) {
    out += " (" + std::to_string(iterations) + " iterations)";
  }
  if (!worst_node.empty()) {
    out += ", worst residual " + util::format_si(worst_residual, 3) + " at " +
           worst_node;
    if (!worst_device.empty()) out += " (device " + worst_device + ")";
  }
  const std::size_t tried = attempts.size() + attempts_dropped;
  if (tried > 0) {
    out += ", " + std::to_string(tried) + " recovery attempt" +
           (tried == 1 ? "" : "s");
  }
  if (symbolic_analyses > 0) {
    out += "; LU: " + std::to_string(symbolic_analyses) + " analyses / " +
           std::to_string(refactorizations) + " refactors, fill " +
           util::fmt_g(fill_ratio, 3) + "x" + (reordered ? " (amd)" : "");
  }
  if (krylov_solves > 0 || krylov_fallbacks > 0) {
    out += "; krylov: " + std::to_string(krylov_solves) + " solves / " +
           std::to_string(krylov_iterations) + " iterations, " +
           std::to_string(krylov_fallbacks) + " fallbacks";
  }
  return out;
}

BudgetExceededError::BudgetExceededError(const std::string& what,
                                         util::BudgetStop stop)
    : ConvergenceError(what + " (" + util::to_string(stop) + ")"),
      stop_(stop) {}

BudgetExceededError::BudgetExceededError(const std::string& what,
                                         util::BudgetStop stop,
                                         SolverDiagnostics diagnostics)
    : ConvergenceError(what, std::move(diagnostics)), stop_(stop) {}

ConvergenceError::ConvergenceError(const std::string& what,
                                   SolverDiagnostics diagnostics)
    // summary() already leads with the analysis name; skip a duplicate
    // prefix when the caller context is the same string.
    : Error(what == diagnostics.analysis
                ? diagnostics.summary()
                : what + ": " + diagnostics.summary()),
      diagnostics_(std::move(diagnostics)),
      has_diagnostics_(true) {}

}  // namespace softfet
