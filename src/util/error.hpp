// Error types shared across the softfet libraries.
//
// All library failures are reported through exceptions derived from
// softfet::Error so callers can distinguish library faults from std:: ones.
// Solver failures additionally carry a SolverDiagnostics payload describing
// *where* and *why* the numerics gave up (worst node, blamed device, last
// timestep, recovery attempts) so batch drivers can record structured
// failure entries instead of opaque strings.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/budget.hpp"

namespace softfet {

/// Root of the softfet exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A malformed netlist, bad parameter value, or inconsistent circuit.
class InvalidCircuitError : public Error {
 public:
  explicit InvalidCircuitError(const std::string& what) : Error(what) {}
};

/// One recovery-ladder rung tried after a solver failure.
struct RecoveryAttempt {
  std::string strategy;  ///< "dt_shrink", "predictor_reset", "gmin_ramp", ...
  bool succeeded = false;
  std::string detail;  ///< human-readable context ("t=120ps dt=4ps -> 1ps")
};

/// One Newton iteration of the last failed solve (for the iteration trace).
struct IterationRecord {
  double max_dx = 0.0;        ///< largest |dx| of the iteration
  double max_residual = 0.0;  ///< largest scaled |F| entry of the iteration
};

/// Structured description of a solver failure (or of the recovery work a
/// successful analysis had to do). Threaded through the Newton loop and the
/// analysis drivers; embedded in ConvergenceError and exposed on results.
struct SolverDiagnostics {
  std::string analysis;  ///< "transient", "dc operating point", ...
  std::string failure;   ///< short reason ("newton max iterations", ...)
  double time = 0.0;     ///< simulation time of the failure [s]
  double last_dt = 0.0;  ///< last attempted timestep [s] (0 for DC)
  int iterations = 0;    ///< Newton iterations of the last failed solve
  int total_iterations = 0;  ///< cumulative iterations incl. recovery work
  double worst_residual = 0.0;   ///< largest |F| entry at the failure
  std::string worst_node;        ///< unknown label with the worst residual
  std::string worst_device;      ///< device blamed for that residual row
  std::vector<IterationRecord> iteration_trace;  ///< last failed solve
  std::vector<RecoveryAttempt> attempts;         ///< ladder rungs tried
  std::size_t attempts_dropped = 0;  ///< attempts beyond the recording cap

  // Linear-solver counters of the run (filled by the analysis drivers from
  // numeric::LinearSolver::stats(); all zero when the run never reached a
  // sparse solve). Mirrored as plain fields because util cannot depend on
  // the numeric layer.
  std::size_t symbolic_analyses = 0;   ///< full symbolic factorizations
  std::size_t refactorizations = 0;    ///< cached numeric-only refactors
  std::size_t value_reuses = 0;        ///< of those, bitwise repeats skipped
  double fill_ratio = 0.0;             ///< nnz(L+U)/nnz(A), last analysis
  bool reordered = false;              ///< AMD ordering was applied
  std::size_t krylov_solves = 0;       ///< solves answered iteratively
  std::size_t krylov_iterations = 0;   ///< cumulative Krylov iterations
  std::size_t krylov_fallbacks = 0;    ///< Krylov failures -> refactor

  /// Active determinism contract of the run ("bitwise" or "relaxed"),
  /// echoed by the analysis drivers. Plain string because util cannot
  /// depend on the sim layer's enum.
  std::string determinism = "bitwise";

  /// Record an attempt, bounded so pathological runs cannot grow unbounded.
  void record_attempt(RecoveryAttempt attempt);

  /// One-line human-readable report with engineering-notation time/units,
  /// e.g. "transient: newton max iterations at t=1.2ns (dt=40fs, 150
  /// iterations), worst residual 3.2mA at v(out) (device MN1), 4 recovery
  /// attempts".
  [[nodiscard]] std::string summary() const;
};

/// Bound on recorded recovery attempts (excess is counted, not stored).
inline constexpr std::size_t kMaxRecordedAttempts = 256;

/// Numerical failure: singular matrix, Newton divergence, step underflow.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}

  /// `what` is prefixed to the diagnostics' one-line summary.
  ConvergenceError(const std::string& what, SolverDiagnostics diagnostics);

  [[nodiscard]] bool has_diagnostics() const noexcept {
    return has_diagnostics_;
  }
  [[nodiscard]] const SolverDiagnostics& diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  SolverDiagnostics diagnostics_;
  bool has_diagnostics_ = false;
};

/// A run stopped by its RunBudget or a cooperative cancel request rather
/// than by a numerical failure. core::classify_failure never grants it the
/// tightened-options rerun other ConvergenceErrors get.
class BudgetExceededError : public ConvergenceError {
 public:
  BudgetExceededError(const std::string& what, util::BudgetStop stop);
  BudgetExceededError(const std::string& what, util::BudgetStop stop,
                      SolverDiagnostics diagnostics);

  /// Which budget limit (or the cancel token) stopped the run.
  [[nodiscard]] util::BudgetStop stop() const noexcept { return stop_; }

 private:
  util::BudgetStop stop_;
};

/// A numerically singular linear system; `column` is the unknown whose pivot
/// vanished (maps back to a node/branch label in MNA systems).
class SingularMatrixError : public ConvergenceError {
 public:
  SingularMatrixError(const std::string& what, std::size_t column)
      : ConvergenceError(what), column_(column) {}

  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t column_;
};

/// Netlist (or service request) text could not be parsed. `line` is
/// 1-based; `column` is the 1-based character position when the producer
/// tracks it (0 = unknown — the netlist tokenizer reports lines only, the
/// service NDJSON parser reports both).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line)
      : Error("line " + std::to_string(line) + ": " + what), line_(line) {}

  ParseError(const std::string& what, int line, int column)
      : Error(with_position(what, line, column)),
        line_(line),
        column_(column) {}

  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int column() const noexcept { return column_; }

 private:
  // Built by appends: GCC 12's -Wrestrict misfires on long chains of
  // std::string operator+ (GCC PR105651), which -Werror would promote.
  [[nodiscard]] static std::string with_position(const std::string& what,
                                                 int line, int column) {
    std::string msg = "line ";
    msg += std::to_string(line);
    msg += ':';
    msg += std::to_string(column);
    msg += ": ";
    msg += what;
    return msg;
  }

  int line_;
  int column_ = 0;
};

}  // namespace softfet
