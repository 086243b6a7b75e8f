// Failure isolation and the one rerun policy. classify_failure() decides
// whether a failure earns a rerun under tightened solver options; the batch
// drivers (run_isolated), the case studies and the service all follow it.
// A failed sample or grid point is recorded as a structured FailureRecord
// instead of poisoning the whole parallel run.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "sim/options.hpp"
#include "sim/result.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace softfet::core {

/// One isolated batch-point failure: which point, why, and — when the
/// error was a ConvergenceError — the full solver diagnostics (worst node,
/// offending device, time, recovery-attempt log).
struct FailureRecord {
  std::size_t index = 0;  ///< sample / grid-point index within the batch
  std::string context;    ///< point description, e.g. "sample 17" or "vcc=0.5"
  std::string message;    ///< what() of the final error
  SolverDiagnostics diagnostics;  ///< populated when the error carried one
  bool retried = false;   ///< a tightened-options retry was attempted first
  /// Which budget limit stopped the point (kNone = a numerical failure).
  util::BudgetStop budget_stop = util::BudgetStop::kNone;

  /// True when the point did not fail on its own merits but was swept up by
  /// a cooperative cancel. Cancelled records must not enter statistics or
  /// checkpoints — the point reruns on resume.
  [[nodiscard]] bool cancelled() const noexcept {
    return budget_stop == util::BudgetStop::kCancel;
  }
};

/// How a failed run is treated.
enum class FailureClass {
  kRerun,      ///< rerun once under tightened_options()
  kFinal,      ///< report as is
  kCancelled,  ///< a cooperative cancel: final, and not the run's own fault
};

/// The one rerun rule. A BudgetExceededError is final (kCancelled when its
/// stop is the cancel token): rerunning a run that ran out of budget only
/// doubles the spent wall clock, and rerunning under a cancel defeats it.
/// Any other ConvergenceError, SingularMatrixError included, gets one
/// rerun. Everything else — ParseError, InvalidCircuitError, non-softfet
/// exceptions — would fail the same way again and is final.
[[nodiscard]] FailureClass classify_failure(const std::exception& error);

/// Conservative option set for retrying a failed batch point: backward
/// Euler everywhere, a larger Newton budget, and an earlier, stronger
/// recovery ladder. Slower but markedly more robust.
[[nodiscard]] sim::SimOptions tightened_options(const sim::SimOptions& options);

/// Throw BudgetExceededError when a transient came back truncated. Batch
/// points and case studies call this right after run_transient so a
/// budget-stopped partial waveform is recorded as an isolated failure (or
/// surfaces the cancel) instead of being measured as if it completed.
void require_complete(const sim::TranResult& tran, const std::string& who);

/// Throw BudgetExceededError(kCancel) when the options' cancel token has
/// been tripped. Batch drivers call this between serial phases so a Ctrl-C
/// lands promptly even outside parallel loops.
void throw_if_cancelled(const sim::SimOptions& options, const char* who);

/// Run `body(options)`; when classify_failure() says kRerun, run it once
/// more with tightened_options(). Returns nullopt on success, otherwise a
/// FailureRecord describing the final error. Non-softfet exceptions
/// propagate: they indicate bugs, not convergence trouble.
template <typename Body>
[[nodiscard]] std::optional<FailureRecord> run_isolated(
    std::size_t index, std::string context, const sim::SimOptions& options,
    Body&& body) {
  const auto record = [&](const Error& e, bool retried) {
    FailureRecord rec;
    rec.index = index;
    rec.context = std::move(context);
    rec.message = e.what();
    if (const auto* conv = dynamic_cast<const ConvergenceError*>(&e);
        conv != nullptr && conv->has_diagnostics()) {
      rec.diagnostics = conv->diagnostics();
    }
    if (const auto* budget = dynamic_cast<const BudgetExceededError*>(&e)) {
      rec.budget_stop = budget->stop();
    }
    rec.retried = retried;
    return rec;
  };
  try {
    body(options);
    return std::nullopt;
  } catch (const Error& e) {
    if (classify_failure(e) != FailureClass::kRerun) {
      return record(e, /*retried=*/false);
    }
  }
  try {
    body(tightened_options(options));
    return std::nullopt;
  } catch (const Error& e) {
    return record(e, /*retried=*/true);
  }
}

}  // namespace softfet::core
