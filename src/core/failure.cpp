#include "core/failure.hpp"

#include <algorithm>

namespace softfet::core {

FailureClass classify_failure(const std::exception& error) {
  if (const auto* budget = dynamic_cast<const BudgetExceededError*>(&error)) {
    return budget->stop() == util::BudgetStop::kCancel
               ? FailureClass::kCancelled
               : FailureClass::kFinal;
  }
  if (dynamic_cast<const ConvergenceError*>(&error) != nullptr) {
    return FailureClass::kRerun;
  }
  return FailureClass::kFinal;
}

void require_complete(const sim::TranResult& tran, const std::string& who) {
  if (!tran.truncated) return;
  SolverDiagnostics d = tran.diagnostics;
  if (d.analysis.empty()) d.analysis = "transient";
  throw BudgetExceededError(who, tran.stop_reason, std::move(d));
}

void throw_if_cancelled(const sim::SimOptions& options, const char* who) {
  if (options.budget.cancel != nullptr && options.budget.cancel->requested()) {
    throw BudgetExceededError(who, util::BudgetStop::kCancel);
  }
}

sim::SimOptions tightened_options(const sim::SimOptions& options) {
  sim::SimOptions tight = options;
  // Backward Euler is L-stable: no trapezoidal ringing across the PTM's
  // near-discontinuous transitions.
  tight.use_trapezoidal = false;
  tight.newton_max_iter = std::max(options.newton_max_iter, 300);
  // Start cautiously and grow slowly; shrink harder on trouble.
  tight.dt_shrink = std::min(options.dt_shrink, 0.1);
  tight.dt_grow = std::min(options.dt_grow, 1.3);
  // Escalate to the heavy recovery rungs sooner.
  if (options.recovery_escalate_after > 0) {
    tight.recovery_escalate_after =
        std::min(options.recovery_escalate_after, 3);
  }
  return tight;
}

}  // namespace softfet::core
