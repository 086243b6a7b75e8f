#include "sim/step_control.hpp"

#include <algorithm>
#include <cmath>

#include "sim/detail.hpp"
#include "util/units.hpp"

namespace softfet::sim::detail {

namespace {

constexpr double kEventBoundaryTolerance = 1e-9;  // relative to dt

/// Ratio of predictor-corrector mismatch to the acceptable local error;
/// > 1 means the step was too optimistic. Only node voltages participate:
/// trapezoidal companion state makes branch currents jump as dt -> 0
/// (i = 2C/dt*dq - i_prev), so a current-based LTE never converges.
[[nodiscard]] double lte_ratio(const std::vector<double>& x,
                               const std::vector<double>& x_pred,
                               std::size_t voltage_unknowns,
                               const SimOptions& options) {
  double worst = 0.0;
  for (std::size_t i = 0; i < voltage_unknowns; ++i) {
    const double scale = std::max({std::fabs(x[i]), std::fabs(x_pred[i]), 0.05});
    const double tol = options.lte_reltol * scale;
    worst = std::max(worst, std::fabs(x[i] - x_pred[i]) / tol);
  }
  return worst;
}

}  // namespace

void StepControl::start(std::vector<double> x0) {
  x = std::move(x0);
  t = 0.0;
  has_prev = false;
  force_backward_euler = true;  // first step
  voltage_unknowns = circuit.node_count() - 1;
  sample_row_into(circuit, x, row);
  out.time.push_back(0.0);
  out.table.append_row(row);
  dtmax = options.dtmax > 0.0 ? options.dtmax : tstop / 200.0;
  dt = options.dt_initial > 0.0 ? options.dt_initial
                                : std::min(tstop / 1e6, dtmax);
}

StepControl::Head StepControl::begin_step(const util::BudgetTimer& budget) {
  if (!(t < tstop * (1.0 - 1e-12))) return Head::kDone;
  // The budget gate covers every loop path — accepted steps, LTE rejects,
  // and event cuts alike — so an event storm spinning on tiny cut steps
  // still terminates when the wall clock runs out.
  stop = budget.check(out.accepted_steps, out.newton_iterations);
  if (stop != util::BudgetStop::kNone) return Head::kBudgetStop;
  if (out.accepted_steps + out.rejected_steps >= options.max_steps) {
    return Head::kStepLimit;
  }

  // Clamp dt: device caps, global max, remaining span.
  double device_cap = kNeverTime;
  for (const auto& device : circuit.devices()) {
    device_cap = std::min(device_cap, device->max_timestep());
  }
  dt = std::min({dt, device_cap, dtmax, tstop - t});
  dt = std::max(dt, options.dtmin);

  // Land exactly on the next source breakpoint if it falls inside.
  double breakpoint = kNeverTime;
  for (const auto& device : circuit.devices()) {
    breakpoint = std::min(breakpoint, device->next_breakpoint(t));
  }
  if (breakpoint > t && breakpoint < t + dt) {
    dt = std::max(breakpoint - t, options.dtmin);
  }

  const double t_next = t + dt;
  ctx.mode = AnalysisMode::kTransient;
  ctx.method = (force_backward_euler || !options.use_trapezoidal)
                   ? IntegrationMethod::kBackwardEuler
                   : IntegrationMethod::kTrapezoidal;
  ctx.time = t_next;
  ctx.dt = dt;
  ctx.source_scale = 1.0;

  // Linear extrapolation through the last two accepted points (constant
  // when only one is known).
  if (!has_prev || t <= t_prev) {
    x_pred = x;
  } else {
    const double alpha = (t_next - t) / (t - t_prev);
    x_pred.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x_pred[i] = x[i] + alpha * (x[i] - x_prev[i]);
    }
  }
  x_new = x_pred;
  return Head::kSolve;
}

void StepControl::on_solve_converged(int iterations, bool recovered) {
  // A converged plain solve vindicates any outstanding dt shrinks; a
  // ladder recovery means they were not what fixed the step.
  if (!recovered) {
    for (const int attempt : pending_shrinks) mark_succeeded(attempt);
  }
  pending_shrinks.clear();

  // Discrete device events strictly inside the step: cut the step there.
  double event_at = kNeverTime;
  for (const auto& device : circuit.devices()) {
    event_at = std::min(event_at, device->event_time(x_new, t, t + dt));
  }
  const bool event_on_boundary =
      std::isfinite(event_at) &&
      event_at >= t + dt * (1.0 - kEventBoundaryTolerance);
  if (std::isfinite(event_at) && !event_on_boundary) {
    const double cut = event_at - t;
    if (cut >= std::max(options.dtmin, dt * 1e-6)) {
      ++out.rejected_steps;
      dt = cut;
      return;
    }
    // Event essentially at the step start: take a minimal step so the
    // device can commit the flip.
  }

  // Local-error control (not after discontinuities, where the predictor
  // is meaningless, and not when we are already struggling).
  if (!recovered && !force_backward_euler && consecutive_rejects < 15) {
    const double ratio = lte_ratio(x_new, x_pred, voltage_unknowns, options);
    if (ratio > 4.0 && dt > options.dtmin * 4.0) {
      ++out.rejected_steps;
      ++consecutive_rejects;
      dt *= 0.5;
      return;
    }
    // Pre-compute growth for the next step from this ratio.
    if (ratio < 0.25) {
      dt *= options.dt_grow;
    } else if (ratio < 1.0) {
      dt *= 1.15;
    }
  } else if (!recovered) {
    dt *= 1.5;  // recover step size after BE / trouble
  }

  // Accept.
  for (const auto& device : circuit.devices()) {
    device->accept_step(x_new, ctx);
  }
  t_prev = t;
  t = ctx.time;
  x_prev.swap(x);
  x = x_new;
  has_prev = true;
  sample_row_into(circuit, x, row);
  out.time.push_back(t);
  out.table.append_row(row);
  ++out.accepted_steps;
  if (recovered) ++out.recovered_steps;
  consecutive_rejects = 0;
  newton_failures = 0;
  escalated_at_min = false;

  if (event_on_boundary) {
    ++out.event_count;
    has_prev = false;             // old slope is meaningless now
    force_backward_euler = true;  // BE across the discontinuity
  } else {
    // A recovered step converged under backward Euler from a troubled
    // spot: stay on BE for one more step before trusting trapezoidal.
    force_backward_euler = recovered;
  }
  if (iterations > 25) dt *= 0.7;
}

StepControl::Failure StepControl::on_solve_failure(
    const util::BudgetTimer& budget) {
  ++out.rejected_steps;
  ++consecutive_rejects;
  ++newton_failures;
  const bool at_min = dt <= options.dtmin * 1.0001;
  if (options.recovery_escalate_after > 0 &&
      (newton_failures == options.recovery_escalate_after ||
       (at_min && !escalated_at_min))) {
    if (at_min) escalated_at_min = true;
    return Failure::kLadder;
  }
  return resolve_failure(budget);
}

StepControl::Failure StepControl::resolve_failure(
    const util::BudgetTimer& budget) {
  // A ladder defeated by the budget (its solves stop converging once the
  // timer trips) must truncate, not give up at the minimum timestep.
  stop = budget.check_now();
  if (stop != util::BudgetStop::kNone) return Failure::kTruncate;
  if (dt <= options.dtmin * 1.0001) return Failure::kAtMin;
  pending_shrinks.push_back(note_attempt("dt_shrink"));
  dt *= options.dt_shrink;
  force_backward_euler = true;  // robustness after trouble
  return Failure::kRetry;
}

int StepControl::note_attempt(const char* strategy) {
  SolverDiagnostics& diag = out.diagnostics;
  const std::size_t before = diag.attempts.size();
  diag.record_attempt({strategy, false,
                       "t=" + util::format_si(t, 4, "s") +
                           " dt=" + util::format_si(dt, 3, "s")});
  return diag.attempts.size() > before ? static_cast<int>(before) : -1;
}

void StepControl::mark_succeeded(int attempt) {
  if (attempt >= 0) {
    out.diagnostics.attempts[static_cast<std::size_t>(attempt)].succeeded =
        true;
  }
}

}  // namespace softfet::sim::detail
