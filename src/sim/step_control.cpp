#include "sim/step_control.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/detail.hpp"
#include "sim/mna_system.hpp"
#include "util/units.hpp"

namespace softfet::sim::detail {

namespace {

constexpr double kEventBoundaryTolerance = 1e-9;  // relative to dt

/// Divisor of the residual column in the iteration trace, as solve_newton.
const double kTraceResidualScale =
    std::max(1.0, numeric::NewtonOptions{}.residual_tol_scale);

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

void TransientLane::start(std::vector<double> x0) {
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
  jacobian.reset(x.size());
  residual.assign(x.size(), 0.0);
  dx.assign(x.size(), 0.0);
  begin_step();
}

void TransientLane::begin_step() {
  main.iterations = 0;
  main.failure = numeric::NewtonFailure::kNone;
  main.worst_unknown = numeric::kNoUnknown;
  main.worst_residual = 0.0;
  main.trace.clear();  // keeps its capacity for the next solve
  if (!(t < tstop * (1.0 - 1e-12))) {
    state_ = State::kDone;
    return;
  }
  // The budget gate covers every loop path — accepted steps, LTE rejects,
  // and event cuts alike — so an event storm spinning on tiny cut steps
  // still terminates when the wall clock runs out.
  stop = budget.check(out.accepted_steps, out.newton_iterations);
  if (stop != util::BudgetStop::kNone) {
    state_ = State::kTruncated;
    return;
  }
  if (out.accepted_steps + out.rejected_steps >= options.max_steps) {
    state_ = State::kStepLimit;
    return;
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
  iterations = 0;
}

bool TransientLane::begin_iteration() {
  while (state_ == State::kSolving) {
    if (iterations >= options.newton_max_iter) {
      solve_failed(numeric::kNoUnknown, numeric::NewtonFailure::kMaxIterations);
      continue;
    }
    // A budget trip cuts a main solve short and truncates the run; inside
    // a ladder rung it only fails that rung's solve.
    if (const util::BudgetStop now = budget.check_now();
        now != util::BudgetStop::kNone) {
      if (rung == Rung::kMain) {
        main.failure = numeric::NewtonFailure::kBudgetExhausted;
        stop = now;
        state_ = State::kTruncated;
        return false;
      }
      fail(numeric::NewtonFailure::kBudgetExhausted, numeric::kNoUnknown, 0.0);
      continue;
    }
    ++iterations;
    ++out.newton_iterations;
    if (rung == Rung::kMain) main.iterations = iterations;
    jacobian.begin_load();
    std::fill(residual.begin(), residual.end(), 0.0);
    return true;
  }
  return false;
}

void TransientLane::load_devices() {
  for (const auto& device : circuit.devices()) {
    device->load(x_new, stamper, ctx);
  }
}

bool TransientLane::end_load() {
  stamp_gmin_shunts(stamper, x_new, voltage_unknowns, gmin);
  return jacobian.end_load();
}

bool TransientLane::residual_finite() {
  const std::size_t bad = numeric::first_non_finite(residual);
  if (bad == numeric::kNoUnknown) return true;
  fail(numeric::NewtonFailure::kNonFiniteResidual, bad, residual[bad]);
  return false;
}

void TransientLane::update() {
  if (const std::size_t bad = numeric::first_non_finite(dx);
      bad != numeric::kNoUnknown) {
    fail(numeric::NewtonFailure::kNonFiniteUpdate, bad,
         std::fabs(residual[bad]));
    return;
  }
  const bool dx_converged = numeric::apply_newton_update(
      x_new, dx, options.reltol, MnaScales{&options, voltage_unknowns});
  if (rung == Rung::kMain) {
    // Division by a positive constant is monotone, so scaling the largest
    // |F| equals solve_newton's largest scaled |F| bit for bit.
    double max_dx = 0.0;
    double max_residual = 0.0;
    for (std::size_t i = 0; i < dx.size(); ++i) {
      max_dx = std::max(max_dx, std::fabs(dx[i]));
      max_residual = std::max(max_residual, std::fabs(residual[i]));
    }
    main.trace.push_back({max_dx, max_residual / kTraceResidualScale});
  }
  if (dx_converged) converged();
}

void TransientLane::solve_failed(std::size_t column,
                                 numeric::NewtonFailure failure) {
  // Worst relative to each unknown's own tolerance: voltage and current
  // rows differ by many orders of magnitude in absolute terms.
  std::size_t worst = column;
  if (worst >= residual.size()) {
    const MnaScales scales{&options, voltage_unknowns};
    double worst_scaled = 0.0;
    for (std::size_t i = 0; i < residual.size(); ++i) {
      const double scaled = std::fabs(residual[i]) / scales.abstol(i);
      if (i == 0 || scaled > worst_scaled) {
        worst = i;
        worst_scaled = scaled;
      }
    }
  }
  fail(failure, worst,
       worst < residual.size() ? std::fabs(residual[worst]) : 0.0);
}

void TransientLane::fail(numeric::NewtonFailure failure, std::size_t unknown,
                         double worst_residual) {
  if (rung != Rung::kMain) {
    end_rung(false);
    return;
  }
  main.failure = failure;
  main.worst_unknown = unknown;
  main.worst_residual = worst_residual;
  ++out.rejected_steps;
  ++consecutive_rejects;
  ++newton_failures;
  const bool at_min = dt <= options.dtmin * 1.0001;
  if (options.recovery_escalate_after > 0 &&
      (newton_failures == options.recovery_escalate_after ||
       (at_min && !escalated_at_min))) {
    if (at_min) escalated_at_min = true;
    start_rung(Rung::kPredictorReset);
    return;
  }
  shrink_or_stop();
}

void TransientLane::shrink_or_stop() {
  // A ladder defeated by the budget (its solves stop converging once the
  // timer trips) must truncate, not give up at the minimum timestep.
  stop = budget.check_now();
  if (stop != util::BudgetStop::kNone) {
    state_ = State::kTruncated;
    return;
  }
  if (dt <= options.dtmin * 1.0001) {
    state_ = State::kFailedAtMin;
    return;
  }
  pending_shrinks.push_back(note_attempt("dt_shrink"));
  dt *= options.dt_shrink;
  force_backward_euler = true;  // robustness after trouble
  begin_step();
}

// Escalated recovery: backward-Euler solves at the current dt, each rung
// restarting from the last accepted state instead of the (possibly wild)
// extrapolated predictor.
void TransientLane::start_rung(Rung next) {
  static constexpr const char* kNames[] = {"", "predictor_reset", "gmin_ramp",
                                           "source_ramp"};
  rung = next;
  rung_attempt = note_attempt(kNames[static_cast<int>(next)]);
  x_new = x;
  if (next == Rung::kGminRamp) {
    // Solve under a strong node-to-ground shunt, then walk it back down in
    // decades to the configured floor.
    gmin = std::max(options.recovery_gmin_start, options.gmin);
  } else if (next == Rung::kSourceRamp) {
    // Continuation from weak drive back up to the full sources at this
    // timepoint.
    source_step = 1;
    ctx.source_scale = 1.0 / std::max(options.recovery_source_steps, 1);
  }
  ctx.method = IntegrationMethod::kBackwardEuler;
  iterations = 0;
}

void TransientLane::converged() {
  if (rung == Rung::kMain) {
    accept_or_cut(main.iterations, false);
    begin_step();
    return;
  }
  const int source_steps = std::max(options.recovery_source_steps, 1);
  if (rung == Rung::kGminRamp && gmin > options.gmin) {
    gmin = std::max(gmin * 0.1, options.gmin);
  } else if (rung == Rung::kSourceRamp && source_step < source_steps) {
    ++source_step;
    ctx.source_scale = static_cast<double>(source_step) / source_steps;
  } else {
    end_rung(true);
    return;
  }
  iterations = 0;  // the rung's next solve continues from this iterate
}

void TransientLane::end_rung(bool ok) {
  const Rung ended = rung;
  gmin = options.gmin;
  ctx.source_scale = 1.0;
  if (ok) {
    mark_succeeded(rung_attempt);
    rung = Rung::kMain;
    // Reported with the failed main solve's iteration count.
    accept_or_cut(main.iterations, true);
    begin_step();
  } else if (ended != Rung::kSourceRamp) {
    start_rung(static_cast<Rung>(static_cast<int>(ended) + 1));
  } else {
    rung = Rung::kMain;
    shrink_or_stop();
  }
}

void TransientLane::accept_or_cut(int solve_iterations, bool recovered) {
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
  if (solve_iterations > 25) dt *= 0.7;
}

std::string TransientLane::failure() const {
  if (state_ == State::kTruncated) {
    return std::string("run budget: ") + util::to_string(stop);
  }
  if (state_ == State::kStepLimit) return "step budget exhausted";
  return std::string("Newton failed at minimum timestep (") +
         numeric::to_string(main.failure) + ")";
}

SolverDiagnostics TransientLane::failure_diagnostics() {
  SolverDiagnostics d = out.diagnostics;
  d.failure = failure();
  d.time = t;
  d.last_dt = dt;
  d.iterations = main.iterations;
  d.total_iterations = static_cast<int>(out.newton_iterations);
  d.worst_residual = main.worst_residual;
  d.iteration_trace = main.trace;
  if (main.worst_unknown != numeric::kNoUnknown) {
    const MnaSystem system(circuit, options, ctx);
    d.worst_node = system.unknown_label(main.worst_unknown);
    d.worst_device = system.blame_device(
        state_ == State::kFailedAtMin ? x_new : x, main.worst_unknown);
  }
  return d;
}

int TransientLane::note_attempt(const char* strategy) {
  SolverDiagnostics& diag = out.diagnostics;
  const std::size_t before = diag.attempts.size();
  diag.record_attempt({strategy, false,
                       "t=" + util::format_si(t, 4, "s") +
                           " dt=" + util::format_si(dt, 3, "s")});
  return diag.attempts.size() > before ? static_cast<int>(before) : -1;
}

void TransientLane::mark_succeeded(int attempt) {
  if (attempt >= 0) {
    out.diagnostics.attempts[static_cast<std::size_t>(attempt)].succeeded =
        true;
  }
}

}  // namespace softfet::sim::detail
