#include "sim/step_control.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/detail.hpp"
#include "sim/mna_system.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace softfet::sim::detail {

namespace {

constexpr double kEventBoundaryTolerance = 1e-9;  // relative to dt

/// Smallest step before a failing solve gives up [s].
constexpr double kDtMin = 1e-18;
/// Local-error target relative to the signal swing.
constexpr double kLteReltol = 5e-3;
/// Accepted steps after which a transient stops as out of budget. Only
/// accepted steps count: between two of them every rejection shrinks dt
/// toward kDtMin (LTE halves it and runs at most 15 times in a row, a
/// Newton failure quarters it, an event cut lands strictly inside the
/// step), and at kDtMin the LTE and event cuts accept while a failing
/// solve ends the lane.
constexpr std::size_t kMaxSteps = 20'000'000;
/// Starting shunt of the transient gmin-ramp rung [S].
constexpr double kRecoveryGminStart = 1e-3;
/// Continuation points of the transient source-ramp rung.
constexpr int kRecoverySourceSteps = 4;
/// Source-stepping points of the operating point's last rung.
constexpr int kSourceSteps = 20;

/// Divisor of the residual column in the iteration trace.
constexpr double kTraceResidualScale = 1e3;

/// Ratio of predictor-corrector mismatch to the acceptable local error;
/// > 1 means the step was too optimistic. Only node voltages participate:
/// trapezoidal companion state makes branch currents jump as dt -> 0
/// (i = 2C/dt*dq - i_prev), so a current-based LTE never converges.
[[nodiscard]] double lte_ratio(const std::vector<double>& x,
                               const std::vector<double>& x_pred,
                               std::size_t voltage_unknowns) {
  double worst = 0.0;
  for (std::size_t i = 0; i < voltage_unknowns; ++i) {
    const double scale = std::max({std::fabs(x[i]), std::fabs(x_pred[i]), 0.05});
    const double tol = kLteReltol * scale;
    worst = std::max(worst, std::fabs(x[i] - x_pred[i]) / tol);
  }
  return worst;
}

}  // namespace

void TransientLane::start(std::vector<double> x0) {
  // The transient ladder: predictor reset, then a gmin ramp from
  // kRecoveryGminStart down by decades, then a per-step source ramp.
  open({.timed = true,
        .escalate_after = options.recovery_escalate_after,
        .first_rung = Rung::kPredictorReset,
        .names = {nullptr, "predictor_reset", "gmin_ramp", "source_ramp"},
        .failed = "Newton failed at minimum timestep (",
        .gmin_start = std::max(kRecoveryGminStart, kGmin),
        .gmin_factor = 0.1,
        .gmin_stop = kGmin,
        .source_steps = kRecoverySourceSteps},
       std::move(x0));
  sample_row_into(circuit, x, row);
  out.time.push_back(0.0);
  out.table.append_row(row);
  dtmax = options.dtmax > 0.0 ? options.dtmax : tstop / 200.0;
  dt = std::min(tstop / 1e6, dtmax);
  begin_step();
}

void TransientLane::start_op(std::vector<double> guess) {
  // The operating point's homotopy: direct Newton, then gmin stepping from
  // 1e-2 down by decades, then source stepping from a zero guess. Every
  // main-solve failure escalates: there is no dt to shrink (a fresh lane's
  // dt and ctx are the DC ones: dt = 0, kDcOp, full sources).
  open({.timed = false,
        .escalate_after = 1,
        .first_rung = Rung::kGminRamp,
        .names = {"direct_newton", nullptr, "gmin_stepping", "source_stepping"},
        .failed = "all homotopies failed (last: ",
        .gmin_start = 1e-2,
        .gmin_divisor = 10.0,
        .gmin_stop = kGmin * 1.001,
        .source_steps = kSourceSteps,
        .source_from_zero = true},
       std::move(guess));
  x_new = x;
  begin_solve();
}

void TransientLane::open(const Ladder& entry, std::vector<double> x0) {
  ladder = entry;
  x = std::move(x0);
  voltage_unknowns = circuit.node_count() - 1;
  jacobian.reset(x.size());
  residual.assign(x.size(), 0.0);
  dx.assign(x.size(), 0.0);
}

void TransientLane::begin_solve() {
  iterations = 0;
  if (!reports()) return;
  record.iterations = 0;
  record.failure = numeric::NewtonFailure::kNone;
  record.worst_unknown = numeric::kNoUnknown;
  record.worst_residual = 0.0;
  record.trace.clear();  // keeps its capacity for the next solve
}

void TransientLane::begin_step() {
  begin_solve();
  if (!(t < tstop * (1.0 - 1e-12))) {
    state_ = State::kDone;
    return;
  }
  // The budget gate covers every loop path — accepted steps, LTE rejects,
  // and event cuts alike — so an event storm spinning on tiny cut steps
  // still terminates when the wall clock runs out. The constant step cap
  // is one more accepted-step budget.
  stop = budget.check(out.accepted_steps, out.newton_iterations);
  if (stop == util::BudgetStop::kNone && out.accepted_steps >= kMaxSteps) {
    stop = util::BudgetStop::kAcceptedSteps;
  }
  if (stop != util::BudgetStop::kNone) {
    state_ = State::kTruncated;
    return;
  }

  // Clamp dt: device caps, global max, remaining span.
  double device_cap = kNeverTime;
  for (const auto& device : circuit.devices()) {
    device_cap = std::min(device_cap, device->max_timestep());
  }
  dt = std::min({dt, device_cap, dtmax, tstop - t});
  dt = std::max(dt, kDtMin);

  // Land exactly on the next source breakpoint if it falls inside.
  double breakpoint = kNeverTime;
  for (const auto& device : circuit.devices()) {
    breakpoint = std::min(breakpoint, device->next_breakpoint(t));
  }
  if (breakpoint > t && breakpoint < t + dt) {
    dt = std::max(breakpoint - t, kDtMin);
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
}

bool TransientLane::begin_iteration() {
  while (state_ == State::kSolving) {
    if (iterations >= options.newton_max_iter) {
      solve_failed(numeric::kNoUnknown, numeric::NewtonFailure::kMaxIterations);
      continue;
    }
    // A budget trip cuts the solve short, rung or not, and truncates.
    stop = budget.check_now();
    if (stop != util::BudgetStop::kNone) {
      leave_rung();
      state_ = State::kTruncated;
      return false;
    }
    ++iterations;
    ++out.newton_iterations;
    if (reports()) record.iterations = iterations;
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
  if (reports()) {
    // Division by a positive constant is monotone, so scaling the largest
    // |F| equals the largest scaled |F| bit for bit.
    double max_dx = 0.0;
    double max_residual = 0.0;
    for (std::size_t i = 0; i < dx.size(); ++i) {
      max_dx = std::max(max_dx, std::fabs(dx[i]));
      max_residual = std::max(max_residual, std::fabs(residual[i]));
    }
    record.trace.push_back({max_dx, max_residual / kTraceResidualScale});
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
  if (reports()) {
    record.failure = failure;
    record.worst_unknown = unknown;
    record.worst_residual = worst_residual;
  }
  if (rung != Rung::kMain) {
    end_rung(false);
    return;
  }
  if (const char* name = ladder.names[0]) {
    out.diagnostics.record_attempt({name, false, numeric::to_string(failure)});
  }
  ++out.rejected_steps;
  ++consecutive_rejects;
  ++newton_failures;
  const bool at_min = dt <= kDtMin * 1.0001;
  if (ladder.escalate_after > 0 &&
      (newton_failures == ladder.escalate_after ||
       (at_min && !escalated_at_min))) {
    if (at_min) escalated_at_min = true;
    start_rung(ladder.first_rung);
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
  if (dt <= kDtMin * 1.0001) {
    state_ = State::kFailed;
    return;
  }
  pending_shrinks.push_back(note_attempt("dt_shrink"));
  dt *= options.dt_shrink;
  force_backward_euler = true;  // robustness after trouble
  begin_step();
}

// Escalated recovery: backward-Euler solves at the current dt, each rung
// restarting from the last accepted state (a transient's, instead of the
// possibly wild extrapolated predictor; an operating point's warm start).
void TransientLane::start_rung(Rung next) {
  rung = next;
  x_new = x;
  if (next == Rung::kGminRamp) {
    // Solve under a strong node-to-ground shunt, then walk it back down in
    // decades to the configured floor.
    gmin = ladder.gmin_start;
  } else if (next == Rung::kSourceRamp) {
    // Continuation from weak drive up to the full sources.
    if (ladder.source_from_zero) x_new.assign(x.size(), 0.0);
    source_step = 1;
    ctx.source_scale = 1.0 / ladder.source_steps;
  }
  ctx.method = IntegrationMethod::kBackwardEuler;
  begin_solve();
}

void TransientLane::converged() {
  if (rung == Rung::kMain) {
    finish_solve(false);
    return;
  }
  if (rung == Rung::kGminRamp && !(gmin <= ladder.gmin_stop)) {
    gmin = std::max(gmin * ladder.gmin_factor / ladder.gmin_divisor, kGmin);
  } else if (rung == Rung::kSourceRamp && source_step < ladder.source_steps) {
    ++source_step;
    ctx.source_scale = static_cast<double>(source_step) / ladder.source_steps;
  } else {
    end_rung(true);
    return;
  }
  begin_solve();  // the rung's next solve continues from this iterate
}

void TransientLane::finish_solve(bool recovered) {
  if (!ladder.timed) {
    state_ = State::kDone;
    return;
  }
  // A recovered step reports the failed main solve's iteration count.
  accept_or_cut(record.iterations, recovered);
  begin_step();
}

void TransientLane::end_rung(bool ok) {
  const Rung ended = rung;
  if (const char* name = ladder.names[static_cast<int>(ended)]) {
    out.diagnostics.record_attempt(
        {name, ok,
         ladder.timed ? step_detail()
         : ok         ? ""
                      : numeric::to_string(record.failure)});
  }
  leave_rung();
  if (ok) {
    finish_solve(true);
  } else if (ended != Rung::kSourceRamp) {
    start_rung(static_cast<Rung>(static_cast<int>(ended) + 1));
  } else {
    shrink_or_stop();
  }
}

void TransientLane::leave_rung() {
  rung = Rung::kMain;
  gmin = kGmin;
  ctx.source_scale = 1.0;
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
    if (cut >= std::max(kDtMin, dt * 1e-6)) {
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
    const double ratio = lte_ratio(x_new, x_pred, voltage_unknowns);
    if (ratio > 4.0 && dt > kDtMin * 4.0) {
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
  return ladder.failed + std::string(numeric::to_string(record.failure)) +
         ")";
}

SolverDiagnostics TransientLane::failure_diagnostics() {
  SolverDiagnostics d = out.diagnostics;
  d.failure = failure();
  d.time = t;
  d.last_dt = dt;
  d.iterations = record.iterations;
  d.total_iterations = static_cast<int>(out.newton_iterations);
  d.worst_residual = record.worst_residual;
  d.iteration_trace = record.trace;
  if (record.worst_unknown != numeric::kNoUnknown) {
    d.worst_node = circuit.unknown_labels()[record.worst_unknown];
    d.worst_device = MnaSystem(circuit, options, ctx).blame_device(
        state_ == State::kFailed ? x_new : x, record.worst_unknown);
  }
  return d;
}

std::string TransientLane::step_detail() const {
  return "t=" + util::format_si(t, 4, "s") +
         " dt=" + util::format_si(dt, 3, "s");
}

int TransientLane::note_attempt(const char* strategy) {
  SolverDiagnostics& diag = out.diagnostics;
  const std::size_t before = diag.attempts.size();
  diag.record_attempt({strategy, false, step_detail()});
  return diag.attempts.size() > before ? static_cast<int>(before) : -1;
}

void TransientLane::mark_succeeded(int attempt) {
  if (attempt >= 0) {
    out.diagnostics.attempts[static_cast<std::size_t>(attempt)].succeeded =
        true;
  }
}

void drive(TransientLane& lane, numeric::LinearSolver& solver) {
  std::vector<double> rhs(lane.residual.size());
  while (lane.begin_iteration()) {
    lane.load_devices();
    (void)lane.end_load();  // a departed load still sums exactly
    if (!lane.residual_finite()) continue;
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = -lane.residual[i];
    try {
      lane.dx = solver.solve(lane.jacobian, rhs);
    } catch (const SingularMatrixError& e) {
      lane.solve_failed(e.column());
      continue;
    } catch (const ConvergenceError&) {
      lane.solve_failed();
      continue;
    }
    lane.update();
  }
}

}  // namespace softfet::sim::detail
