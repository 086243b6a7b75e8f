// Adaptive-timestep transient analysis: the scalar engine.
//
// Strategy (the per-step decisions live in detail::StepControl, shared with
// the batched lockstep engine — see step_control.hpp):
//  - start from the DC operating point;
//  - backward Euler on the first step and immediately after discrete device
//    events (PTM phase flips), trapezoidal otherwise;
//  - linear-extrapolation predictor doubles as the Newton initial guess and
//    the local-truncation-error estimate;
//  - source corner times (PWL/pulse edges) are honoured exactly as
//    breakpoints;
//  - devices may cut a candidate step at an internal event time (PTM
//    threshold crossings) so state flips land on step boundaries.
//
// What this engine keeps for itself: each solve is a full solve_newton over
// one LinearSolver, and failures are handled here — on Newton failure a
// recovery ladder escalates instead of aborting (dt shrink with forced
// backward Euler is StepControl's cheap, common rung; after repeated
// failures or at the minimum timestep this engine resets the predictor to
// the last accepted state, ramps a transient gmin, and ramps the sources per
// step; every attempt is recorded in the result diagnostics), a tripped run
// budget truncates the result, and a step that cannot be solved throws
// ConvergenceError with the failing node, device and iteration trace.
#include <algorithm>

#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "sim/mna_system.hpp"
#include "sim/step_control.hpp"
#include "util/error.hpp"

namespace softfet::sim {

TranResult run_transient(Circuit& circuit, double tstop,
                         const SimOptions& options) {
  if (!(tstop > 0.0)) throw Error("run_transient: tstop must be positive");
  circuit.prepare();

  // Arm the run budget before the operating point so its wall clock counts
  // against the transient too (the OP additionally arms its own timer from
  // the same spec for the checks inside its homotopy ladder).
  const util::BudgetTimer budget_timer(options.budget);

  TranResult out;
  out.diagnostics.analysis = "transient";
  out.diagnostics.determinism = to_string(options.determinism);
  out.table = SignalTable(detail::signal_names(circuit));

  // Operating point at t = 0 (also initializes device state).
  std::vector<double> x0;
  try {
    x0 = dc_operating_point(circuit, options).x;
  } catch (const BudgetExceededError& e) {
    // Budget spent before a single timepoint existed: a truncated result
    // with an empty waveform, not a failure throw — the caller's contract
    // for budget stops is uniform.
    out.truncated = true;
    out.stop_reason = e.stop();
    out.diagnostics.failure = e.what();
    return out;
  }
  detail::StepControl step(circuit, options, tstop, out);
  step.start(std::move(x0));
  LoadContext& ctx = step.ctx;

  MnaSystem system(circuit, options, ctx);
  // One solver for the whole transient: the MNA pattern is fixed, so every
  // step after the first reuses the symbolic analysis and pivot order.
  numeric::LinearSolver solver(options.solver_config());
  numeric::NewtonOptions nopt = detail::newton_options(options);
  nopt.solver_instance = &solver;
  nopt.budget = &budget_timer;

  // Failure context for a thrown ConvergenceError: the accumulated attempt
  // log plus the last failed solve's worst node/device and iteration trace.
  const auto failure_diagnostics = [&](const numeric::NewtonResult& last,
                                       const std::vector<double>& x_at_failure,
                                       std::string why) {
    SolverDiagnostics d = out.diagnostics;
    d.failure = std::move(why);
    d.time = step.t;
    d.last_dt = step.dt;
    d.iterations = last.iterations;
    d.total_iterations = static_cast<int>(out.newton_iterations);
    d.worst_residual = last.worst_residual;
    d.iteration_trace = last.trace;
    if (last.worst_unknown != numeric::kNoUnknown) {
      d.worst_node = system.unknown_label(last.worst_unknown);
      d.worst_device = system.blame_device(x_at_failure, last.worst_unknown);
    }
    detail::fill_solver_stats(d, solver);
    return d;
  };

  // One backward-Euler corrector solve for the (t, dt) window begin_step
  // set up.
  const auto solve_once = [&](std::vector<double>& trial) {
    ctx.method = IntegrationMethod::kBackwardEuler;
    const auto r = numeric::solve_newton(system, trial, nopt);
    out.newton_iterations += static_cast<std::size_t>(r.iterations);
    return r;
  };

  // Escalated recovery: backward-Euler solves at the current dt, each rung
  // restarting from the last accepted state instead of the (possibly wild)
  // extrapolated predictor. On success `x_rec` holds the solution.
  const auto try_ladder = [&](std::vector<double>& x_rec) {
    const auto converges = [&] { return solve_once(x_rec).converged; };
    const auto rung = [&](const char* strategy, const auto& solves) {
      const int attempt = step.note_attempt(strategy);
      x_rec = step.x;
      const bool ok = solves();
      if (ok) step.mark_succeeded(attempt);
      return ok;
    };
    // Rung 1: predictor reset — just the restart.
    if (rung("predictor_reset", converges)) return true;
    // Rung 2: transient gmin ramp — solve under a strong node-to-ground
    // shunt, then walk it back down in decades to the configured floor.
    const bool gmin_ok = rung("gmin_ramp", [&] {
      bool ok = true;
      for (double g = std::max(options.recovery_gmin_start, options.gmin);
           ok; g = std::max(g * 0.1, options.gmin)) {
        system.set_gmin(g);
        ok = converges();
        if (g <= options.gmin) break;
      }
      system.set_gmin(options.gmin);
      return ok;
    });
    if (gmin_ok) return true;
    // Rung 3: per-step source ramp — continuation from weak drive back up
    // to the full sources at this timepoint.
    const bool source_ok = rung("source_ramp", [&] {
      bool ok = true;
      const int steps = std::max(options.recovery_source_steps, 1);
      for (int k = 1; k <= steps && ok; ++k) {
        ctx.source_scale = static_cast<double>(k) / steps;
        ok = converges();
      }
      return ok;
    });
    ctx.source_scale = 1.0;
    return source_ok;
  };

  // Flag the result truncated with full failure context; the partial
  // waveform accepted so far stays in `out`.
  const auto mark_truncated = [&](util::BudgetStop stop,
                                  const numeric::NewtonResult& last) {
    out.diagnostics = failure_diagnostics(
        last, step.x, std::string("run budget: ") + util::to_string(stop));
    out.truncated = true;
    out.stop_reason = stop;
  };

  using Head = detail::StepControl::Head;
  using Failure = detail::StepControl::Failure;
  while (true) {
    const Head head = step.begin_step(budget_timer);
    if (head == Head::kDone) break;
    if (head == Head::kBudgetStop) {
      mark_truncated(step.stop, numeric::NewtonResult{});
      return out;
    }
    if (head == Head::kStepLimit) {
      throw ConvergenceError(
          "transient", failure_diagnostics(numeric::NewtonResult{}, step.x,
                                           "step budget exhausted"));
    }

    const auto newton = numeric::solve_newton(system, step.x_new, nopt);
    out.newton_iterations += static_cast<std::size_t>(newton.iterations);
    if (newton.failure == numeric::NewtonFailure::kBudgetExhausted) {
      // Not a numerical reject: the solve was cut short by the budget.
      util::BudgetStop stop = budget_timer.check_now();
      if (stop == util::BudgetStop::kNone) stop = util::BudgetStop::kWallClock;
      mark_truncated(stop, newton);
      return out;
    }

    bool recovered = false;
    if (!newton.converged) {
      auto action = step.on_solve_failure(budget_timer);
      if (action == Failure::kLadder) {
        recovered = try_ladder(step.x_new);
        if (!recovered) action = step.resolve_failure(budget_timer);
      }
      if (!recovered) {
        if (action == Failure::kTruncate) {
          mark_truncated(step.stop, newton);
          return out;
        }
        if (action == Failure::kAtMin) {
          throw ConvergenceError(
              "transient",
              failure_diagnostics(
                  newton, step.x_new,
                  std::string("Newton failed at minimum timestep (") +
                      numeric::to_string(newton.failure) + ")"));
        }
        continue;  // dt shrunk: retry the step
      }
    }
    step.on_solve_converged(newton.iterations, recovered);
  }
  detail::fill_solver_stats(out.diagnostics, solver);
  return out;
}

}  // namespace softfet::sim
