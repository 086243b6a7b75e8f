// Adaptive-timestep transient analysis: the one-lane drive of the lane's
// transient entry (detail::TransientLane, step_control.hpp).
//
// The lane holds the whole method — backward Euler on the first step and
// after discrete device events, trapezoidal otherwise; a linear-
// extrapolation predictor that doubles as the Newton initial guess and the
// local-truncation-error estimate; source breakpoints landed exactly; steps
// cut at device event times; and the recovery ladder on Newton failure.
// run_transient runs the operating point (the same lane's OP entry), then
// drives the lane over one LinearSolver (dense, sparse or Krylov, per
// SimOptions), and maps how the lane ended to a result: complete, truncated
// by the run budget (the partial waveform kept), or a ConvergenceError
// carrying the failing node, device and iteration trace.
#include "sim/analyses.hpp"
#include "sim/detail.hpp"
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
  detail::TransientLane lane(circuit, options, tstop, out, budget_timer);
  lane.start(std::move(x0));

  // One solver for the whole transient: the MNA pattern is fixed, so every
  // step after the first reuses the symbolic analysis and pivot order.
  numeric::LinearSolver solver(options.solver_config());
  detail::drive(lane, solver);

  using State = detail::TransientLane::State;
  if (lane.state() == State::kDone) {
    detail::fill_solver_stats(out.diagnostics, solver);
    return out;
  }
  SolverDiagnostics diagnostics = lane.failure_diagnostics();
  detail::fill_solver_stats(diagnostics, solver);
  if (lane.state() != State::kTruncated) {
    throw ConvergenceError("transient", std::move(diagnostics));
  }
  out.diagnostics = std::move(diagnostics);
  out.truncated = true;
  out.stop_reason = lane.stop;
  return out;
}

}  // namespace softfet::sim
