// One transient run as a lane: the adaptive step control plus the Newton
// iteration of the solve in flight, advanced one iteration per call. This is
// the only transient engine. run_transient drives one lane over a
// LinearSolver; run_transient_batch drives K lanes through one BatchDenseLu
// per round. Either engine runs, per iteration:
//
//   begin_iteration   iteration head; false once the run has ended;
//   (device loads)    load_devices(), or the batch's device-major pass;
//   end_load          gmin shunts; false when the stamp pattern departed;
//   residual_finite   false: the solve failed and the lane moved on;
//   (solve)           J·dx = -F into dx;
//   update            Newton update, then converge or fail; or
//   solve_failed      the factorization failed.
//
// The lane decides everything after a solve: event cut, LTE reject or
// accept on convergence; on failure a dt shrink with forced backward Euler,
// or after `recovery_escalate_after` consecutive failures (and once more at
// the minimum dt) the recovery ladder — predictor reset, transient gmin
// ramp, per-step source ramp — whose rungs are backward-Euler solves this
// lane iterates like any other. Every attempt is logged in the result. A
// run ends done, truncated by the budget, out of steps, or failed at the
// minimum dt; the engine maps that end state to its outcome. Both engines
// run exactly this code, so a batch lane that finishes is bitwise identical
// to the scalar run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "numeric/newton.hpp"
#include "numeric/sparse_matrix.hpp"
#include "sim/circuit.hpp"
#include "sim/device.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"
#include "sim/stamper.hpp"
#include "util/budget.hpp"

namespace softfet::sim::detail {

struct TransientLane {
  enum class State { kSolving, kDone, kTruncated, kStepLimit, kFailedAtMin };

  /// `result` receives the waveform, the counters and the attempt log;
  /// `budget` is checked at every step and iteration head.
  TransientLane(Circuit& c, const SimOptions& o, double stop_time,
                TranResult& result, const util::BudgetTimer& budget_timer)
      : circuit(c),
        options(o),
        tstop(stop_time),
        out(result),
        budget(budget_timer),
        gmin(o.gmin) {}

  /// Start at t = 0 from the operating point `x0` (circuit prepared):
  /// sample the first row, set the initial dt and open the first step.
  void start(std::vector<double> x0);

  /// Iteration head: fail a solve out of iterations, apply the budget, and
  /// open the load of the next iteration. False once the run has ended.
  [[nodiscard]] bool begin_iteration();
  /// Every device's load at the iterate, in circuit order.
  void load_devices();
  /// Stamp the gmin shunts and close the load. False when the load left
  /// the recorded stamp pattern (the sums stay exact either way).
  [[nodiscard]] bool end_load();
  /// False when the residual is non-finite: that solve failed.
  [[nodiscard]] bool residual_finite();
  /// Apply the solved dx: converge, fail, or go on iterating.
  void update();
  /// The solve failed without a usable dx (by default: the factorization
  /// failed). Blames `column` when known, else the worst scaled residual.
  void solve_failed(std::size_t column = numeric::kNoUnknown,
                    numeric::NewtonFailure failure =
                        numeric::NewtonFailure::kSingularMatrix);

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Why an ended run did not finish, e.g. "step budget exhausted".
  [[nodiscard]] std::string failure() const;
  /// Diagnostics of an ended run that did not finish: failure(), the
  /// attempt log, the step's main solve (iterations, trace, worst unknown)
  /// and the device blamed at the last iterate (failed) or the accepted
  /// state (stopped).
  [[nodiscard]] SolverDiagnostics failure_diagnostics();

  Circuit& circuit;
  const SimOptions& options;
  const double tstop;
  TranResult& out;
  const util::BudgetTimer& budget;

  LoadContext ctx;            ///< load context of the solve in flight
  std::vector<double> x_new;  ///< iterate of the solve in flight
  numeric::SparseMatrix jacobian;
  std::vector<double> residual;
  std::vector<double> dx;  ///< the engine solves into this
  Stamper stamper{jacobian, residual};
  util::BudgetStop stop = util::BudgetStop::kNone;  ///< why it truncated

 private:
  enum class Rung { kMain, kPredictorReset, kGminRamp, kSourceRamp };

  void begin_step();
  void fail(numeric::NewtonFailure failure, std::size_t unknown,
            double worst_residual);
  void converged();
  void start_rung(Rung next);
  void end_rung(bool ok);
  void shrink_or_stop();
  void accept_or_cut(int solve_iterations, bool recovered);
  int note_attempt(const char* strategy);
  void mark_succeeded(int attempt);

  State state_ = State::kSolving;
  double t = 0.0;
  double dt = 0.0;
  double dtmax = 0.0;
  std::vector<double> x;       ///< last accepted solution (at t)
  std::vector<double> x_pred;  ///< predictor of the step in flight
  std::vector<double> x_prev;  ///< accepted solution before x (at t_prev)
  double t_prev = 0.0;
  bool has_prev = false;  ///< false after start and events: constant predictor
  bool force_backward_euler = true;
  int consecutive_rejects = 0;
  int newton_failures = 0;        ///< consecutive, reset on acceptance
  bool escalated_at_min = false;  ///< ladder runs at most twice per step
  std::size_t voltage_unknowns = 0;
  /// dt_shrink attempts marked succeeded once a plain solve converges.
  std::vector<int> pending_shrinks;
  std::vector<double> row;  ///< sample-row buffer

  int iterations = 0;          ///< of the solve in flight
  numeric::NewtonResult main;  ///< the step's main solve, kept for reports
  double gmin;                 ///< shunt conductance of the solve in flight
  Rung rung = Rung::kMain;
  int rung_attempt = -1;  ///< attempt-log index of the rung in flight
  int source_step = 0;    ///< source-ramp point of the rung in flight
};

}  // namespace softfet::sim::detail
