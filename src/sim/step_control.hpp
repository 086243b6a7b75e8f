// The engine's one Newton iteration, run as a lane and advanced one
// iteration per call. A lane has two entries:
//
//   start      a transient: adaptive step control from t = 0, each step a
//              Newton solve. run_transient drives one lane over a
//              LinearSolver; run_transient_batch drives K lanes through one
//              BatchDenseLu per round.
//   start_op   a DC operating point: kDcOp loads, dt = 0, no step control.
//              solve_dc (op.cpp) drives one lane over the caller's solver.
//
// Every engine runs the same iteration (drive() is the one-lane loop):
//
//   begin_iteration   iteration head; false once the lane has ended;
//   load_devices      every device's load at the iterate;
//   end_load          gmin shunts; false when the stamp pattern departed;
//   residual_finite   false: the solve failed and the lane moved on;
//   (solve)           J·dx = -F into dx;
//   update            Newton update, then converge or fail; or
//   solve_failed      the factorization failed.
//
// The lane decides everything after a solve. A transient cuts at events,
// rejects on LTE or accepts on convergence; on failure it shrinks dt with
// forced backward Euler, or after `recovery_escalate_after` consecutive
// failures (and once more at the minimum dt) climbs the recovery ladder —
// predictor reset, gmin ramp, source ramp — whose rungs are solves this
// lane iterates like any other. The operating point's main solve is direct
// Newton; when it fails, the same ladder runs as gmin stepping and source
// stepping. The two ladders differ only in their constants (Ladder below).
// A transient ends done, truncated by the budget (the constant step cap
// included), or failed at the minimum dt; an operating point ends done, truncated, or failed on
// its last rung. The caller maps that end state to its outcome. Every
// engine runs exactly this code, so a batch lane that finishes is bitwise
// identical to the scalar run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "numeric/linear_solver.hpp"
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
  enum class State { kSolving, kDone, kTruncated, kFailed };

  /// `result` receives the waveform, the counters and the attempt log;
  /// `budget` is checked at every step and iteration head. An operating
  /// point takes `stop_time` 0 and only uses the counters and the log.
  TransientLane(Circuit& c, const SimOptions& o, double stop_time,
                TranResult& result, const util::BudgetTimer& budget_timer)
      : circuit(c),
        options(o),
        tstop(stop_time),
        out(result),
        budget(budget_timer) {}

  /// Start at t = 0 from the operating point `x0` (circuit prepared):
  /// sample the first row, set the initial dt and open the first step.
  void start(std::vector<double> x0);
  /// Start a DC operating point solve from `guess` (circuit prepared). On
  /// kDone the solution is in x_new.
  void start_op(std::vector<double> guess);

  /// Iteration head: fail a solve out of iterations, apply the budget, and
  /// open the load of the next iteration. False once the lane has ended.
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
  /// Why an ended lane did not finish, e.g. "run budget: wall-clock budget
  /// exhausted".
  [[nodiscard]] std::string failure() const;
  /// Diagnostics of an ended lane that did not finish: failure(), the
  /// attempt log, the reported solve (iterations, trace, worst unknown)
  /// and the device blamed at the last iterate (failed) or the accepted
  /// state (stopped).
  [[nodiscard]] SolverDiagnostics failure_diagnostics();

  Circuit& circuit;
  const SimOptions& options;
  const double tstop;
  TranResult& out;
  const util::BudgetTimer& budget;

  std::vector<double> x_new;  ///< iterate of the solve in flight
  numeric::SparseMatrix jacobian;
  std::vector<double> residual;
  std::vector<double> dx;  ///< the engine solves into this
  util::BudgetStop stop = util::BudgetStop::kNone;  ///< why it truncated

 private:
  enum class Rung { kMain, kPredictorReset, kGminRamp, kSourceRamp };

  /// The constants that tell the two entries apart: what ends a converged
  /// solve, when and where the ladder starts, its rung arithmetic, and
  /// what the attempt log says.
  struct Ladder {
    /// A converged solve is accepted as a time step (false: it ends the
    /// lane). A timed lane reports its step's main solve and logs rungs
    /// with t and dt; an untimed lane reports its last solve and logs
    /// each failure's reason.
    bool timed = true;
    int escalate_after = 0;  ///< consecutive failures that start the ladder
    Rung first_rung = Rung::kPredictorReset;
    const char* names[4] = {};    ///< attempt-log name per rung; null: none
    const char* failed = "";      ///< failure() of a failed lane, up to "("
    double gmin_start = 0.0;      ///< shunt of the gmin rung's first solve
    double gmin_factor = 1.0;     ///< next shunt: max(g * factor / divisor,
    double gmin_divisor = 1.0;    ///< kGmin)
    double gmin_stop = 0.0;       ///< the gmin rung ends once g <= this
    int source_steps = 1;         ///< source rung solves at k / steps
    bool source_from_zero = false;  ///< the source rung starts from x = 0
  };

  /// One solve's report: the failure and where it struck.
  struct SolveRecord {
    int iterations = 0;
    numeric::NewtonFailure failure = numeric::NewtonFailure::kNone;
    std::size_t worst_unknown = numeric::kNoUnknown;
    double worst_residual = 0.0;  ///< |F| at worst_unknown
    std::vector<IterationRecord> trace;
  };

  [[nodiscard]] bool reports() const noexcept {
    return rung == Rung::kMain || !ladder.timed;
  }
  void open(const Ladder& entry, std::vector<double> x0);
  void begin_solve();
  void begin_step();
  void fail(numeric::NewtonFailure failure, std::size_t unknown,
            double worst_residual);
  void converged();
  void finish_solve(bool recovered);
  void start_rung(Rung next);
  void end_rung(bool ok);
  void leave_rung();
  void shrink_or_stop();
  void accept_or_cut(int solve_iterations, bool recovered);
  [[nodiscard]] std::string step_detail() const;
  int note_attempt(const char* strategy);
  void mark_succeeded(int attempt);

  LoadContext ctx;  ///< load context of the solve in flight
  Stamper stamper{jacobian, residual};
  Ladder ladder;
  State state_ = State::kSolving;
  double t = 0.0;
  double dt = 0.0;
  double dtmax = 0.0;
  std::vector<double> x;       ///< last accepted solution (at t)
  std::vector<double> x_pred;  ///< predictor of the step in flight
  std::vector<double> x_prev;  ///< accepted solution before x (at t_prev)
  double t_prev = 0.0;
  bool has_prev = false;  ///< false after start and events: constant predictor
  bool force_backward_euler = true;  ///< on the first step and after trouble
  int consecutive_rejects = 0;
  int newton_failures = 0;        ///< consecutive, reset on acceptance
  bool escalated_at_min = false;  ///< ladder runs at most twice per step
  std::size_t voltage_unknowns = 0;
  /// dt_shrink attempts marked succeeded once a plain solve converges.
  std::vector<int> pending_shrinks;
  std::vector<double> row;  ///< sample-row buffer

  int iterations = 0;  ///< of the solve in flight
  SolveRecord record;  ///< the reported solve (see Ladder::timed)
  double gmin = kGmin;  ///< shunt conductance of the solve in flight
  Rung rung = Rung::kMain;
  int source_step = 0;  ///< source-ramp point of the rung in flight
};

/// Run `lane` to its end, solving each iteration with `solver`.
void drive(TransientLane& lane, numeric::LinearSolver& solver);

}  // namespace softfet::sim::detail
