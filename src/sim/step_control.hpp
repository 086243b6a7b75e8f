// Per-step control of the adaptive transient, shared by run_transient and
// the batched lockstep engine. StepControl decides which solve runs next and
// what happens to its result; the calling engine decides how a solve runs
// and how a run fails. The engine's loop:
//
//   begin_step          kSolve: x_new holds the predictor, ctx is set;
//   (solve x_new)       full Newton, or one iteration per batch round;
//   on_solve_converged  event cut, LTE reject or accept; then begin_step;
//   on_solve_failure    kLadder: the engine escalates and, if that fails,
//                       calls resolve_failure; kTruncate / kAtMin: the
//                       engine fails the run; kRetry: dt shrunk.
//
// Both engines run exactly this code, so a batch lane that completes is
// bitwise identical to the scalar run.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/device.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"
#include "util/budget.hpp"

namespace softfet::sim::detail {

struct StepControl {
  enum class Head { kSolve, kDone, kBudgetStop, kStepLimit };
  enum class Failure { kRetry, kLadder, kTruncate, kAtMin };

  /// `out` receives the waveform, the step counters and the attempt log.
  StepControl(Circuit& c, const SimOptions& o, double stop_time,
              TranResult& result)
      : circuit(c), options(o), tstop(stop_time), out(result) {}

  /// Start at t = 0 from the operating point `x0` (circuit prepared):
  /// samples the first row and sets the initial dt.
  void start(std::vector<double> x0);

  /// Loop head: done and budget tests, dt clamp to device caps and the
  /// remaining span, breakpoint landing, ctx and predictor for the solve.
  /// kBudgetStop leaves the tripped limit in `stop`.
  [[nodiscard]] Head begin_step(const util::BudgetTimer& budget);

  /// After a converged solve of x_new (`recovered` = by the engine's
  /// recovery ladder): cut the step at an interior device event, reject it
  /// on local error, or accept it and pick the next dt.
  void on_solve_converged(int iterations, bool recovered);

  /// After a failed solve: count it and decide whether the recovery ladder
  /// runs now; otherwise resolve_failure.
  [[nodiscard]] Failure on_solve_failure(const util::BudgetTimer& budget);

  /// A failed step the ladder did not cure: truncate on a tripped budget
  /// (limit in `stop`), give up at the minimum dt, or shrink dt and retry.
  [[nodiscard]] Failure resolve_failure(const util::BudgetTimer& budget);

  /// Record a recovery attempt at the current (t, dt); returns its index
  /// for mark_succeeded (-1 when the bounded log is full).
  int note_attempt(const char* strategy);
  void mark_succeeded(int attempt);

  Circuit& circuit;
  const SimOptions& options;
  const double tstop;
  TranResult& out;

  LoadContext ctx;  ///< load context of the solve in flight
  double t = 0.0;
  double dt = 0.0;
  double dtmax = 0.0;
  std::vector<double> x;       ///< last accepted solution (at t)
  std::vector<double> x_new;   ///< iterate of the solve in flight
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
  util::BudgetStop stop = util::BudgetStop::kNone;
};

}  // namespace softfet::sim::detail
