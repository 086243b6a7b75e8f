// Run budgets and cooperative cancellation for long-running analyses.
//
// A RunBudget puts a bounded worst case on every run: a wall-clock deadline,
// a cap on accepted transient steps, and a cap on total Newton iterations.
// A CancelToken is the cooperative-cancellation half: a controller (SIGINT
// handler, watchdog, batch driver) requests cancellation once and every
// worker observes it at its next check point. Checks happen at every
// accepted transient step, every Newton entry (and iteration), and every
// parallel_for index claim, so neither an event storm near the PTM
// hysteresis thresholds nor a dt collapse can hang a run unbounded.
//
// The budget is a plain spec; BudgetTimer is the armed runtime object that
// records the deadline at analysis entry and answers "should we stop, and
// why" as a BudgetStop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>

namespace softfet::util {

/// Shared cooperative-cancellation flag. request() is async-signal-safe and
/// thread-safe; workers poll requested() at their check points. A token is
/// not owned by the budgets that reference it — the controller keeps it
/// alive for the duration of the run.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void request() noexcept {
    requested_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool requested() const noexcept {
    return requested_.load(std::memory_order_acquire);
  }
  /// Re-arm the token (between independent runs sharing one token).
  void reset() noexcept {
    requested_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> requested_{false};
};

/// Limits for one analysis run. Zero (or a null token) disables the
/// corresponding limit; the default budget is fully unlimited.
struct RunBudget {
  double max_wall_seconds = 0.0;          ///< wall-clock deadline [s]
  std::size_t max_accepted_steps = 0;     ///< accepted transient steps
  std::size_t max_newton_iterations = 0;  ///< cumulative Newton iterations
  const CancelToken* cancel = nullptr;    ///< shared cancel flag (not owned)

  [[nodiscard]] bool unlimited() const noexcept {
    return max_wall_seconds <= 0.0 && max_accepted_steps == 0 &&
           max_newton_iterations == 0 && cancel == nullptr;
  }
};

/// Which limit stopped a run (kNone = still within budget).
enum class BudgetStop {
  kNone,
  kCancel,            ///< the shared CancelToken was tripped
  kWallClock,         ///< the wall-clock deadline passed
  kAcceptedSteps,     ///< accepted-step cap reached
  kNewtonIterations,  ///< cumulative Newton-iteration cap reached
  kOutputBytes,       ///< a service job's streamed-output cap reached
};

[[nodiscard]] const char* to_string(BudgetStop stop);

/// A RunBudget armed at analysis entry: the wall-clock deadline is fixed at
/// construction. Cheap to poll (one relaxed atomic load plus one
/// steady_clock read), copyable, and safe to share by const pointer with
/// inner loops (the Newton solver takes one through its options).
class BudgetTimer {
 public:
  /// Unlimited timer: every check returns kNone without reading the clock.
  BudgetTimer() = default;

  /// Arm `budget` now; the deadline is entry time + max_wall_seconds.
  explicit BudgetTimer(const RunBudget& budget);

  /// Full check at an accepted-step boundary. Order: cancel, wall clock,
  /// accepted steps, Newton iterations (cancellation always wins so a
  /// Ctrl-C reports as a cancel even when a limit tripped simultaneously).
  [[nodiscard]] BudgetStop check(std::size_t accepted_steps,
                                 std::size_t newton_iterations) const;

  /// Cheap check for inner loops (cancel + wall clock only).
  [[nodiscard]] BudgetStop check_now() const;

 private:
  RunBudget budget_{};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Process-global token wired to SIGINT/SIGTERM by install_signal_cancel().
[[nodiscard]] CancelToken& sigint_cancel_token();

/// Install SIGINT *and* SIGTERM handlers implementing the double-tap
/// protocol: the first signal requests cooperative cancellation through
/// sigint_cancel_token() (in-flight points finish and checkpoints flush);
/// a second signal of either kind hard-exits with 128 + signo. SIGTERM is
/// handled identically to SIGINT so service managers (systemd, docker
/// stop, CI timeouts) get the same checkpoint flush a Ctrl-C does.
/// Idempotent.
void install_signal_cancel();

/// The signal number that triggered the cooperative cancel (0 when the
/// token was never tripped by a signal). Lets drivers exit 130 for SIGINT
/// vs 143 for SIGTERM after a cooperative drain.
[[nodiscard]] int last_cancel_signal() noexcept;

/// Conventional exit status for a signal-cancelled run: 128 + signo
/// (130 SIGINT, 143 SIGTERM), or `fallback` when no signal was involved.
[[nodiscard]] int cancel_exit_code(int fallback = 130) noexcept;

}  // namespace softfet::util
