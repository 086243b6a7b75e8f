#include "util/budget.hpp"

#include <csignal>
#include <cstdlib>

namespace softfet::util {

const char* to_string(BudgetStop stop) {
  switch (stop) {
    case BudgetStop::kNone: return "within budget";
    case BudgetStop::kCancel: return "cancel requested";
    case BudgetStop::kWallClock: return "wall-clock budget exhausted";
    case BudgetStop::kAcceptedSteps: return "accepted-step budget exhausted";
    case BudgetStop::kNewtonIterations:
      return "newton-iteration budget exhausted";
    case BudgetStop::kOutputBytes: return "output-byte budget exhausted";
  }
  return "unknown budget stop";
}

BudgetTimer::BudgetTimer(const RunBudget& budget) : budget_(budget) {
  if (budget_.max_wall_seconds > 0.0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(budget_.max_wall_seconds));
    has_deadline_ = true;
  }
}

BudgetStop BudgetTimer::check_now() const {
  if (budget_.cancel != nullptr && budget_.cancel->requested()) {
    return BudgetStop::kCancel;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return BudgetStop::kWallClock;
  }
  return BudgetStop::kNone;
}

BudgetStop BudgetTimer::check(std::size_t accepted_steps,
                              std::size_t newton_iterations) const {
  const BudgetStop now = check_now();
  if (now != BudgetStop::kNone) return now;
  if (budget_.max_accepted_steps > 0 &&
      accepted_steps >= budget_.max_accepted_steps) {
    return BudgetStop::kAcceptedSteps;
  }
  if (budget_.max_newton_iterations > 0 &&
      newton_iterations >= budget_.max_newton_iterations) {
    return BudgetStop::kNewtonIterations;
  }
  return BudgetStop::kNone;
}

namespace {

CancelToken g_sigint_token;
std::atomic<int> g_sigint_count{0};
std::atomic<int> g_last_signal{0};
std::atomic<bool> g_sigint_installed{false};

void cancel_signal_handler(int signo) {
  g_last_signal.store(signo, std::memory_order_relaxed);
  if (g_sigint_count.fetch_add(1, std::memory_order_relaxed) == 0) {
    g_sigint_token.request();
  } else {
    // Second signal (either kind): the controller wants out now. _Exit is
    // async-signal-safe; 128 + signo is the conventional status.
    std::_Exit(128 + signo);
  }
}

}  // namespace

CancelToken& sigint_cancel_token() { return g_sigint_token; }

int last_cancel_signal() noexcept {
  return g_last_signal.load(std::memory_order_relaxed);
}

int cancel_exit_code(int fallback) noexcept {
  const int signo = last_cancel_signal();
  return signo > 0 ? 128 + signo : fallback;
}

void install_signal_cancel() {
  if (g_sigint_installed.exchange(true)) return;
  std::signal(SIGINT, cancel_signal_handler);
  std::signal(SIGTERM, cancel_signal_handler);
}

}  // namespace softfet::util
