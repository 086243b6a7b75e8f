// RunBudget / CancelToken / BudgetTimer unit tests: limit arithmetic,
// check ordering, and the unlimited fast path.
#include "util/budget.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace su = softfet::util;

TEST(CancelToken, RequestIsStickyUntilReset) {
  su::CancelToken token;
  EXPECT_FALSE(token.requested());
  token.request();
  EXPECT_TRUE(token.requested());
  token.request();  // idempotent
  EXPECT_TRUE(token.requested());
  token.reset();
  EXPECT_FALSE(token.requested());
}

TEST(RunBudget, DefaultIsUnlimited) {
  const su::RunBudget budget;
  EXPECT_TRUE(budget.unlimited());
}

TEST(RunBudget, AnyLimitMakesItLimited) {
  su::CancelToken token;
  su::RunBudget budget;
  budget.max_wall_seconds = 1.0;
  EXPECT_FALSE(budget.unlimited());
  budget = {};
  budget.max_accepted_steps = 1;
  EXPECT_FALSE(budget.unlimited());
  budget = {};
  budget.max_newton_iterations = 1;
  EXPECT_FALSE(budget.unlimited());
  budget = {};
  budget.cancel = &token;
  EXPECT_FALSE(budget.unlimited());
}

TEST(BudgetTimer, DefaultTimerNeverStops) {
  const su::BudgetTimer timer;
  EXPECT_EQ(timer.check(1u << 20, 1u << 20), su::BudgetStop::kNone);
  EXPECT_EQ(timer.check_now(), su::BudgetStop::kNone);
}

TEST(BudgetTimer, AcceptedStepCapTripsAtLimit) {
  su::RunBudget budget;
  budget.max_accepted_steps = 10;
  const su::BudgetTimer timer(budget);
  EXPECT_EQ(timer.check(9, 0), su::BudgetStop::kNone);
  EXPECT_EQ(timer.check(10, 0), su::BudgetStop::kAcceptedSteps);
  EXPECT_EQ(timer.check(11, 0), su::BudgetStop::kAcceptedSteps);
  // check_now is the cheap inner-loop variant: no step accounting.
  EXPECT_EQ(timer.check_now(), su::BudgetStop::kNone);
}

TEST(BudgetTimer, NewtonIterationCapTripsAtLimit) {
  su::RunBudget budget;
  budget.max_newton_iterations = 100;
  const su::BudgetTimer timer(budget);
  EXPECT_EQ(timer.check(0, 99), su::BudgetStop::kNone);
  EXPECT_EQ(timer.check(0, 100), su::BudgetStop::kNewtonIterations);
}

TEST(BudgetTimer, WallClockDeadlinePasses) {
  su::RunBudget budget;
  budget.max_wall_seconds = 1e-3;
  const su::BudgetTimer timer(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(timer.check(0, 0), su::BudgetStop::kWallClock);
  EXPECT_EQ(timer.check_now(), su::BudgetStop::kWallClock);
}

TEST(BudgetTimer, CancelWinsOverEveryOtherLimit) {
  // Cancellation must report as kCancel even when a hard limit tripped at
  // the same check point: Ctrl-C exit codes depend on it.
  su::CancelToken token;
  su::RunBudget budget;
  budget.max_wall_seconds = 1e-6;
  budget.max_accepted_steps = 1;
  budget.max_newton_iterations = 1;
  budget.cancel = &token;
  const su::BudgetTimer timer(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(timer.check(100, 100), su::BudgetStop::kWallClock);
  token.request();
  EXPECT_EQ(timer.check(100, 100), su::BudgetStop::kCancel);
  EXPECT_EQ(timer.check_now(), su::BudgetStop::kCancel);
}

TEST(BudgetTimer, UntrippedLimitsReportNone) {
  su::CancelToken token;
  su::RunBudget budget;
  budget.max_wall_seconds = 3600.0;
  budget.max_accepted_steps = 1000;
  budget.max_newton_iterations = 1000;
  budget.cancel = &token;
  const su::BudgetTimer timer(budget);
  EXPECT_EQ(timer.check(999, 999), su::BudgetStop::kNone);
  EXPECT_EQ(timer.check_now(), su::BudgetStop::kNone);
}

TEST(BudgetStop, ToStringCoversEveryValue) {
  EXPECT_STREQ(su::to_string(su::BudgetStop::kNone), "within budget");
  EXPECT_NE(std::string(su::to_string(su::BudgetStop::kCancel)), "");
  EXPECT_NE(std::string(su::to_string(su::BudgetStop::kWallClock)), "");
  EXPECT_NE(std::string(su::to_string(su::BudgetStop::kAcceptedSteps)), "");
  EXPECT_NE(std::string(su::to_string(su::BudgetStop::kNewtonIterations)), "");
  EXPECT_NE(std::string(su::to_string(su::BudgetStop::kOutputBytes)), "");
}
