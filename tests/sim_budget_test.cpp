// Run-budget enforcement inside the analyses: a budget-stopped transient
// returns a flagged partial result with diagnostics instead of hanging or
// throwing, and every limit reports the right BudgetStop.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "devices/capacitor.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "fault_injection.hpp"
#include "sim/analyses.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace sd = softfet::devices;
namespace ss = softfet::sim;
namespace su = softfet::util;
using softfet::testing::FaultDevice;
using softfet::testing::FaultMode;

namespace {

constexpr double kTstop = 1e-9;

/// Ramp-driven RC bench; `storm_dt > 0` attaches an event-storm fault that
/// reports a breakpoint every storm_dt within [200 ps, tstop].
ss::Circuit make_bench(double storm_dt = 0.0) {
  ss::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<sd::VSource>("Vin", in, ss::kGroundNode,
                     sd::SourceSpec::ramp(0.0, 1.0, 100e-12, 30e-12));
  c.add<sd::Resistor>("R1", in, out, 1e3);
  c.add<sd::Capacitor>("C1", out, ss::kGroundNode, 1e-15);
  if (storm_dt > 0.0) {
    c.add<FaultDevice>("FLT1", out, FaultMode::kEventStorm, 200e-12, kTstop,
                       /*fault_budget=*/-1, storm_dt);
  }
  return c;
}

/// Counts its loads and stamps nothing.
class LoadCounter final : public ss::Device {
 public:
  LoadCounter() : Device("CNT") {}
  void setup(ss::Circuit& /*circuit*/) override {}
  void load(const std::vector<double>& /*x*/, ss::Stamper& /*stamper*/,
            const ss::LoadContext& /*ctx*/) override {
    ++loads;
  }
  int loads = 0;
};

}  // namespace

TEST(Budget, UnlimitedRunCompletesUnflagged) {
  auto c = make_bench();
  const auto result = ss::run_transient(c, kTstop);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.stop_reason, su::BudgetStop::kNone);
  EXPECT_NEAR(result.time.back(), kTstop, 1e-15);
}

TEST(Budget, EventStormHitsWallClockAndTruncates) {
  // An event storm near the PTM thresholds used to be the unbounded-runtime
  // failure mode: every reported event forces a time cut, so a 1 fs storm
  // over 800 ps is ~1e6 forced steps. The wall-clock budget must stop it
  // and hand back the partial waveform with diagnostics, not hang or throw.
  auto c = make_bench(/*storm_dt=*/1e-15);
  ss::SimOptions options;
  options.budget.max_wall_seconds = 0.2;
  const auto result = ss::run_transient(c, kTstop, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.stop_reason, su::BudgetStop::kWallClock);
  // Partial waveform: it got past the storm start but nowhere near tstop.
  ASSERT_FALSE(result.time.empty());
  EXPECT_LT(result.time.back(), kTstop);
  // Structured diagnostics say why and where it stopped.
  EXPECT_EQ(result.diagnostics.analysis, "transient");
  EXPECT_NE(result.diagnostics.failure.find("wall-clock"), std::string::npos)
      << result.diagnostics.failure;
}

TEST(Budget, AcceptedStepCapTruncates) {
  auto c = make_bench();
  ss::SimOptions options;
  options.budget.max_accepted_steps = 5;
  const auto result = ss::run_transient(c, kTstop, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.stop_reason, su::BudgetStop::kAcceptedSteps);
  EXPECT_EQ(result.accepted_steps, 5u);
  EXPECT_LT(result.time.back(), kTstop);
}

TEST(Budget, NewtonIterationCapTruncates) {
  auto c = make_bench();
  ss::SimOptions options;
  options.budget.max_newton_iterations = 3;
  const auto result = ss::run_transient(c, kTstop, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.stop_reason, su::BudgetStop::kNewtonIterations);
  EXPECT_LT(result.time.back(), kTstop);
}

TEST(Budget, PreTrippedCancelStopsBeforeFirstStep) {
  auto c = make_bench();
  su::CancelToken token;
  token.request();
  ss::SimOptions options;
  options.budget.cancel = &token;
  const auto result = ss::run_transient(c, kTstop, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.stop_reason, su::BudgetStop::kCancel);
  // Cancelled before the operating point: no accepted waveform points.
  EXPECT_TRUE(result.time.empty());
  EXPECT_EQ(result.accepted_steps, 0u);
}

TEST(Budget, CancelledOperatingPointThrowsBudgetError) {
  auto c = make_bench();
  su::CancelToken token;
  token.request();
  ss::SimOptions options;
  options.budget.cancel = &token;
  try {
    (void)ss::dc_operating_point(c, options);
    FAIL() << "expected BudgetExceededError";
  } catch (const softfet::BudgetExceededError& e) {
    EXPECT_EQ(e.stop(), su::BudgetStop::kCancel);
  }
}

TEST(Budget, ResultStaysDeterministicUnderStepCap) {
  // The budget layer must not perturb the accepted trajectory: a capped run
  // is an exact prefix of the uncapped run.
  auto c_full = make_bench();
  const auto full = ss::run_transient(c_full, kTstop);
  auto c_capped = make_bench();
  ss::SimOptions options;
  options.budget.max_accepted_steps = 8;
  const auto capped = ss::run_transient(c_capped, kTstop, options);
  ASSERT_LE(capped.time.size(), full.time.size());
  for (std::size_t i = 0; i < capped.time.size(); ++i) {
    EXPECT_EQ(capped.time[i], full.time[i]) << "index " << i;
  }
}

TEST(Budget, PreTrippedCancelStopsDcSweepBeforeFirstPoint) {
  auto c = make_bench();
  const LoadCounter* counter = c.add<LoadCounter>();
  su::CancelToken token;
  token.request();
  ss::SimOptions options;
  options.budget.cancel = &token;
  try {
    (void)ss::dc_sweep(c, "Vin", {0.0, 0.5, 1.0}, options);
    FAIL() << "expected BudgetExceededError";
  } catch (const softfet::BudgetExceededError& e) {
    EXPECT_EQ(e.stop(), su::BudgetStop::kCancel);
  }
  EXPECT_EQ(counter->loads, 0);  // no point was solved
}

TEST(Budget, WallClockBoundsALongDcSweep) {
  // A million bias points take seconds; the wall-clock budget must stop
  // the sweep within a small multiple of its limit.
  auto c = make_bench();
  std::vector<double> values(1'000'000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 1e-6;
  }
  ss::SimOptions options;
  options.budget.max_wall_seconds = 0.05;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)ss::dc_sweep(c, "Vin", values, options);
    FAIL() << "expected BudgetExceededError";
  } catch (const softfet::BudgetExceededError& e) {
    EXPECT_EQ(e.stop(), su::BudgetStop::kWallClock);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
}
