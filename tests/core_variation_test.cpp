// PTM sensitivity and Monte-Carlo variability analysis, and the one rerun
// rule (core::classify_failure) their failure isolation follows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "core/failure.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "fault_injection.hpp"
#include "util/error.hpp"

namespace sc = softfet::core;
namespace sd = softfet::devices;

namespace {
softfet::cells::InverterTestbenchSpec soft_base() {
  softfet::cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = sd::PtmParams{};
  return spec;
}

/// Sabotages samples 2 and 5 with an unrecoverable NaN source on the
/// inverter output, armed from 150 ps onward.
void poison_samples_2_and_5(std::size_t k,
                            softfet::cells::InverterTestbenchSpec& spec) {
  if (k != 2 && k != 5) return;
  spec.instrument = [](softfet::sim::Circuit& c) {
    c.add<softfet::testing::FaultDevice>(
        "FLT1", c.node("out"), softfet::testing::FaultMode::kNanResidual,
        150e-12, 1.0, /*fault_budget=*/-1);
  };
}
}  // namespace

TEST(FailurePolicy, ClassifiesFailures) {
  using softfet::util::BudgetStop;
  EXPECT_EQ(sc::classify_failure(softfet::ConvergenceError("newton diverged")),
            sc::FailureClass::kRerun);
  EXPECT_EQ(sc::classify_failure(softfet::SingularMatrixError("singular", 3)),
            sc::FailureClass::kRerun);
  EXPECT_EQ(sc::classify_failure(softfet::BudgetExceededError(
                "wall clock", BudgetStop::kWallClock)),
            sc::FailureClass::kFinal);
  EXPECT_EQ(sc::classify_failure(softfet::BudgetExceededError(
                "step cap", BudgetStop::kAcceptedSteps)),
            sc::FailureClass::kFinal);
  EXPECT_EQ(sc::classify_failure(softfet::BudgetExceededError(
                "cancelled", BudgetStop::kCancel)),
            sc::FailureClass::kCancelled);
  EXPECT_EQ(sc::classify_failure(softfet::ParseError("bad", 1)),
            sc::FailureClass::kFinal);
  EXPECT_EQ(sc::classify_failure(std::runtime_error("bug")),
            sc::FailureClass::kFinal);
}

TEST(Sensitivity, RequiresSoftFetAndSaneDelta) {
  softfet::cells::InverterTestbenchSpec plain;
  EXPECT_THROW((void)sc::ptm_sensitivity(plain), softfet::Error);
  EXPECT_THROW((void)sc::ptm_sensitivity(soft_base(), 0.0), softfet::Error);
  EXPECT_THROW((void)sc::ptm_sensitivity(soft_base(), 0.6), softfet::Error);
}

TEST(Sensitivity, CoversAllFiveParameters) {
  const auto rows = sc::ptm_sensitivity(soft_base(), 0.05);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].parameter, "r_ins");
  EXPECT_EQ(rows[2].parameter, "v_imt");
  EXPECT_EQ(rows[4].parameter, "t_ptm");
  for (const auto& row : rows) {
    EXPECT_GT(row.nominal, 0.0);
    EXPECT_TRUE(std::isfinite(row.imax_sensitivity));
    EXPECT_TRUE(std::isfinite(row.didt_sensitivity));
    EXPECT_TRUE(std::isfinite(row.delay_sensitivity));
  }
}

TEST(Sensitivity, ThresholdsMatterMoreThanNothing) {
  // The design-space study showed V_MIT moves I_MAX strongly; its
  // sensitivity must be clearly nonzero.
  const auto rows = sc::ptm_sensitivity(soft_base(), 0.10);
  double v_mit_sens = 0.0;
  for (const auto& row : rows) {
    if (row.parameter == "v_mit") v_mit_sens = std::fabs(row.imax_sensitivity);
  }
  EXPECT_GT(v_mit_sens, 0.05);
}

TEST(MonteCarlo, StatisticsAreSane) {
  sc::MonteCarloSpec mc;
  mc.samples = 24;  // keep the test quick
  const auto stats = sc::ptm_monte_carlo(soft_base(), mc);
  EXPECT_EQ(stats.samples, 24);
  EXPECT_GT(stats.imax_mean, 20e-6);
  EXPECT_LT(stats.imax_mean, 200e-6);
  EXPECT_GT(stats.imax_std, 0.0);
  EXPECT_GE(stats.imax_worst, stats.imax_mean);
  EXPECT_GT(stats.delay_mean, 0.0);
  EXPECT_GE(stats.fraction_below_baseline, 0.0);
  EXPECT_LE(stats.fraction_below_baseline, 1.0);
}

TEST(MonteCarlo, Reproducible) {
  sc::MonteCarloSpec mc;
  mc.samples = 8;
  mc.seed = 42;
  const auto a = sc::ptm_monte_carlo(soft_base(), mc);
  const auto b = sc::ptm_monte_carlo(soft_base(), mc);
  EXPECT_DOUBLE_EQ(a.imax_mean, b.imax_mean);
  EXPECT_DOUBLE_EQ(a.delay_std, b.delay_std);
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  // Per-sample RNG streams + serial index-ordered reductions: the parallel
  // run must reproduce the serial run bit for bit, whatever the pool size.
  sc::MonteCarloSpec mc;
  mc.samples = 10;
  mc.seed = 7;
  mc.threads = 1;
  const auto serial = sc::ptm_monte_carlo(soft_base(), mc);
  for (const int threads : {2, 3, 5}) {
    mc.threads = threads;
    const auto parallel = sc::ptm_monte_carlo(soft_base(), mc);
    EXPECT_DOUBLE_EQ(parallel.imax_mean, serial.imax_mean) << threads;
    EXPECT_DOUBLE_EQ(parallel.imax_std, serial.imax_std) << threads;
    EXPECT_DOUBLE_EQ(parallel.imax_worst, serial.imax_worst) << threads;
    EXPECT_DOUBLE_EQ(parallel.delay_mean, serial.delay_mean) << threads;
    EXPECT_DOUBLE_EQ(parallel.delay_std, serial.delay_std) << threads;
    EXPECT_DOUBLE_EQ(parallel.fraction_below_baseline,
                     serial.fraction_below_baseline)
        << threads;
  }
}

TEST(MonteCarlo, SurfacesImpossibleDrawSpreads) {
  // A card whose V_MIT is negative can never produce a valid draw: every
  // retry fails. The loop used to silently proceed with the last (invalid)
  // draw; it must now raise a descriptive error instead.
  auto spec = soft_base();
  spec.dut.ptm->v_mit = -0.1;
  sc::MonteCarloSpec mc;
  mc.samples = 4;
  mc.threads = 1;
  try {
    (void)sc::ptm_monte_carlo(spec, mc);
    FAIL() << "expected ptm_monte_carlo to reject the impossible card";
  } catch (const softfet::Error& e) {
    EXPECT_NE(std::string(e.what()).find("no valid PTM parameter draw"),
              std::string::npos)
        << e.what();
  }
}

TEST(MonteCarlo, InjectedFaultsAreIsolatedWithDiagnostics) {
  // Two of eight samples carry an unrecoverable fault: the run must still
  // complete, report both failures with full solver diagnostics (after a
  // tightened-options retry), and compute statistics over the survivors.
  sc::MonteCarloSpec mc;
  mc.samples = 8;
  mc.seed = 11;
  mc.threads = 2;
  mc.per_sample_hook = poison_samples_2_and_5;
  const auto stats = sc::ptm_monte_carlo(soft_base(), mc);
  EXPECT_EQ(stats.samples, 8);
  EXPECT_EQ(stats.failed_samples, 2);
  ASSERT_EQ(stats.failures.size(), 2u);
  EXPECT_EQ(stats.failures[0].index, 2u);
  EXPECT_EQ(stats.failures[1].index, 5u);
  for (const auto& f : stats.failures) {
    EXPECT_TRUE(f.retried);  // tightened options were given their chance
    EXPECT_NE(f.context.find("sample"), std::string::npos);
    const auto& d = f.diagnostics;
    EXPECT_EQ(d.analysis, "transient");
    EXPECT_EQ(d.worst_device, "FLT1");
    EXPECT_GT(d.time, 0.0);
    EXPECT_FALSE(d.attempts.empty());
  }
  // Survivor statistics stay sane.
  EXPECT_GT(stats.imax_mean, 20e-6);
  EXPECT_GT(stats.imax_std, 0.0);
}

TEST(MonteCarlo, FaultyRunIsDeterministicAcrossThreadCounts) {
  // Failure isolation must not break bitwise reproducibility: survivors'
  // statistics AND the failure reports must match for any pool size.
  sc::MonteCarloSpec mc;
  mc.samples = 8;
  mc.seed = 11;
  mc.threads = 1;
  mc.per_sample_hook = poison_samples_2_and_5;
  const auto serial = sc::ptm_monte_carlo(soft_base(), mc);
  ASSERT_EQ(serial.failures.size(), 2u);
  for (const int threads : {2, 3}) {
    mc.threads = threads;
    const auto parallel = sc::ptm_monte_carlo(soft_base(), mc);
    EXPECT_DOUBLE_EQ(parallel.imax_mean, serial.imax_mean) << threads;
    EXPECT_DOUBLE_EQ(parallel.imax_std, serial.imax_std) << threads;
    EXPECT_DOUBLE_EQ(parallel.delay_mean, serial.delay_mean) << threads;
    EXPECT_DOUBLE_EQ(parallel.fraction_below_baseline,
                     serial.fraction_below_baseline)
        << threads;
    ASSERT_EQ(parallel.failures.size(), serial.failures.size()) << threads;
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(parallel.failures[i].index, serial.failures[i].index);
      EXPECT_EQ(parallel.failures[i].message, serial.failures[i].message);
    }
  }
}

TEST(MonteCarlo, MostSamplesKeepTheBenefit) {
  sc::MonteCarloSpec mc;
  mc.samples = 32;
  const auto stats = sc::ptm_monte_carlo(soft_base(), mc);
  // With 5-15% spreads the Soft-FET advantage should survive in nearly all
  // samples (the paper's benefit is not knife-edge).
  EXPECT_GT(stats.fraction_below_baseline, 0.85);
}

TEST(MonteCarlo, RejectsTinySampleCount) {
  sc::MonteCarloSpec mc;
  mc.samples = 1;
  EXPECT_THROW((void)sc::ptm_monte_carlo(soft_base(), mc), softfet::Error);
}
