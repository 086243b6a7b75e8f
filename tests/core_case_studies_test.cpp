// Application case studies (paper Section V / Figs. 10-11).
#include <gtest/gtest.h>

#include "core/case_studies.hpp"

namespace sc = softfet::cells;
using softfet::core::run_io_buffer_study;
using softfet::core::run_power_gate_study;

namespace {

// Regression band: +-1 % relative around the value this simulator computes,
// so a model or solver change that moves a headline claim gets noticed.
void expect_within_1pct(double value, double reference) {
  EXPECT_NEAR(value, reference, 0.01 * reference);
}

}  // namespace

TEST(PowerGateStudy, SoftGateCutsInrushAndDroop) {
  const auto study = run_power_gate_study(sc::PowerGateSpec{});
  // Paper Fig. 10: ~2x peak current reduction, ~20 mV less droop; this
  // model computes 2.05x and 29.8 mV.
  expect_within_1pct(study.current_reduction_factor(), 2.0463);
  expect_within_1pct(study.droop_improvement(), 29.755e-3);
  // The cost: a slower wake.
  EXPECT_GT(study.soft.wake_time, study.baseline.wake_time);
  // Both variants finished waking within the window.
  EXPECT_LT(study.soft.wake_time, 20e-9);
}

TEST(PowerGateStudy, DroopsAreMeasuredAfterSettling) {
  const auto study = run_power_gate_study(sc::PowerGateSpec{});
  EXPECT_GT(study.baseline.droop, 20e-3);
  EXPECT_LT(study.baseline.droop, 150e-3);
  EXPECT_GT(study.soft.droop, 0.0);
}

TEST(PowerGateStudy, StrongerHeaderMoreDroop) {
  sc::PowerGateSpec weak;
  weak.header_m = 100.0;
  sc::PowerGateSpec strong;
  strong.header_m = 400.0;
  const auto weak_study = run_power_gate_study(weak);
  const auto strong_study = run_power_gate_study(strong);
  EXPECT_GT(strong_study.baseline.droop, weak_study.baseline.droop);
  EXPECT_GT(strong_study.baseline.peak_current,
            weak_study.baseline.peak_current);
}

TEST(IoBufferStudy, SoftDriverCutsSsn) {
  const auto study = run_io_buffer_study(sc::IoBufferSpec{});
  // Paper Fig. 11: ~46% SSN reduction, ~8.8% energy efficiency at 1 V;
  // this model computes 51.0% and 8.29%.
  expect_within_1pct(study.ssn_reduction_pct(), 51.034);
  expect_within_1pct(study.energy_efficiency_gain_pct(1.0), 8.2874);
  // Slower pad edge is the cost.
  EXPECT_GT(study.soft.pad_delay, study.baseline.pad_delay);
}

TEST(IoBufferStudy, SsnImprovementGrowsWithTransitionTime) {
  // Paper Fig. 11 inset: higher SSN improvement with increasing input
  // transition times.
  sc::IoBufferSpec fast;
  fast.input_transition = 50e-12;
  sc::IoBufferSpec slow;
  slow.input_transition = 400e-12;
  const auto fast_study = run_io_buffer_study(fast);
  const auto slow_study = run_io_buffer_study(slow);
  EXPECT_GE(slow_study.ssn_reduction_pct(),
            fast_study.ssn_reduction_pct() - 5.0);
}

TEST(IoBufferStudy, BouncePolarity) {
  const auto study = run_io_buffer_study(sc::IoBufferSpec{});
  EXPECT_GT(study.baseline.gnd_bounce, 0.0);
  EXPECT_GT(study.baseline.vcc_bounce, 0.0);
  EXPECT_GT(study.baseline.peak_current, study.soft.peak_current);
}
