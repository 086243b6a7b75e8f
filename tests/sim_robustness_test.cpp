// Engine robustness: homotopy fallbacks, stiff circuits, degenerate
// inputs, logging plumbing, and the fault-injection proofs that every
// recovery-ladder rung fires and every diagnostics field is populated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "devices/capacitor.hpp"
#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "devices/tech40.hpp"
#include "fault_injection.hpp"
#include "measure/waveform.hpp"
#include "sim/analyses.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace sd = softfet::devices;
namespace ss = softfet::sim;
namespace t40 = softfet::devices::tech40;
using softfet::measure::Waveform;
using softfet::testing::FaultMode;
using softfet::testing::make_fault_bench;

namespace {

/// Attempts whose strategy matches `strategy`, optionally only successes.
int count_attempts(const softfet::SolverDiagnostics& diag,
                   const std::string& strategy, bool successes_only = false) {
  int count = 0;
  for (const auto& attempt : diag.attempts) {
    if (attempt.strategy == strategy &&
        (!successes_only || attempt.succeeded)) {
      ++count;
    }
  }
  return count;
}

}  // namespace

TEST(Robustness, DiodeChainNeedsHomotopy) {
  // A long diode chain from a high supply is a classic direct-Newton
  // killer; gmin/source stepping must still land it.
  ss::Circuit c;
  auto prev = c.node("in");
  c.add<sd::VSource>("V1", prev, ss::kGroundNode, sd::SourceSpec::dc(6.0));
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    const auto next =
        (i == 7) ? ss::kGroundNode : c.node(std::string("d").append(n));
    c.add<sd::Diode>(std::string("D").append(n), prev, next);
    prev = next;
  }
  const auto op = ss::dc_operating_point(c);
  // Each junction drops ~0.75 V at these currents.
  EXPECT_NEAR(op.voltage("d0"), 6.0 * 7.0 / 8.0, 0.6);
}

TEST(Robustness, CrossCoupledLatchResolves) {
  // Bistable SRAM-style latch: the op must converge to one of the stable
  // states (not hang between them).
  ss::Circuit c;
  const auto vdd = c.node("vdd");
  const auto a = c.node("a");
  const auto b = c.node("b");
  c.add<sd::VSource>("Vdd", vdd, ss::kGroundNode, sd::SourceSpec::dc(1.0));
  c.add<sd::Mosfet>("MPa", a, b, vdd, vdd, t40::pmos(), t40::min_pmos_dims());
  c.add<sd::Mosfet>("MNa", a, b, ss::kGroundNode, ss::kGroundNode,
                    t40::nmos(), t40::min_nmos_dims());
  c.add<sd::Mosfet>("MPb", b, a, vdd, vdd, t40::pmos(), t40::min_pmos_dims());
  c.add<sd::Mosfet>("MNb", b, a, ss::kGroundNode, ss::kGroundNode,
                    t40::nmos(), t40::min_nmos_dims());
  // A slight imbalance picks the state deterministically.
  c.add<sd::Resistor>("Rtilt", a, ss::kGroundNode, 10e6);
  const auto op = ss::dc_operating_point(c);
  const double va = op.voltage("a");
  const double vb = op.voltage("b");
  EXPECT_NEAR(va + vb, 1.0, 0.35);  // complementary-ish
}

TEST(Robustness, StiffTimeConstantMix) {
  // fs-scale RC hanging off a us-scale RC: the adaptive engine must
  // resolve both without millions of steps.
  ss::Circuit c;
  const auto in = c.node("in");
  const auto slow = c.node("slow");
  const auto fast = c.node("fast");
  c.add<sd::VSource>("Vin", in, ss::kGroundNode,
                     sd::SourceSpec::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 1.0));
  c.add<sd::Resistor>("Rslow", in, slow, 1e6);
  c.add<sd::Capacitor>("Cslow", slow, ss::kGroundNode, 1e-12);  // 1 us
  c.add<sd::Resistor>("Rfast", in, fast, 10.0);
  c.add<sd::Capacitor>("Cfast", fast, ss::kGroundNode, 1e-15);  // 10 fs
  const auto result = ss::run_transient(c, 5e-6);
  EXPECT_LT(result.accepted_steps, 20000u);
  const Waveform vslow = Waveform::from_tran(result, "v(slow)");
  EXPECT_NEAR(vslow.value(5e-6), 1.0 - std::exp(-(5e-6 - 1e-9) / 1e-6), 2e-2);
  const Waveform vfast = Waveform::from_tran(result, "v(fast)");
  EXPECT_NEAR(vfast.value(5e-6), 1.0, 1e-3);
}

TEST(Robustness, SineSourceDrivenRc) {
  ss::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  // 100 MHz sine into an RC with f3dB = 1.59 MHz: expect strong
  // attenuation and ~90 degree lag.
  c.add<sd::VSource>("Vin", in, ss::kGroundNode,
                     sd::SourceSpec::sine(0.5, 0.5, 100e6));
  c.add<sd::Resistor>("R1", in, out, 1e3);
  c.add<sd::Capacitor>("C1", out, ss::kGroundNode, 100e-12);
  const auto result = ss::run_transient(c, 100e-9);
  const Waveform vout = Waveform::from_tran(result, "v(out)");
  const Waveform settled = vout.window(50e-9, 100e-9);
  const double swing = settled.max_value() - settled.min_value();
  const double expected =
      1.0 / std::sqrt(1.0 + std::pow(2.0 * M_PI * 100e6 * 1e3 * 100e-12, 2.0));
  EXPECT_NEAR(swing, expected, 0.25 * expected);
}

TEST(Robustness, EmptyishCircuitOpWorks) {
  ss::Circuit c;
  c.add<sd::VSource>("V1", c.node("a"), ss::kGroundNode,
                     sd::SourceSpec::dc(1.0));
  const auto op = ss::dc_operating_point(c);
  EXPECT_NEAR(op.voltage("a"), 1.0, 1e-9);
  EXPECT_NEAR(op.unknown("i(v1)"), 0.0, 1e-9);
}

TEST(Robustness, LogLevelsFilter) {
  using softfet::util::LogLevel;
  const auto old = softfet::util::log_level();
  softfet::util::set_log_level(LogLevel::kOff);
  EXPECT_EQ(softfet::util::log_level(), LogLevel::kOff);
  // These must be no-ops (nothing to assert beyond not crashing).
  softfet::util::log_debug("quiet");
  softfet::util::log_error("quiet");
  softfet::util::set_log_level(old);
}

TEST(Robustness, ParallelVoltageSourcesConflictIsSingular) {
  // Two ideal sources fighting across the same nodes: the MNA matrix is
  // singular; the engine must throw, not return garbage.
  ss::Circuit c;
  const auto a = c.node("a");
  c.add<sd::VSource>("V1", a, ss::kGroundNode, sd::SourceSpec::dc(1.0));
  c.add<sd::VSource>("V2", a, ss::kGroundNode, sd::SourceSpec::dc(2.0));
  EXPECT_THROW((void)ss::dc_operating_point(c), softfet::ConvergenceError);
}

// ---------------------------------------------------------------------------
// Recovery-ladder fault injection: each test arms a FaultDevice with the
// exact sabotage budget that forces one specific rung to be the cure (see
// fault_injection.hpp for the budget arithmetic).
// ---------------------------------------------------------------------------

TEST(RecoveryLadder, DtShrinkRungHandlesATransientGlitch) {
  // Default escalation threshold: a single poisoned solve is cured by the
  // cheap dt-shrink rung before any escalated rung runs.
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/1);
  const auto result = ss::run_transient(bench.circuit, 1e-9, {});
  EXPECT_EQ(bench.fault->injections(), 1);
  EXPECT_EQ(result.recovered_steps, 0u);  // no escalated rung needed
  EXPECT_GE(count_attempts(result.diagnostics, "dt_shrink"), 1);
  EXPECT_GE(count_attempts(result.diagnostics, "dt_shrink", true), 1);
  EXPECT_EQ(count_attempts(result.diagnostics, "predictor_reset"), 0);
}

TEST(RecoveryLadder, PredictorResetRungRecovers) {
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/1);
  ss::SimOptions options;
  options.recovery_escalate_after = 1;  // escalate on the first failure
  const auto result = ss::run_transient(bench.circuit, 1e-9, options);
  EXPECT_EQ(result.recovered_steps, 1u);
  EXPECT_EQ(count_attempts(result.diagnostics, "predictor_reset", true), 1);
  EXPECT_EQ(count_attempts(result.diagnostics, "gmin_ramp"), 0);
  EXPECT_EQ(count_attempts(result.diagnostics, "source_ramp"), 0);
}

TEST(RecoveryLadder, GminRampRungRecovers) {
  // Budget 2: the escalation's predictor-reset solve is also poisoned, so
  // the gmin ramp is the first rung that can succeed.
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/2);
  ss::SimOptions options;
  options.recovery_escalate_after = 1;
  const auto result = ss::run_transient(bench.circuit, 1e-9, options);
  EXPECT_EQ(result.recovered_steps, 1u);
  EXPECT_EQ(count_attempts(result.diagnostics, "predictor_reset"), 1);
  EXPECT_EQ(count_attempts(result.diagnostics, "predictor_reset", true), 0);
  EXPECT_EQ(count_attempts(result.diagnostics, "gmin_ramp", true), 1);
  EXPECT_EQ(count_attempts(result.diagnostics, "source_ramp"), 0);
}

TEST(RecoveryLadder, SourceRampRungRecovers) {
  // Budget 3 also poisons the first gmin-ramp solve: only the source ramp
  // is left standing.
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/3);
  ss::SimOptions options;
  options.recovery_escalate_after = 1;
  const auto result = ss::run_transient(bench.circuit, 1e-9, options);
  EXPECT_EQ(result.recovered_steps, 1u);
  EXPECT_EQ(count_attempts(result.diagnostics, "predictor_reset", true), 0);
  EXPECT_EQ(count_attempts(result.diagnostics, "gmin_ramp", true), 0);
  EXPECT_EQ(count_attempts(result.diagnostics, "source_ramp", true), 1);
}

TEST(RecoveryLadder, MinimumDtStallThrowsWithFullDiagnostics) {
  // An unlimited NaN source is unrecoverable: the engine must shrink to
  // dtmin, run the ladder once more, and give up with a structured report
  // naming the node, the blamed device, and the failure time in
  // engineering notation (not "t=0.000000").
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/-1);
  try {
    (void)ss::run_transient(bench.circuit, 1e-9, {});
    FAIL() << "expected the unrecoverable fault to throw";
  } catch (const softfet::ConvergenceError& e) {
    ASSERT_TRUE(e.has_diagnostics());
    const auto& d = e.diagnostics();
    EXPECT_EQ(d.analysis, "transient");
    EXPECT_NE(d.failure.find("minimum timestep"), std::string::npos);
    EXPECT_EQ(d.worst_node, "v(out)");
    EXPECT_EQ(d.worst_device, "FLT1");
    // The fault arms at 200 ps; the last accepted time cannot pass it.
    EXPECT_GT(d.time, 150e-12);
    EXPECT_LT(d.time, 210e-12);
    EXPECT_GT(d.last_dt, 0.0);
    EXPECT_GE(count_attempts(d, "dt_shrink"), 1);
    // The at-dtmin escalation runs the full ladder at least once.
    EXPECT_GE(count_attempts(d, "predictor_reset"), 1);
    EXPECT_GE(count_attempts(d, "gmin_ramp"), 1);
    EXPECT_GE(count_attempts(d, "source_ramp"), 1);
    // Engineering-notation message: picoseconds, not a six-decimal zero.
    const std::string what = e.what();
    EXPECT_NE(what.find("ps"), std::string::npos) << what;
    EXPECT_EQ(what.find("0.000000"), std::string::npos) << what;
  }
}

TEST(RecoveryLadder, EscalationCanBeDisabled) {
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/-1);
  ss::SimOptions options;
  options.recovery_escalate_after = 0;  // shrink-only ladder
  try {
    (void)ss::run_transient(bench.circuit, 1e-9, options);
    FAIL() << "expected the unrecoverable fault to throw";
  } catch (const softfet::ConvergenceError& e) {
    ASSERT_TRUE(e.has_diagnostics());
    EXPECT_EQ(count_attempts(e.diagnostics(), "predictor_reset"), 0);
    EXPECT_EQ(count_attempts(e.diagnostics(), "gmin_ramp"), 0);
    EXPECT_GE(count_attempts(e.diagnostics(), "dt_shrink"), 1);
  }
}

TEST(RecoveryLadder, SingularStampNamesTheOffendingUnknown) {
  // A structurally zero matrix row (a device that claims a branch unknown
  // and never stamps it) must surface the unknown's label through every
  // homotopy rung's failure.
  auto bench =
      make_fault_bench(FaultMode::kSingularRow, /*budget=*/-1, 0.0, 1.0);
  try {
    (void)ss::dc_operating_point(bench.circuit);
    FAIL() << "expected the singular stamp to defeat every DC homotopy";
  } catch (const softfet::ConvergenceError& e) {
    ASSERT_TRUE(e.has_diagnostics());
    const auto& d = e.diagnostics();
    EXPECT_EQ(d.analysis, "dc operating point");
    EXPECT_EQ(d.worst_node, "i(flt1)");
    EXPECT_NE(d.failure.find("singular"), std::string::npos);
    EXPECT_EQ(count_attempts(d, "direct_newton"), 1);
    EXPECT_EQ(count_attempts(d, "gmin_stepping"), 1);
    EXPECT_EQ(count_attempts(d, "source_stepping"), 1);
  }
}

TEST(RecoveryLadder, NanJacobianIsCaughtByTheUpdateGuard) {
  // Jacobian poison passes the residual check but must still fail the
  // solve fast (non-finite update or singular factorization), and a
  // 1-solve budget must be absorbed without losing the run.
  auto bench = make_fault_bench(FaultMode::kNanJacobian, /*budget=*/1);
  const auto result = ss::run_transient(bench.circuit, 1e-9, {});
  EXPECT_EQ(bench.fault->injections(), 1);
  EXPECT_GE(count_attempts(result.diagnostics, "dt_shrink", true), 1);
  const Waveform vout = Waveform::from_tran(result, "v(out)");
  EXPECT_NEAR(vout.value(1e-9), 1.0, 1e-2);
}

TEST(RecoveryLadder, EventStormIsSurvivedAtFullAccuracy) {
  // A device reporting an event every 2 ps across [200 ps, 400 ps] forces
  // a dense burst of step cuts; the engine must neither hang nor lose the
  // waveform. (Spacing is chosen below the engine's dtmax so events land
  // inside candidate steps.)
  auto bench = make_fault_bench(FaultMode::kEventStorm, /*budget=*/-1,
                                200e-12, 400e-12, 2e-12);
  const auto result = ss::run_transient(bench.circuit, 1e-9, {});
  EXPECT_GE(result.event_count, 10u);       // ~100 storm boundaries
  EXPECT_LT(result.accepted_steps, 5000u);  // bounded work
  const Waveform vout = Waveform::from_tran(result, "v(out)");
  EXPECT_NEAR(vout.value(1e-9), 1.0, 1e-2);
}
