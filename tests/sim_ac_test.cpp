// AC small-signal analysis validated against closed-form transfer
// functions.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <numbers>
#include <string>

#include "devices/capacitor.hpp"
#include "devices/controlled.hpp"
#include "devices/inductor.hpp"
#include "devices/mosfet.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "devices/tech40.hpp"
#include "netlist/elaborate.hpp"
#include "numeric/dense_lu.hpp"
#include "sim/ac.hpp"
#include "sim/device.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace ss = softfet::sim;
namespace sd = softfet::devices;
namespace sn = softfet::numeric;
namespace t40 = softfet::devices::tech40;

TEST(ComplexLu, SolvesComplexSystem) {
  sn::ComplexMatrix a(2, 2);
  a(0, 0) = {1.0, 1.0};
  a(0, 1) = {0.0, -1.0};
  a(1, 0) = {2.0, 0.0};
  a(1, 1) = {3.0, 1.0};
  const std::vector<sn::Complex> x_true{{1.0, 2.0}, {-1.0, 0.5}};
  const auto b = a.multiply(x_true);
  const auto x = sn::ComplexLu(a).solve(b);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-12);
  }
}

TEST(ComplexLu, SingularThrows) {
  sn::ComplexMatrix a(2, 2);
  a(0, 0) = {1.0, 0.0};
  a(1, 0) = {2.0, 0.0};
  EXPECT_THROW(sn::ComplexLu{a}, softfet::ConvergenceError);
}

TEST(AcSweep, RcLowPassPole) {
  ss::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  auto spec = sd::SourceSpec::dc(0.0);
  spec.set_ac_magnitude(1.0);
  c.add<sd::VSource>("Vin", in, ss::kGroundNode, spec);
  c.add<sd::Resistor>("R1", in, out, 1e3);
  c.add<sd::Capacitor>("C1", out, ss::kGroundNode, 1e-9);
  // f_3dB = 1/(2 pi RC) = 159.2 kHz.
  const double f3db = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  const auto result = ss::ac_sweep(c, {f3db / 100.0, f3db, 100.0 * f3db});
  const auto mag = result.magnitude("v(out)");
  EXPECT_NEAR(mag[0], 1.0, 1e-3);
  EXPECT_NEAR(mag[1], 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(mag[2], 0.01, 1e-3);
  const auto phase = result.phase_deg("v(out)");
  EXPECT_NEAR(phase[1], -45.0, 0.5);
}

TEST(AcSweep, RlcResonancePeak) {
  // Series R-L with shunt C: the rail impedance peaks at the LC resonance.
  ss::Circuit c;
  const auto rail = c.node("rail");
  auto iac = sd::SourceSpec::dc(0.0);
  iac.set_ac_magnitude(1.0);  // 1 A probe into the rail
  c.add<sd::ISource>("Iprobe", ss::kGroundNode, rail, iac);
  const auto mid = c.node("mid");
  c.add<sd::Inductor>("L1", ss::kGroundNode, mid, 1e-9);
  c.add<sd::Resistor>("R1", mid, rail, 10e-3);
  c.add<sd::Capacitor>("C1", rail, ss::kGroundNode, 100e-12);
  const double f0 =
      1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-9 * 100e-12));  // 503 MHz
  const auto freqs = ss::decade_frequencies(1e6, 100e9, 20);
  const auto result = ss::ac_sweep(c, freqs);
  const auto z = result.magnitude("v(rail)");  // 1 A probe: |V| = |Z|
  // Find the peak.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < z.size(); ++i) {
    if (z[i] > z[peak]) peak = i;
  }
  EXPECT_NEAR(std::log10(freqs[peak]), std::log10(f0), 0.2);
  // Far below resonance: |Z| ~ wL (inductive, small). Far above: capacitor
  // shorts it. At resonance: |Z| >> R (high-Q parallel resonance).
  EXPECT_GT(z[peak], 10.0 * 10e-3);
}

TEST(AcSweep, InductorShortsAtDc) {
  ss::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  auto spec = sd::SourceSpec::dc(0.0);
  spec.set_ac_magnitude(1.0);
  c.add<sd::VSource>("Vin", in, ss::kGroundNode, spec);
  c.add<sd::Inductor>("L1", in, out, 1e-6);
  c.add<sd::Resistor>("R1", out, ss::kGroundNode, 50.0);
  const auto result = ss::ac_sweep(c, {1.0, 1e9});
  const auto mag = result.magnitude("v(out)");
  EXPECT_NEAR(mag[0], 1.0, 1e-3);   // 1 Hz: inductor ~ short
  EXPECT_LT(mag[1], 0.05);          // 1 GHz: wL = 6.3k >> 50
}

TEST(AcSweep, CommonSourceAmpGain) {
  // NMOS common-source amplifier: |gain| = gm*Rload at low frequency.
  ss::Circuit c;
  const auto vdd = c.node("vdd");
  const auto g = c.node("g");
  const auto d = c.node("d");
  c.add<sd::VSource>("Vdd", vdd, ss::kGroundNode, sd::SourceSpec::dc(1.0));
  auto vg = sd::SourceSpec::dc(0.5);
  vg.set_ac_magnitude(1.0);
  c.add<sd::VSource>("Vg", g, ss::kGroundNode, vg);
  c.add<sd::Resistor>("RL", vdd, d, 20e3);
  auto* m = c.add<sd::Mosfet>("M1", d, g, ss::kGroundNode, ss::kGroundNode,
                              t40::nmos(), t40::min_nmos_dims());
  const auto op = ss::dc_operating_point(c);
  const auto eq = sd::mosfet_evaluate(t40::nmos(), t40::min_nmos_dims(), 0.5,
                                      op.voltage("d"));
  (void)m;
  const double expected_gain =
      eq.gm * (1.0 / (1.0 / 20e3 + eq.gds));
  const auto result = ss::ac_sweep(c, {1e3});
  EXPECT_NEAR(result.magnitude("v(d)")[0], expected_gain,
              0.05 * expected_gain);
  // Inverting stage: ~180 degrees.
  EXPECT_NEAR(std::fabs(result.phase_deg("v(d)")[0]), 180.0, 2.0);
}

TEST(AcSweep, VcvsIsFrequencyFlat) {
  ss::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  auto spec = sd::SourceSpec::dc(0.0);
  spec.set_ac_magnitude(0.5);
  c.add<sd::VSource>("Vin", in, ss::kGroundNode, spec);
  c.add<sd::Vcvs>("E1", out, ss::kGroundNode, in, ss::kGroundNode, 4.0);
  c.add<sd::Resistor>("RL", out, ss::kGroundNode, 1e3);
  const auto result = ss::ac_sweep(c, {10.0, 1e6, 1e12});
  for (const double m : result.magnitude("v(out)")) EXPECT_NEAR(m, 2.0, 1e-6);
}

TEST(AcSweep, DecadeFrequencies) {
  const auto freqs = ss::decade_frequencies(1.0, 1000.0, 1);
  ASSERT_EQ(freqs.size(), 4u);
  EXPECT_NEAR(freqs[3], 1000.0, 1e-9);
  EXPECT_THROW((void)ss::decade_frequencies(0.0, 10.0, 1), softfet::Error);
  EXPECT_THROW((void)ss::decade_frequencies(10.0, 1.0, 1), softfet::Error);
}

TEST(AcSweep, NetlistAcDirective) {
  auto net = softfet::netlist::compile_netlist(R"(ac rc
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.ac dec 2 1k 10meg
)");
  ASSERT_TRUE(net.ac.has_value());
  const auto freqs = net.ac->frequencies();
  EXPECT_GE(freqs.size(), 8u);
  const auto result = ss::ac_sweep(*net.circuit, freqs);
  const auto mag = result.magnitude("v(out)");
  EXPECT_NEAR(mag.front(), 1.0, 1e-2);
  EXPECT_LT(mag.back(), 0.05);
}

TEST(AcSweep, QuietSourceGivesZeroResponse) {
  ss::Circuit c;
  const auto in = c.node("in");
  c.add<sd::VSource>("Vin", in, ss::kGroundNode, sd::SourceSpec::dc(1.0));
  c.add<sd::Resistor>("R1", in, ss::kGroundNode, 1e3);
  const auto result = ss::ac_sweep(c, {1e6});
  EXPECT_NEAR(result.magnitude("v(in)")[0], 0.0, 1e-12);
}

namespace {

/// Trips a cancel token from its AC stamp: the operating point is done by
/// then, so only the sweep's own budget check can see the cancel.
class CancelOnAcStamp final : public ss::Device {
 public:
  CancelOnAcStamp(std::string name, softfet::util::CancelToken& token)
      : Device(std::move(name)), token_(token) {}
  void setup(ss::Circuit&) override {}
  void load(const std::vector<double>&, ss::Stamper&,
            const ss::LoadContext&) override {}
  void load_ac(const std::vector<double>&, ss::AcStamper&, double) override {
    token_.request();
  }

 private:
  softfet::util::CancelToken& token_;
};

/// A 60-section RC ladder: every frequency point factors a 62-unknown
/// complex system.
void add_rc_ladder(ss::Circuit& c) {
  auto spec = sd::SourceSpec::dc(0.0);
  spec.set_ac_magnitude(1.0);
  auto prev = c.node("n0");
  c.add<sd::VSource>("V1", prev, ss::kGroundNode, spec);
  for (int k = 1; k <= 60; ++k) {
    const std::string n = std::to_string(k);
    const auto node = c.node(std::string("n").append(n));
    c.add<sd::Resistor>(std::string("R").append(n), prev, node, 1e3);
    c.add<sd::Capacitor>(std::string("C").append(n), node, ss::kGroundNode,
                         1e-12);
    prev = node;
  }
}

}  // namespace

TEST(AcSweep, CancelDuringTheSweepThrows) {
  softfet::util::CancelToken token;
  ss::Circuit c;
  add_rc_ladder(c);
  c.add<CancelOnAcStamp>("Xcancel", token);
  ss::SimOptions options;
  options.budget.cancel = &token;
  try {
    (void)ss::ac_sweep(c, ss::decade_frequencies(1.0, 1e9, 10), options);
    FAIL() << "a cancel requested mid-sweep must stop the sweep";
  } catch (const softfet::BudgetExceededError& e) {
    EXPECT_EQ(e.stop(), softfet::util::BudgetStop::kCancel);
    EXPECT_NE(std::string(e.what()).find("ac sweep"), std::string::npos)
        << e.what();
  }
}

TEST(AcSweep, WallBudgetBoundsTheSweep) {
  ss::Circuit c;
  add_rc_ladder(c);
  // 90 001 points take seconds; the 50 ms budget must stop the sweep
  // (or, on a very slow host, the operating point before it).
  const auto freqs = ss::decade_frequencies(1.0, 1e9, 10000);
  ss::SimOptions options;
  options.budget.max_wall_seconds = 0.05;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)ss::ac_sweep(c, freqs, options);
    FAIL() << "the sweep ignored its wall-clock budget";
  } catch (const softfet::BudgetExceededError& e) {
    EXPECT_EQ(e.stop(), softfet::util::BudgetStop::kWallClock);
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
}
