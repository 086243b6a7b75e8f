// PDN model and power-gate wake-up testbench.
#include <gtest/gtest.h>

#include "cells/pdn.hpp"
#include "cells/power_gate.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "measure/metrics.hpp"
#include "measure/waveform.hpp"
#include "sim/analyses.hpp"

namespace sc = softfet::cells;
namespace sd = softfet::devices;
namespace ss = softfet::sim;
namespace sm = softfet::measure;
using softfet::measure::Waveform;

TEST(Pdn, DcRailAtVcc) {
  ss::Circuit c;
  const auto pdn = sc::add_pdn(c, "pdn", "rail", sc::PdnParams{});
  const auto op = ss::dc_operating_point(c);
  // No load: inductor shorts, no IR drop.
  EXPECT_NEAR(op.voltage("rail"), 1.0, 1e-6);
}

TEST(Pdn, IrDropUnderDcLoad) {
  ss::Circuit c;
  sc::PdnParams params;
  const auto pdn = sc::add_pdn(c, "pdn", "rail", params);
  c.add<sd::Resistor>("Rload", pdn.rail, ss::kGroundNode, 100.0);  // 10 mA
  const auto op = ss::dc_operating_point(c);
  const double expected_drop = params.r_pkg * (1.0 / (100.0 + params.r_pkg));
  EXPECT_NEAR(1.0 - op.voltage("rail"), expected_drop, 1e-5);
}

TEST(Pdn, CurrentStepCausesDroopAndRingback) {
  ss::Circuit c;
  const auto pdn = sc::add_pdn(c, "pdn", "rail", sc::PdnParams{});
  // 20 mA load step with a 100 ps edge.
  c.add<sd::ISource>("Iload", pdn.rail, ss::kGroundNode,
                     sd::SourceSpec::pulse(0.0, 20e-3, 2e-9, 100e-12, 100e-12,
                                           1.0));
  const auto result = ss::run_transient(c, 40e-9);
  const Waveform rail = Waveform::from_tran(result, pdn.rail_signal);
  const double droop = sm::worst_droop(rail, 1.0);
  // More than the static IR drop (L di/dt + resonance), less than the rail.
  EXPECT_GT(droop, 20e-3 * sc::PdnParams{}.r_pkg * 1.5);
  EXPECT_LT(droop, 0.5);
  // Settles back near the IR-drop level.
  EXPECT_NEAR(rail.value(40e-9), 1.0 - 20e-3 * sc::PdnParams{}.r_pkg, 5e-3);
}

TEST(PdnGrid, OneByOneMatchesLumpedPdn) {
  // A 1x1x1 grid is electrically the lumped PDN: one bump carries the full
  // package R/L, one tile the full decap. Node numbering differs, so the
  // match is numerical, not bitwise.
  const auto params = sc::PdnParams::zhang_islped13();

  ss::Circuit lumped;
  const auto pdn = sc::add_pdn(lumped, "pdn", "rail", params);
  lumped.add<sd::ISource>("Iload", pdn.rail, ss::kGroundNode,
                          sd::SourceSpec::pulse(0.0, 20e-3, 2e-9, 100e-12,
                                                100e-12, 1.0));
  const auto ref = ss::run_transient(lumped, 30e-9);

  ss::Circuit gridded;
  const auto grid = sc::make_pdn_grid(
      gridded, "pdn", sc::PdnGridParams::from_lumped(params, 1, 1));
  EXPECT_EQ(grid.tile_count(), 1u);
  EXPECT_EQ(grid.bump_count, 1u);
  gridded.add<sd::ISource>("Iload", grid.tile(0, 0), ss::kGroundNode,
                           sd::SourceSpec::pulse(0.0, 20e-3, 2e-9, 100e-12,
                                                 100e-12, 1.0));
  const auto result = ss::run_transient(gridded, 30e-9);

  const Waveform rail_ref = Waveform::from_tran(ref, pdn.rail_signal);
  const Waveform rail_grid =
      Waveform::from_tran(result, grid.tile_signal(0, 0));
  for (int i = 1; i <= 30; ++i) {
    const double t = 1e-9 * i;
    EXPECT_NEAR(rail_grid.value(t), rail_ref.value(t), 1e-4)
        << "t=" << t;
  }
  EXPECT_NEAR(sm::worst_droop(rail_grid, params.vcc),
              sm::worst_droop(rail_ref, params.vcc), 1e-4);
}

TEST(PdnGrid, DcIrDropMatchesLumpedTotals) {
  // Under a DC load the mesh presents r_pkg (all bumps in parallel) plus a
  // small spreading term; the rail must sit just below vcc - I*r_pkg.
  const auto params = sc::PdnParams::zhang_islped13();
  ss::Circuit c;
  const auto grid = sc::make_pdn_grid(
      c, "pdn", sc::PdnGridParams::from_lumped(params, 8, 8));
  c.add<sd::Resistor>("Rload", grid.tile(4, 4), ss::kGroundNode, 100.0);
  const auto op = ss::dc_operating_point(c);
  const double v = op.x[static_cast<std::size_t>(grid.tile(4, 4) - 1)];
  const double ir_pkg = params.r_pkg * (params.vcc / 100.0);
  EXPECT_LT(v, params.vcc - 0.5 * ir_pkg);
  EXPECT_GT(v, params.vcc - 20.0 * ir_pkg);
}

TEST(PdnGrid, DroopLocalizesAtTheAggressorTile) {
  ss::Circuit c;
  const auto grid = sc::make_pdn_grid(
      c, "pdn",
      sc::PdnGridParams::from_lumped(sc::PdnParams::zhang_islped13(), 8, 8));
  c.add<sd::ISource>("Iload", grid.tile(2, 2), ss::kGroundNode,
                     sd::SourceSpec::pulse(0.0, 20e-3, 1e-9, 100e-12, 100e-12,
                                           1.0));
  const auto result = ss::run_transient(c, 5e-9);
  const double at_aggressor = sm::worst_droop(
      Waveform::from_tran(result, grid.tile_signal(2, 2)), 1.0);
  const double far_corner = sm::worst_droop(
      Waveform::from_tran(result, grid.tile_signal(7, 7)), 1.0);
  EXPECT_GT(at_aggressor, far_corner);
  EXPECT_GT(at_aggressor, 10e-3);  // the step visibly droops the tile
}

TEST(PdnGrid, MultiLayerMeshSolves) {
  ss::Circuit c;
  auto params = sc::PdnGridParams::from_lumped(
      sc::PdnParams::zhang_islped13(), 4, 4, 2);
  params.l_seg = 1e-12;  // exercise the series R-L segment variant
  const auto grid = sc::make_pdn_grid(c, "pdn", params);
  EXPECT_EQ(grid.nodes.size(), 4u * 4u * 2u);
  c.add<sd::ISource>("Iload", grid.tile(1, 2), ss::kGroundNode,
                     sd::SourceSpec::pulse(0.0, 10e-3, 1e-9, 100e-12, 100e-12,
                                           1.0));
  const auto result = ss::run_transient(c, 4e-9);
  const Waveform rail = Waveform::from_tran(result, grid.tile_signal(1, 2));
  EXPECT_GT(rail.value(0.5e-9), 0.9);  // pre-step rail near vcc
  EXPECT_GT(sm::worst_droop(rail, 1.0), 1e-3);
}

TEST(PdnGrid, RejectsDegenerateGeometry) {
  ss::Circuit c;
  sc::PdnGridParams params;
  params.rows = 0;
  EXPECT_THROW(sc::make_pdn_grid(c, "pdn", params),
               softfet::InvalidCircuitError);
}

TEST(PowerGate, DomainStartsAsleepAndWakes) {
  sc::PowerGateSpec spec;
  auto tb = sc::make_power_gate_testbench(spec);
  const auto result = ss::run_transient(tb.circuit, tb.suggested_tstop);
  const Waveform vvdd = Waveform::from_tran(result, tb.virtual_rail_signal);
  // Asleep: virtual rail near ground (leak-defined).
  EXPECT_LT(vvdd.value(1e-9), 0.1);
  // Awake: virtual rail near VCC.
  EXPECT_GT(vvdd.value(result.time.back()), 0.9);
}

TEST(PowerGate, WakeDroopsTheSharedRail) {
  sc::PowerGateSpec spec;
  auto tb = sc::make_power_gate_testbench(spec);
  const auto result = ss::run_transient(tb.circuit, tb.suggested_tstop);
  const Waveform rail = Waveform::from_tran(result, tb.rail_signal);
  const double settled = rail.value(0.9 * spec.enable_delay);
  const double droop =
      sm::worst_droop(rail.window(spec.enable_delay, result.time.back()),
                      settled);
  EXPECT_GT(droop, 10e-3);   // the wake event visibly droops the rail
  EXPECT_LT(droop, 200e-3);  // but the PDN holds it up
}

TEST(PowerGate, SoftGateStaircasesTheHeaderGate) {
  sc::PowerGateSpec spec;
  spec.ptm = sc::PowerGateSpec::default_header_ptm();
  auto tb = sc::make_power_gate_testbench(spec);
  ASSERT_NE(tb.ptm, nullptr);
  const auto result = ss::run_transient(tb.circuit, tb.suggested_tstop);
  EXPECT_GE(tb.ptm->imt_count(), 1);
  // Gate eventually reaches ~0 (fully on).
  const Waveform gate = Waveform::from_tran(result, tb.gate_signal);
  EXPECT_LT(gate.value(result.time.back()), 0.1);
}

TEST(PowerGate, HeaderPtmCardIsConsistent) {
  const auto ptm = sc::PowerGateSpec::default_header_ptm();
  EXPECT_NO_THROW(ptm.validate());
  EXPECT_LT(ptm.r_ins, sd::PtmParams{}.r_ins);  // scaled for the wide header
}
