#include "cells/hyperfet.hpp"

#include <cmath>

#include "devices/resistor.hpp"
#include "sim/analyses.hpp"
#include "util/error.hpp"

namespace softfet::cells {

namespace sd = softfet::devices;

HyperFetCell add_hyperfet_nmos(sim::Circuit& circuit, const std::string& name,
                               sim::NodeId d, sim::NodeId g, sim::NodeId s,
                               const devices::MosfetModel& model,
                               const devices::MosfetDims& dims,
                               const devices::PtmParams& ptm) {
  HyperFetCell cell;
  cell.internal_source = circuit.node(name + ".si");
  cell.mosfet = circuit.add<sd::Mosfet>(name + ".m", d, g,
                                        cell.internal_source, s, model, dims);
  cell.ptm = circuit.add<sd::Ptm>(name + ".ptm", cell.internal_source, s, ptm);
  return cell;
}

namespace {

[[nodiscard]] std::vector<double> vgs_points(double vgs_max, int points) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    v.push_back(vgs_max * static_cast<double>(i) /
                static_cast<double>(points - 1));
  }
  return v;
}

}  // namespace

TransferCurve hyperfet_transfer_curve(const devices::MosfetModel& model,
                                      const devices::MosfetDims& dims,
                                      const devices::PtmParams& ptm,
                                      double vds, double vgs_max, int points) {
  if (points < 2) throw Error("transfer curve needs >= 2 points");
  sim::Circuit c;
  const auto d = c.node("d");
  const auto g = c.node("g");
  c.add<sd::VSource>("Vd", d, sim::kGroundNode, sd::SourceSpec::dc(vds));
  c.add<sd::VSource>("Vg", g, sim::kGroundNode, sd::SourceSpec::dc(0.0));
  add_hyperfet_nmos(c, "hf", d, g, sim::kGroundNode, model, dims, ptm);

  TransferCurve curve;
  curve.vgs = vgs_points(vgs_max, points);
  const auto sweep = sim::dc_sweep(c, "Vg", curve.vgs);
  for (const double i_vd : sweep.table.signal("i(vd)")) {
    curve.id.push_back(-i_vd);  // drain supply sources the drain current
  }
  return curve;
}

TransferCurve mosfet_transfer_curve(const devices::MosfetModel& model,
                                    const devices::MosfetDims& dims,
                                    double vds, double vgs_max, int points) {
  if (points < 2) throw Error("transfer curve needs >= 2 points");
  sim::Circuit c;
  const auto d = c.node("d");
  const auto g = c.node("g");
  c.add<sd::VSource>("Vd", d, sim::kGroundNode, sd::SourceSpec::dc(vds));
  c.add<sd::VSource>("Vg", g, sim::kGroundNode, sd::SourceSpec::dc(0.0));
  c.add<sd::Mosfet>("m", d, g, sim::kGroundNode, sim::kGroundNode, model,
                    dims);

  TransferCurve curve;
  curve.vgs = vgs_points(vgs_max, points);
  const auto sweep = sim::dc_sweep(c, "Vg", curve.vgs);
  for (const double i_vd : sweep.table.signal("i(vd)")) {
    curve.id.push_back(-i_vd);
  }
  return curve;
}

namespace {

/// Build and read one n x n crossbar: cell (0,0) selected with resistance
/// `r_selected`; all other cells `r_others`. Unselected lines float.
[[nodiscard]] double crossbar_read_current(int n, double r_selected,
                                           double r_others, bool with_selector,
                                           const devices::PtmParams& ptm,
                                           double v_read) {
  sim::Circuit c;
  const auto wl0 = c.node("wl0");
  const auto bl0 = c.node("bl0");
  c.add<sd::VSource>("Vread", wl0, sim::kGroundNode,
                     sd::SourceSpec::dc(v_read));
  // Sense at virtual ground: a 0V source whose branch current is the read
  // current.
  c.add<sd::VSource>("Vsense", bl0, sim::kGroundNode, sd::SourceSpec::dc(0.0));

  for (int row = 0; row < n; ++row) {
    for (int col = 0; col < n; ++col) {
      const auto wl = c.node("wl" + std::to_string(row));
      const auto bl = c.node("bl" + std::to_string(col));
      // Appended, not `"c" + ...`: GCC 12 reports a false -Wrestrict
      // inside libstdc++'s operator+ for that form.
      const std::string cell = std::string("c")
                                   .append(std::to_string(row))
                                   .append("_")
                                   .append(std::to_string(col));
      const double r = (row == 0 && col == 0) ? r_selected : r_others;
      if (with_selector) {
        const auto mid = c.node(cell + ".mid");
        c.add<sd::Ptm>(cell + ".sel", wl, mid, ptm);
        c.add<sd::Resistor>(cell + ".r", mid, bl, r);
      } else {
        c.add<sd::Resistor>(cell + ".r", wl, bl, r);
      }
    }
  }
  const auto op = sim::dc_operating_point(c);
  return std::fabs(op.unknown("i(vsense)"));
}

}  // namespace

CrossbarReadResult crossbar_read(int n, double r_cell_low, double r_cell_high,
                                 bool with_selector,
                                 const devices::PtmParams& ptm,
                                 double v_read) {
  if (n < 2) throw Error("crossbar_read: n must be >= 2");
  CrossbarReadResult result;
  // Reading a low-resistance (programmed) cell among high-resistance
  // neighbours: the easy case.
  result.selected_current = crossbar_read_current(
      n, r_cell_low, r_cell_high, with_selector, ptm, v_read);
  // Reading a high-resistance cell among low-resistance neighbours: sneak
  // paths through three low cells fake a low reading without selectors.
  result.sneak_current = crossbar_read_current(
      n, r_cell_high, r_cell_low, with_selector, ptm, v_read);
  return result;
}

}  // namespace softfet::cells
