#include "devices/vswitch.hpp"

#include "sim/ac.hpp"
#include <algorithm>
#include <cmath>

#include "devices/common.hpp"
#include "util/error.hpp"

namespace softfet::devices {

VSwitch::VSwitch(std::string name, sim::NodeId p, sim::NodeId n, sim::NodeId cp,
                 sim::NodeId cn, const VSwitchParams& params)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), params_(params) {
  if (!(params.r_on > 0.0) || !(params.r_off > params.r_on) ||
      !(params.v_width > 0.0)) {
    throw InvalidCircuitError("vswitch " + this->name() +
                              ": invalid parameters");
  }
}

void VSwitch::setup(sim::Circuit& circuit) {
  up_ = circuit.node_unknown(p_);
  un_ = circuit.node_unknown(n_);
  ucp_ = circuit.node_unknown(cp_);
  ucn_ = circuit.node_unknown(cn_);
}

void VSwitch::load(const std::vector<double>& x, sim::Stamper& stamper,
                   const sim::LoadContext& /*ctx*/) {
  const double vp = voltage_of(x, up_);
  const double vn = voltage_of(x, un_);
  const double vc = voltage_of(x, ucp_) - voltage_of(x, ucn_);

  // Logistic blend in conductance: g(vc) = g_off + (g_on - g_off) * s.
  const double g_on = 1.0 / params_.r_on;
  const double g_off = 1.0 / params_.r_off;
  const double z = (vc - params_.v_threshold) / params_.v_width;
  const double s = 1.0 / (1.0 + std::exp(-std::clamp(z, -60.0, 60.0)));
  const double g = g_off + (g_on - g_off) * s;
  const double dg_dvc = (g_on - g_off) * s * (1.0 - s) / params_.v_width;

  const double v = vp - vn;
  const double i = g * v;
  stamper.add_residual(up_, i);
  stamper.add_residual(un_, -i);
  stamper.add_jacobian(up_, up_, g);
  stamper.add_jacobian(up_, un_, -g);
  stamper.add_jacobian(un_, up_, -g);
  stamper.add_jacobian(un_, un_, g);
  // Control-voltage dependence.
  const double didc = dg_dvc * v;
  stamper.add_jacobian(up_, ucp_, didc);
  stamper.add_jacobian(up_, ucn_, -didc);
  stamper.add_jacobian(un_, ucp_, -didc);
  stamper.add_jacobian(un_, ucn_, didc);
}

void VSwitch::load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
                      double /*omega*/) {
  const double vp = voltage_of(x_op, up_);
  const double vn = voltage_of(x_op, un_);
  const double vc = voltage_of(x_op, ucp_) - voltage_of(x_op, ucn_);
  const double g_on = 1.0 / params_.r_on;
  const double g_off = 1.0 / params_.r_off;
  const double z = (vc - params_.v_threshold) / params_.v_width;
  const double s = 1.0 / (1.0 + std::exp(-std::clamp(z, -60.0, 60.0)));
  const double g = g_off + (g_on - g_off) * s;
  const double dg_dvc = (g_on - g_off) * s * (1.0 - s) / params_.v_width;
  ac.add_admittance(up_, un_, g);
  const double didc = dg_dvc * (vp - vn);
  ac.add_matrix(up_, ucp_, didc);
  ac.add_matrix(up_, ucn_, -didc);
  ac.add_matrix(un_, ucp_, -didc);
  ac.add_matrix(un_, ucn_, didc);
}

}  // namespace softfet::devices
