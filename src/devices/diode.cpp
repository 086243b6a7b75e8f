#include "devices/diode.hpp"

#include "sim/ac.hpp"
#include <cmath>
#include <vector>

#include "devices/common.hpp"

namespace softfet::devices {

namespace {
// exp with a linear extension above kExpCap so Newton iterates stay finite.
[[nodiscard]] double exp_safe(double x) {
  if (x <= Diode::kExpCap) return std::exp(x);
  return std::exp(Diode::kExpCap) * (1.0 + (x - Diode::kExpCap));
}
[[nodiscard]] double exp_safe_deriv(double x) {
  return x <= Diode::kExpCap ? std::exp(x) : std::exp(Diode::kExpCap);
}
}  // namespace

Diode::Diode(std::string name, sim::NodeId anode, sim::NodeId cathode,
             const DiodeParams& params)
    : Device(std::move(name)), anode_(anode), cathode_(cathode),
      params_(params) {}

void Diode::setup(sim::Circuit& circuit) {
  ua_ = circuit.node_unknown(anode_);
  uc_ = circuit.node_unknown(cathode_);
}

void Diode::evaluate(const DiodeParams& params, double v, double& i,
                     double& g) {
  const double nvt = params.emission * params.v_thermal;
  const double x = v / nvt;
  i = params.i_sat * (exp_safe(x) - 1.0);
  g = params.i_sat * exp_safe_deriv(x) / nvt;
}

void Diode::load(const std::vector<double>& x, sim::Stamper& stamper,
                 const sim::LoadContext& /*ctx*/) {
  const double v = voltage_of(x, ua_) - voltage_of(x, uc_);
  double i = 0.0;
  double g = 0.0;
  evaluate(params_, v, i, g);
  stamper.add_residual(ua_, i);
  stamper.add_residual(uc_, -i);
  stamper.add_jacobian(ua_, ua_, g);
  stamper.add_jacobian(ua_, uc_, -g);
  stamper.add_jacobian(uc_, ua_, -g);
  stamper.add_jacobian(uc_, uc_, g);
}

void Diode::load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
                    double /*omega*/) {
  const double v = voltage_of(x_op, ua_) - voltage_of(x_op, uc_);
  double i = 0.0;
  double g = 0.0;
  evaluate(params_, v, i, g);
  ac.add_admittance(ua_, uc_, g);
}

}  // namespace softfet::devices
