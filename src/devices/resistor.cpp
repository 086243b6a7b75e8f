#include "devices/resistor.hpp"

#include "sim/ac.hpp"
#include "devices/common.hpp"
#include "util/error.hpp"

namespace softfet::devices {

Resistor::Resistor(std::string name, sim::NodeId p, sim::NodeId n,
                   double resistance)
    : Device(std::move(name)), p_(p), n_(n), resistance_(resistance) {
  if (!(resistance > 0.0)) {
    throw InvalidCircuitError("resistor " + this->name() +
                              ": resistance must be positive");
  }
}

void Resistor::setup(sim::Circuit& circuit) {
  up_ = circuit.node_unknown(p_);
  un_ = circuit.node_unknown(n_);
}

void Resistor::load(const std::vector<double>& x, sim::Stamper& stamper,
                    const sim::LoadContext& /*ctx*/) {
  stamper.add_conductance(up_, un_, 1.0 / resistance_, voltage_of(x, up_),
                          voltage_of(x, un_));
}

void Resistor::load_ac(const std::vector<double>& /*x_op*/, sim::AcStamper& ac,
                       double /*omega*/) {
  ac.add_admittance(up_, un_, 1.0 / resistance_);
}

}  // namespace softfet::devices
