#include "cells/ring_oscillator.hpp"

#include "util/error.hpp"

namespace softfet::cells {

namespace sd = softfet::devices;

RingOscillator make_ring_oscillator(const RingOscillatorSpec& spec) {
  if (spec.stages < 3 || spec.stages % 2 == 0) {
    throw InvalidCircuitError("ring oscillator needs an odd stage count >= 3");
  }
  RingOscillator ring;
  ring.vcc = spec.vcc;
  auto& c = ring.circuit;
  const auto vdd = c.node("vdd");
  c.add<sd::VSource>("Vdd", vdd, sim::kGroundNode,
                     sd::SourceSpec::dc(spec.vcc));

  // Nodes n0..n(N-1); stage k drives n(k) from n(k-1 mod N). Names are
  // appended, not `"n" + std::to_string(k)`: GCC 12 reports a false
  // -Wrestrict inside libstdc++'s operator+ for that form.
  std::vector<sim::NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(spec.stages));
  for (int k = 0; k < spec.stages; ++k) {
    nodes.push_back(c.node(std::string("n").append(std::to_string(k))));
  }
  for (int k = 0; k < spec.stages; ++k) {
    const auto in = nodes[static_cast<std::size_t>(
        (k + spec.stages - 1) % spec.stages)];
    const std::string stage = std::string("s").append(std::to_string(k));
    ring.stages.push_back(add_inverter(c, stage, in,
                                       nodes[static_cast<std::size_t>(k)],
                                       vdd, sim::kGroundNode, spec.inverter));
  }

  // The odd ring's DC solution is the metastable all-at-VM point; kick one
  // node so the transient falls into oscillation.
  c.add<sd::ISource>(
      "Ikick", sim::kGroundNode, nodes[0],
      sd::SourceSpec::pulse(0.0, spec.kick_current, 10e-12, 1e-12, 1e-12,
                            spec.kick_duration));

  ring.tap_signal = "v(n0)";
  ring.supply_current_signal = "i(vdd)";
  return ring;
}

}  // namespace softfet::cells
