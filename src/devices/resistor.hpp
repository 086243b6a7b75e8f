// Linear two-terminal resistor.
#pragma once

#include "sim/circuit.hpp"
#include "sim/device.hpp"

namespace softfet::devices {

class Resistor final : public sim::Device {
 public:
  Resistor(std::string name, sim::NodeId p, sim::NodeId n, double resistance);

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;

  [[nodiscard]] double resistance() const noexcept { return resistance_; }

 private:
  sim::NodeId p_;
  sim::NodeId n_;
  double resistance_;
  int up_ = sim::kGround;
  int un_ = sim::kGround;
};

}  // namespace softfet::devices
