// Smooth voltage-controlled switch: conductance blends from g_off to g_on
// with a logistic transition around the control threshold (the smoothness
// keeps Newton well-conditioned).
#pragma once

#include "sim/circuit.hpp"
#include "sim/device.hpp"

namespace softfet::devices {

struct VSwitchParams {
  double r_on = 1.0;       ///< on resistance [ohm]
  double r_off = 1e9;      ///< off resistance [ohm]
  double v_threshold = 0.5;  ///< control voltage at half transition [V]
  double v_width = 0.05;   ///< logistic transition width [V]
};

class VSwitch final : public sim::Device {
 public:
  VSwitch(std::string name, sim::NodeId p, sim::NodeId n, sim::NodeId cp,
          sim::NodeId cn, const VSwitchParams& params);

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;

 private:
  sim::NodeId p_, n_, cp_, cn_;
  VSwitchParams params_;
  int up_ = sim::kGround, un_ = sim::kGround;
  int ucp_ = sim::kGround, ucn_ = sim::kGround;
};

}  // namespace softfet::devices
