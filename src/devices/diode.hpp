// Junction diode with an overflow-safe exponential.
#pragma once

#include "sim/circuit.hpp"
#include "sim/device.hpp"

namespace softfet::devices {

struct DiodeParams {
  double i_sat = 1e-14;   ///< saturation current [A]
  double emission = 1.0;  ///< ideality factor n
  double v_thermal = 0.02585;  ///< kT/q [V]
};

class Diode final : public sim::Device {
 public:
  Diode(std::string name, sim::NodeId anode, sim::NodeId cathode,
        const DiodeParams& params = {});

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;

  /// Argument above which the junction exponential is extended linearly so
  /// Newton iterates stay finite.
  static constexpr double kExpCap = 80.0;

  /// i(v) and di/dv of the junction alone (exposed for tests).
  static void evaluate(const DiodeParams& params, double v, double& i,
                       double& g);

 private:
  sim::NodeId anode_;
  sim::NodeId cathode_;
  DiodeParams params_;
  int ua_ = sim::kGround;
  int uc_ = sim::kGround;
};

}  // namespace softfet::devices
