// Compact MOSFET model: EKV-style continuous interpolation from weak to
// strong inversion with channel-length modulation and mobility reduction,
// plus constant gate/junction capacitances.
//
// The model is smooth everywhere (softplus-based), has analytic
// derivatives, exact exponential subthreshold behaviour — which the
// paper's HVT-at-low-VCC comparison (Fig. 5) depends on — and is
// antisymmetric under source/drain exchange.
#pragma once

#include <string>

#include "sim/circuit.hpp"
#include "sim/companion.hpp"
#include "sim/device.hpp"

namespace softfet::devices {

enum class MosPolarity { kNmos, kPmos };

/// Model equation set.
///  - kEkv: the default continuous weak->strong inversion interpolation.
///  - kSquareLaw: lightly-smoothed Shichman-Hodges Level-1 (quadratic
///    saturation, linear triode, ~zero subthreshold) — the classic
///    first-order model, kept for comparison studies and teaching.
enum class MosfetLevel { kEkv, kSquareLaw };

struct MosfetModel {
  MosPolarity polarity = MosPolarity::kNmos;
  MosfetLevel level = MosfetLevel::kEkv;
  double vt0 = 0.35;     ///< threshold voltage magnitude [V]
  double n = 1.35;       ///< subthreshold slope factor
  double kp = 500e-6;    ///< transconductance factor mu*Cox [A/V^2]
  double lambda = 0.15;  ///< channel-length modulation [1/V]
  double theta = 1.5;    ///< mobility reduction / velocity-sat proxy [1/V]
  double v_thermal = 0.02585;  ///< kT/q [V]

  // Capacitances (constant, Meyer-style partition).
  double cox = 0.025;  ///< gate oxide capacitance [F/m^2]
  double cov = 3e-10;  ///< gate overlap capacitance per width [F/m]
  double cj = 8e-10;   ///< drain/source junction capacitance per width [F/m]

  /// Copy of the model with a different threshold magnitude (HVT variants).
  [[nodiscard]] MosfetModel with_vt(double vt) const {
    MosfetModel m = *this;
    m.vt0 = vt;
    return m;
  }
};

struct MosfetDims {
  double w = 120e-9;  ///< channel width [m]
  double l = 40e-9;   ///< channel length [m]
  double m = 1.0;     ///< parallel multiplier
};

/// DC solution of the intrinsic transistor in NMOS-equivalent quantities.
struct MosOperatingPoint {
  double id = 0.0;   ///< drain current, positive d->s [A]
  double gm = 0.0;   ///< d id / d vgs [S]
  double gds = 0.0;  ///< d id / d vds [S]
};

/// Evaluate the intrinsic DC model with NMOS-equivalent terminal voltages
/// (polarity mirroring is the caller's job; the Mosfet device does it).
/// Handles vds < 0 by source/drain exchange.
[[nodiscard]] MosOperatingPoint mosfet_evaluate(const MosfetModel& model,
                                                const MosfetDims& dims,
                                                double vgs, double vds);

class Mosfet final : public sim::Device {
 public:
  Mosfet(std::string name, sim::NodeId drain, sim::NodeId gate,
         sim::NodeId source, sim::NodeId bulk, const MosfetModel& model,
         const MosfetDims& dims);

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;
  void init_state(const std::vector<double>& x_op) override;
  void accept_step(const std::vector<double>& x,
                   const sim::LoadContext& ctx) override;
  [[nodiscard]] std::vector<sim::Probe> probes() const override;
  void probe_values(std::vector<double>& out) const override {
    out.push_back(last_id_);
  }

  /// Conduction (channel) current at the last accepted point, NMOS-positive
  /// drain->source convention.
  [[nodiscard]] double last_id() const noexcept { return last_id_; }

  [[nodiscard]] const MosfetModel& model() const noexcept { return model_; }
  [[nodiscard]] const MosfetDims& dims() const noexcept { return dims_; }

  /// Total gate input capacitance (cgs + cgd) — handy for sizing loads.
  [[nodiscard]] double gate_capacitance() const noexcept;

 private:
  struct CapBranch {
    sim::CompanionCap companion;
    int ua = sim::kGround;
    int ub = sim::kGround;
    double c = 0.0;
  };

  [[nodiscard]] double channel_current(const std::vector<double>& x,
                                       MosOperatingPoint* op = nullptr) const;
  void stamp_cap(CapBranch& cap, const std::vector<double>& x,
                 sim::Stamper& stamper, const sim::LoadContext& ctx) const;

  sim::NodeId d_, g_, s_, b_;
  MosfetModel model_;
  MosfetDims dims_;
  int ud_ = sim::kGround, ug_ = sim::kGround, us_ = sim::kGround,
      ub_ = sim::kGround;
  CapBranch cgs_, cgd_, cdb_, csb_;
  double last_id_ = 0.0;
  std::string probe_name_;
};

}  // namespace softfet::devices
