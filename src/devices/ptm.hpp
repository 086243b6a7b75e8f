// Phase Transition Material (PTM) two-terminal device.
//
// Substitutes the Verilog-A VO2 model the paper simulates with: a hysteretic
// resistor that abruptly switches between an insulating resistance R_INS and
// a metallic resistance R_MET.
//
// Behaviour (paper Section II, Fig. 2):
//  - insulating until the voltage magnitude across the device reaches V_IMT,
//    then an insulator->metal transition (IMT) begins;
//  - metallic until the magnitude falls to V_MIT, then a metal->insulator
//    transition (MIT) begins;
//  - each transition takes the intrinsic switching time T_PTM, modelled as a
//    constant-rate motion of the phase variable s in [0, 1]; the resistance
//    follows R(s) under the configurable PtmResistanceLaw (linear default).
//
// Threshold crossings are reported to the transient engine as events so the
// step lands exactly on the crossing; while the phase is in motion the
// device caps the timestep at T_PTM/5.
#pragma once

#include <cstdint>

#include "sim/circuit.hpp"
#include "sim/device.hpp"

namespace softfet::devices {

/// How the resistance interpolates while the phase variable s moves between
/// the insulating (s = 0) and metallic (s = 1) endpoints.
///  - kLinear: R(s) = (1-s)*R_INS + s*R_MET. The resistance recovers sharply
///    as soon as a metal->insulator transition starts, which reproduces the
///    crisp staircase steps of the paper's Verilog-A model (each metallic
///    excursion moves the soft node by ~V_IMT - V_MIT and stops).
///  - kLogarithmic: R(s) = R_INS^(1-s) * R_MET^s. The device lingers near
///    R_MET for most of the recovery; an alternative filament-style law
///    kept for ablation studies.
enum class PtmResistanceLaw : std::uint8_t { kLinear, kLogarithmic };

/// Default card: the paper's Fig. 4 experimental VO2 values (R_INS = 500k,
/// R_MET = 5k, T_PTM = 10 ps, V_IMT = 0.4 V) with V_MIT calibrated to 0.3 V
/// so the metallic catch-up re-insulates mid-edge against this technology
/// card's Miller-loaded gate capacitance (see DESIGN.md).
struct PtmParams {
  double r_ins = 500e3;   ///< insulating-state resistance [ohm]
  double r_met = 5e3;     ///< metallic-state resistance [ohm]
  double v_imt = 0.4;     ///< insulator->metal threshold voltage [V]
  double v_mit = 0.3;     ///< metal->insulator threshold voltage [V]
  double t_ptm = 10e-12;  ///< intrinsic phase switching time [s]
  PtmResistanceLaw law = PtmResistanceLaw::kLinear;

  /// Derived current thresholds (paper: I_IMT = V_IMT/R_INS etc.).
  [[nodiscard]] double i_imt() const noexcept { return v_imt / r_ins; }
  [[nodiscard]] double i_mit() const noexcept { return v_mit / r_met; }

  /// Throws InvalidCircuitError when inconsistent.
  void validate() const;
};

enum class PtmPhase : std::uint8_t { kInsulating, kMetallic };

class Ptm final : public sim::Device {
 public:
  Ptm(std::string name, sim::NodeId p, sim::NodeId n, const PtmParams& params);

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;
  void init_state(const std::vector<double>& x_op) override;
  void accept_step(const std::vector<double>& x,
                   const sim::LoadContext& ctx) override;
  double event_time(const std::vector<double>& x, double t_start,
                    double t_end) const override;
  [[nodiscard]] double max_timestep() const override;
  [[nodiscard]] std::vector<sim::Probe> probes() const override;
  void probe_values(std::vector<double>& out) const override {
    out.push_back(last_i_);
    out.push_back(resistance());
    out.push_back(s_);
  }
  void reset_state() override {
    s_ = 0.0;
    target_ = PtmPhase::kInsulating;
    v_prev_ = 0.0;
    last_i_ = 0.0;
    imt_count_ = 0;
    mit_count_ = 0;
  }
  bool update_quasistatic_state(const std::vector<double>& x) override;

  [[nodiscard]] const PtmParams& params() const noexcept { return params_; }
  [[nodiscard]] PtmPhase target_phase() const noexcept { return target_; }
  /// Phase position s in [0, 1]: 0 = fully insulating, 1 = fully metallic.
  [[nodiscard]] double phase_position() const noexcept { return s_; }
  /// Instantaneous resistance at the current phase position.
  [[nodiscard]] double resistance() const noexcept;

  [[nodiscard]] long imt_count() const noexcept { return imt_count_; }
  [[nodiscard]] long mit_count() const noexcept { return mit_count_; }
  void reset_transition_counts() noexcept {
    imt_count_ = 0;
    mit_count_ = 0;
  }

  /// R(s) under the configured resistance law, exposed for tests.
  [[nodiscard]] static double resistance_at(const PtmParams& params, double s);

 private:
  [[nodiscard]] double voltage_across(const std::vector<double>& x) const;
  /// Phase position after advancing `dt` toward the current target.
  [[nodiscard]] double projected_phase(double dt) const;
  void maybe_flip_target(double v);
  /// R(s) like resistance_at but using the cached std::log values — the
  /// same doubles resistance_at computes, so results are bit-identical
  /// while load() skips two logs per Newton iteration.
  [[nodiscard]] double resistance_cached(double s) const;

  sim::NodeId p_;
  sim::NodeId n_;
  PtmParams params_;
  double log_r_ins_ = 0.0;
  double log_r_met_ = 0.0;
  int up_ = sim::kGround;
  int un_ = sim::kGround;

  double s_ = 0.0;  // start fully insulating
  PtmPhase target_ = PtmPhase::kInsulating;
  double v_prev_ = 0.0;
  long imt_count_ = 0;
  long mit_count_ = 0;
  double last_i_ = 0.0;
  std::string probe_i_, probe_r_, probe_s_;
};

}  // namespace softfet::devices
