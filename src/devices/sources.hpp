// Independent voltage and current sources with DC / PULSE / PWL / SIN
// waveforms (SPICE semantics, including pulse periodicity).
#pragma once

#include <vector>

#include "numeric/interp.hpp"
#include "sim/analyses.hpp"
#include "sim/circuit.hpp"
#include "sim/device.hpp"

namespace softfet::devices {

/// Time-dependent source waveform description.
class SourceSpec {
 public:
  /// Constant value.
  static SourceSpec dc(double value);

  /// SPICE PULSE(v1 v2 td tr tf pw per); per <= 0 makes it one-shot.
  static SourceSpec pulse(double v1, double v2, double td, double tr, double tf,
                          double pw, double period = 0.0);

  /// Piecewise-linear waveform (points sorted by time).
  static SourceSpec pwl(std::vector<numeric::PwlPoint> points);

  /// vo + va*sin(2*pi*freq*(t - td)).
  static SourceSpec sine(double vo, double va, double freq, double td = 0.0);

  /// A voltage ramp from v0 to v1 starting at t0 lasting `ramp` seconds —
  /// the paper's standard input stimulus.
  static SourceSpec ramp(double v0, double v1, double t0, double ramp_time);

  [[nodiscard]] double value(double time) const;

  /// Next waveform corner strictly after `time` (kNeverTime when none).
  [[nodiscard]] double next_breakpoint(double time) const;

  /// Is this a plain DC spec?
  [[nodiscard]] bool is_dc() const noexcept { return kind_ == Kind::kDc; }

  void set_dc_value(double value);

  /// AC small-signal magnitude (SPICE "AC <mag>"); 0 = quiet in AC.
  [[nodiscard]] double ac_magnitude() const noexcept { return ac_mag_; }
  void set_ac_magnitude(double mag) noexcept { ac_mag_ = mag; }

 private:
  enum class Kind { kDc, kPulse, kPwl, kSin };

  SourceSpec() = default;

  Kind kind_ = Kind::kDc;
  double dc_ = 0.0;
  // pulse
  double v1_ = 0.0, v2_ = 0.0, td_ = 0.0, tr_ = 0.0, tf_ = 0.0, pw_ = 0.0,
         per_ = 0.0;
  // pwl
  numeric::PwlCurve pwl_;
  // sin
  double vo_ = 0.0, va_ = 0.0, freq_ = 0.0, sin_td_ = 0.0;
  double ac_mag_ = 0.0;
};

/// Independent voltage source; its branch current is an MNA unknown
/// recorded as "i(<name>)" (SPICE sign convention: current flowing from the
/// + node through the source, so a supply sourcing current reads negative).
class VSource final : public sim::Device, public sim::DcSettable {
 public:
  VSource(std::string name, sim::NodeId p, sim::NodeId n, SourceSpec spec);

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;
  [[nodiscard]] double next_breakpoint(double time) const override;
  void set_dc(double value) override;

  [[nodiscard]] const SourceSpec& spec() const noexcept { return spec_; }

  /// Unknown index of the branch current (valid after prepare()).
  [[nodiscard]] int branch_unknown() const noexcept { return branch_; }

 private:
  sim::NodeId p_;
  sim::NodeId n_;
  SourceSpec spec_;
  int up_ = sim::kGround;
  int un_ = sim::kGround;
  int branch_ = sim::kGround;
};

/// Independent current source: current flows from node p through the source
/// to node n.
class ISource final : public sim::Device, public sim::DcSettable {
 public:
  ISource(std::string name, sim::NodeId p, sim::NodeId n, SourceSpec spec);

  void setup(sim::Circuit& circuit) override;
  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override;
  void load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
               double omega) override;
  [[nodiscard]] double next_breakpoint(double time) const override;
  void set_dc(double value) override;

 private:
  sim::NodeId p_;
  sim::NodeId n_;
  SourceSpec spec_;
  int up_ = sim::kGround;
  int un_ = sim::kGround;
};

}  // namespace softfet::devices
