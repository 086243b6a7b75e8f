// Device interface: every circuit element implements this.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/stamper.hpp"

namespace softfet::sim {

class Circuit;

enum class AnalysisMode {
  kDcOp,       ///< capacitors open, inductors short, sources at time 0
  kTransient,  ///< companion models active
};

enum class IntegrationMethod { kBackwardEuler, kTrapezoidal };

/// Per-evaluation context passed to Device::load.
struct LoadContext {
  AnalysisMode mode = AnalysisMode::kDcOp;
  IntegrationMethod method = IntegrationMethod::kBackwardEuler;
  double time = 0.0;          ///< end-of-step time being solved for [s]
  double dt = 0.0;            ///< step size (0 in DC) [s]
  double source_scale = 1.0;  ///< source-stepping homotopy factor (DC only)
};

/// Value used by devices when they have no breakpoint/event to report.
inline constexpr double kNeverTime = std::numeric_limits<double>::infinity();

/// A named probe value (e.g. {"id(m1)", 1.2e-5}).
using Probe = std::pair<std::string, double>;

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Resolve node ids to unknown indices; claim branch unknowns.
  /// Called once when the circuit is prepared for analysis.
  virtual void setup(Circuit& circuit) = 0;

  /// Add this device's residual and Jacobian contributions at solution `x`.
  virtual void load(const std::vector<double>& x, Stamper& stamper,
                    const LoadContext& ctx) = 0;

  // --- State hooks (defaults are no-ops for memoryless devices) --------

  /// Initialize internal state from the DC operating point.
  virtual void init_state(const std::vector<double>& x_op) { (void)x_op; }

  /// Commit internal state at the end of an accepted step ending at `time`.
  /// `ctx` matches the LoadContext the step was solved with.
  virtual void accept_step(const std::vector<double>& x,
                           const LoadContext& ctx) {
    (void)x;
    (void)ctx;
  }

  /// If the device detects a discrete event strictly inside the candidate
  /// step (t_start, t_end) given converged solution `x`, return the
  /// estimated event time so the engine can cut the step there; otherwise
  /// return kNeverTime.
  virtual double event_time(const std::vector<double>& x, double t_start,
                            double t_end) const {
    (void)x;
    (void)t_start;
    (void)t_end;
    return kNeverTime;
  }

  /// Next known waveform corner strictly after `time` (PWL/pulse edges);
  /// the engine lands a step exactly on it.
  [[nodiscard]] virtual double next_breakpoint(double time) const {
    (void)time;
    return kNeverTime;
  }

  /// Largest timestep this device tolerates right now (e.g. a PTM mid-
  /// transition wants steps well below its switching time).
  [[nodiscard]] virtual double max_timestep() const { return kNeverTime; }

  /// Named currents/values recorded per accepted point (after accept_step).
  [[nodiscard]] virtual std::vector<Probe> probes() const { return {}; }

  /// Append this device's probe *values* to `out`, in probes() order.
  /// Row sampling runs once per accepted step, so hot devices override this
  /// to skip building the name strings probes() returns; overrides must
  /// stay consistent with probes().
  virtual void probe_values(std::vector<double>& out) const {
    for (const auto& probe : probes()) out.push_back(probe.second);
  }

  /// Restore construction-time dynamic state so the owning testbench can be
  /// re-run as if freshly elaborated (a new analysis re-derives everything
  /// else via init_state). Only devices with state that survives across
  /// runs and is *not* reset by init_state need to override.
  virtual void reset_state() {}

  /// Quasistatic state update for DC sweeps (e.g. PTM phase snapping).
  /// Returns true if state changed and the point must be re-solved.
  virtual bool update_quasistatic_state(const std::vector<double>& x) {
    (void)x;
    return false;
  }

  /// AC small-signal stamp at the DC operating point `x_op` for angular
  /// frequency `omega` [rad/s]. Defined in sim/ac.hpp; default contributes
  /// nothing (correct only for independent sources with no AC magnitude).
  virtual void load_ac(const std::vector<double>& x_op, class AcStamper& ac,
                       double omega);

 private:
  std::string name_;
};

}  // namespace softfet::sim
