// Analysis entry points: DC operating point, DC sweep, transient.
#pragma once

#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace softfet::sim {

/// Interface for devices whose DC value a sweep can set (voltage/current
/// sources implement this).
class DcSettable {
 public:
  virtual ~DcSettable() = default;
  virtual void set_dc(double value) = 0;
};

/// Solve the DC operating point (capacitors open, inductors short, sources
/// at their t = 0 values). Falls back to gmin stepping then source stepping.
/// Throws softfet::ConvergenceError if all strategies fail.
[[nodiscard]] OpResult dc_operating_point(Circuit& circuit,
                                          const SimOptions& options = {});

/// Sweep the DC value of the named source over `values`, carrying the
/// solution and quasistatic device state (PTM phase) from point to point —
/// hysteresis loops emerge when `values` goes up then down. One run budget
/// bounds the whole sweep; tripping it throws softfet::BudgetExceededError.
[[nodiscard]] SweepResult dc_sweep(Circuit& circuit,
                                   const std::string& source_name,
                                   const std::vector<double>& values,
                                   const SimOptions& options = {});

/// Adaptive-timestep transient from t = 0 to `tstop`, starting from the DC
/// operating point. Records every accepted step: all unknowns plus device
/// probes.
[[nodiscard]] TranResult run_transient(Circuit& circuit, double tstop,
                                       const SimOptions& options = {});

}  // namespace softfet::sim
