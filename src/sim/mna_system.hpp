// The MNA view of a prepared Circuit: per-unknown Newton scales, the gmin
// shunts, one whole load into a Jacobian and residual, and failure
// attribution to a device.
#pragma once

#include <string>
#include <vector>

#include "numeric/sparse_matrix.hpp"
#include "sim/circuit.hpp"
#include "sim/options.hpp"
#include "sim/stamper.hpp"

namespace softfet::sim {

/// Per-unknown Newton scales of an MNA system: the first `voltage_unknowns`
/// unknowns are node voltages (vabstol, v_max_step clamp), the rest branch
/// currents (iabstol, unlimited).
struct MnaScales {
  const SimOptions* options = nullptr;
  std::size_t voltage_unknowns = 0;

  [[nodiscard]] double abstol(std::size_t unknown) const {
    return unknown < voltage_unknowns ? options->vabstol : options->iabstol;
  }
  [[nodiscard]] double max_step(std::size_t unknown) const {
    return unknown < voltage_unknowns ? options->v_max_step : 0.0;
  }
};

/// gmin shunts to ground on every node, stamped after the devices: they keep
/// otherwise-floating nodes (capacitor-only, gate nodes in DC) numerically
/// pinned.
void stamp_gmin_shunts(Stamper& stamper, const std::vector<double>& x,
                       std::size_t voltage_unknowns, double gmin);

class MnaSystem {
 public:
  /// `circuit` must be prepared; `context` is the load context of every
  /// load and attribution. No option changes the load: the shunts are kGmin.
  MnaSystem(Circuit& circuit, const SimOptions& options, LoadContext& context);

  [[nodiscard]] std::size_t size() const;
  /// Every device's load at `x`, then the gmin shunts, into `jacobian` and
  /// `residual` (both pre-zeroed by the caller). The engine loads through
  /// the lane (step_control.hpp); perfbench/ times this one.
  void load(const std::vector<double>& x, numeric::SparseMatrix& jacobian,
            std::vector<double>& residual);

  /// Failure-path attribution: re-stamp each device in isolation at `x` and
  /// name the one contributing a non-finite entry anywhere, or failing that
  /// the largest-magnitude residual contribution to row `unknown`. Returns
  /// "" when nothing stamps that row (e.g. a structurally empty equation).
  [[nodiscard]] std::string blame_device(const std::vector<double>& x,
                                         std::size_t unknown) const;

 private:
  Circuit& circuit_;
  LoadContext& context_;
  std::size_t voltage_unknowns_;
};

}  // namespace softfet::sim
