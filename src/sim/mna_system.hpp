// Bridges a Circuit to the generic Newton solver: gathers device stamps
// into the MNA Jacobian/residual and supplies per-unknown tolerances.
#pragma once

#include <vector>

#include "numeric/newton.hpp"
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

class MnaSystem final : public numeric::NonlinearSystem {
 public:
  /// `circuit` must be prepared; `context` is shared with the analysis
  /// driver which mutates time/dt/method between solves.
  MnaSystem(Circuit& circuit, const SimOptions& options, LoadContext& context);

  [[nodiscard]] std::size_t size() const override;
  void load(const std::vector<double>& x, numeric::SparseMatrix& jacobian,
            std::vector<double>& residual) override;
  [[nodiscard]] double abstol(std::size_t unknown) const override;
  [[nodiscard]] double max_step(std::size_t unknown) const override;
  [[nodiscard]] std::string unknown_label(std::size_t unknown) const override;

  /// Failure-path attribution: re-stamp each device in isolation at `x` and
  /// name the one contributing a non-finite entry anywhere, or failing that
  /// the largest-magnitude residual contribution to row `unknown`. Returns
  /// "" when nothing stamps that row (e.g. a structurally empty equation).
  [[nodiscard]] std::string blame_device(const std::vector<double>& x,
                                         std::size_t unknown) const;

  /// Shunt conductance to ground on every node (homotopy knob).
  void set_gmin(double gmin) noexcept { gmin_ = gmin; }
  [[nodiscard]] double gmin() const noexcept { return gmin_; }

 private:
  Circuit& circuit_;
  LoadContext& context_;
  double gmin_;
  MnaScales scales_;
};

}  // namespace softfet::sim
