// Parameter-sweep studies over the Soft-FET inverter:
//  - PTM threshold design space (paper Fig. 6),
//  - intrinsic switching time T_PTM (paper Fig. 8),
//  - input slew rate (paper Fig. 9),
//  - slew/T_PTM ratio ablation (paper Section IV.E recommendation).
#pragma once

#include <optional>
#include <vector>

#include "core/characterize.hpp"
#include "core/checkpointing.hpp"
#include "core/failure.hpp"

namespace softfet::core {

struct DesignSpacePoint {
  double v_imt = 0.0;
  double v_mit = 0.0;
  TransitionMetrics metrics;
  /// Set when this point's characterization failed (after a tightened
  /// retry); `metrics` is then default-initialized and must be ignored.
  std::optional<FailureRecord> failure;
};

/// Grid sweep of (V_IMT, V_MIT); infeasible combinations (v_mit >= v_imt)
/// are skipped. `base.dut.ptm` must be set.
///
/// With `checkpoint.path` set, completed grid points (scalar metrics and
/// isolated failures — never cancel-poisoned ones) persist via atomic saves;
/// a rerun against the same file skips them and reproduces the
/// uninterrupted sweep bitwise, except that resumed points carry empty
/// `metrics.tran` waveforms. The file's tag binds it to this exact grid.
///
/// `lanes` selects the batched lockstep transient engine: 0 = auto (8-lane
/// blocks, whenever the engine supports `options`), 1 = the scalar oracle
/// path, K > 1 = explicit block width. Evicted lanes transparently rerun on
/// the scalar path. Results and checkpoint payloads are bitwise identical
/// for every setting, in both determinism modes.
[[nodiscard]] std::vector<DesignSpacePoint> sweep_vimt_vmit(
    const cells::InverterTestbenchSpec& base, const std::vector<double>& v_imt,
    const std::vector<double>& v_mit, const sim::SimOptions& options = {},
    const CheckpointSpec& checkpoint = {}, int lanes = 0);

struct TptmPoint {
  double t_ptm = 0.0;
  TransitionMetrics metrics;
  std::optional<FailureRecord> failure;  ///< see DesignSpacePoint::failure
};

[[nodiscard]] std::vector<TptmPoint> sweep_tptm(
    const cells::InverterTestbenchSpec& base,
    const std::vector<double>& t_ptm_values, const sim::SimOptions& options = {});

struct SlewPoint {
  double input_transition = 0.0;
  TransitionMetrics soft;      ///< Soft-FET inverter
  TransitionMetrics baseline;  ///< plain CMOS at the same slew
  /// First failure of either the soft or baseline run at this slew; the
  /// reduction accessors are meaningless when set.
  std::optional<FailureRecord> failure;
  /// Percent I_MAX reduction of the Soft-FET versus baseline.
  [[nodiscard]] double imax_reduction_pct() const {
    return 100.0 * (1.0 - soft.i_max / baseline.i_max);
  }
  [[nodiscard]] double didt_reduction_pct() const {
    return 100.0 * (1.0 - soft.max_didt / baseline.max_didt);
  }
};

[[nodiscard]] std::vector<SlewPoint> sweep_slew(
    const cells::InverterTestbenchSpec& base,
    const std::vector<double>& transitions, const sim::SimOptions& options = {});

struct RatioPoint {
  double slew = 0.0;
  double t_ptm = 0.0;
  double ratio = 0.0;  ///< slew / t_ptm
  double imax_reduction_pct = 0.0;
  double delay_penalty = 0.0;  ///< delay / baseline delay
  /// Failure of this grid point or of its per-slew baseline reference.
  std::optional<FailureRecord> failure;
};

/// 2-D (slew, T_PTM) ablation supporting the paper's "ratio 1.5-3" guidance.
[[nodiscard]] std::vector<RatioPoint> sweep_slew_tptm_ratio(
    const cells::InverterTestbenchSpec& base, const std::vector<double>& slews,
    const std::vector<double>& t_ptms, const sim::SimOptions& options = {});

}  // namespace softfet::core
