// PTM parameter sensitivity and variability analysis (paper contribution 3:
// "detailed PTM device parameter variations and their sensitivity to the
// Soft-FET peak current and/or di/dt reduction").
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/checkpointing.hpp"
#include "core/failure.hpp"

namespace softfet::core {

/// Normalized local sensitivities of the Soft-FET metrics to one PTM
/// parameter: percent change of metric per percent change of parameter
/// (central differences at +-delta).
struct SensitivityRow {
  std::string parameter;
  double nominal = 0.0;
  double imax_sensitivity = 0.0;   ///< %I_MAX / %param
  double didt_sensitivity = 0.0;   ///< %di/dt / %param
  double delay_sensitivity = 0.0;  ///< %delay / %param
};

/// Sensitivity of all five PTM parameters (r_ins, r_met, v_imt, v_mit,
/// t_ptm). `base.dut.ptm` must be set; `delta_fraction` is the relative
/// perturbation (0.1 = +-10%).
[[nodiscard]] std::vector<SensitivityRow> ptm_sensitivity(
    const cells::InverterTestbenchSpec& base, double delta_fraction = 0.1,
    const sim::SimOptions& options = {});

/// Monte-Carlo fabrication-variability study: PTM thresholds and
/// resistances drawn from independent Gaussians around the card.
struct MonteCarloSpec {
  int samples = 100;
  unsigned seed = 1;
  double sigma_threshold = 0.05;   ///< relative sigma of V_IMT / V_MIT
  double sigma_resistance = 0.15;  ///< relative sigma of R_INS / R_MET
  double sigma_tptm = 0.10;        ///< relative sigma of T_PTM
  /// Worker threads for the sample loop: 0 = all hardware threads,
  /// 1 = serial. Results are identical for every setting (each sample has
  /// its own RNG stream seeded from `seed` + sample index).
  int threads = 0;
  /// Rejection-sampling budget per sample before the draw is declared
  /// impossible for the given sigma_* spreads.
  int max_draw_attempts = 100;
  /// Lane width for the batched lockstep transient engine: 0 = auto
  /// (8 lanes, whenever the engine supports `options`), 1 = always the
  /// scalar oracle path, K > 1 = explicit width. Consecutive samples are
  /// grouped into K-lane blocks that share one batched factor/solve; a
  /// sample the engine evicts (cancel, failure at the minimum timestep,
  /// device-load throw) transparently reruns on the scalar path, while a
  /// lane the recovery ladder rescues stays in its block. Per-sample
  /// results are bitwise identical for every setting, in both determinism
  /// modes.
  int lanes = 0;
  /// Test / instrumentation hook: called with the sample index and the
  /// fully drawn spec just before characterization (fault injection,
  /// logging). Must be thread-safe; it runs from the worker pool and may be
  /// called more than once for one sample (isolation retries and batch
  /// eviction reruns repeat it), so it must be idempotent per index.
  std::function<void(std::size_t, cells::InverterTestbenchSpec&)>
      per_sample_hook;
  /// Checkpoint/resume: with `checkpoint.path` set, completed sample slots
  /// (and isolated failures — but never cancel-poisoned ones) persist via
  /// atomic saves every `checkpoint.flush_every` completions, on
  /// cancellation, and at the end. A rerun against the same file skips
  /// finished samples and reproduces the uninterrupted statistics bitwise
  /// (payloads are hexfloat-encoded). The file's tag binds it to this
  /// (seed, samples, sigma_*) study and to the determinism mode of the
  /// run; mismatches — including strict<->relaxed resume — are refused.
  CheckpointSpec checkpoint;
};

struct MonteCarloStats {
  /// Requested sample count; statistics cover the samples - failed_samples
  /// survivors (in index order, so results are thread-count independent).
  int samples = 0;
  double imax_mean = 0.0;
  double imax_std = 0.0;
  double imax_worst = 0.0;  ///< largest sampled I_MAX
  double delay_mean = 0.0;
  double delay_std = 0.0;
  double delay_worst = 0.0;
  /// Fraction of surviving samples that still beat the baseline I_MAX.
  double fraction_below_baseline = 0.0;
  /// Samples whose characterization failed even after a tightened-options
  /// retry; each carries the solver diagnostics of the final error. The
  /// run only throws when fewer than 2 samples survive.
  int failed_samples = 0;
  std::vector<FailureRecord> failures;
};

[[nodiscard]] MonteCarloStats ptm_monte_carlo(
    const cells::InverterTestbenchSpec& base, const MonteCarloSpec& mc = {},
    const sim::SimOptions& options = {});

}  // namespace softfet::core
