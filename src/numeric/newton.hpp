// Newton-Raphson building blocks shared by every solve of the engine's one
// Newton iteration (sim/step_control.hpp): the damped, SPICE-style update
// with per-unknown absolute tolerances (voltages and branch currents differ
// by orders of magnitude) plus a relative term, the non-finite guard, and
// the structured failure reasons a solve reports instead of throwing, so an
// analysis can feed its recovery ladder rather than unwind the whole run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace softfet::numeric {

/// Why a solve stopped without converging.
enum class NewtonFailure {
  kNone,              ///< converged
  kMaxIterations,     ///< iteration budget exhausted
  kNonFiniteResidual, ///< NaN/Inf in F(x) from a device evaluation
  kNonFiniteUpdate,   ///< NaN/Inf in the Newton update dx
  kSingularMatrix,    ///< Jacobian factorization hit a vanishing pivot
};

[[nodiscard]] const char* to_string(NewtonFailure failure);

/// Sentinel for "no unknown identified".
inline constexpr std::size_t kNoUnknown = static_cast<std::size_t>(-1);

/// Index of the first non-finite entry of `v`, or kNoUnknown.
[[nodiscard]] std::size_t first_non_finite(const std::vector<double>& v);

/// One Newton update: per unknown, clamp dx[i] to ±scales.max_step(i)
/// (0 = unlimited), apply x[i] += dx[i], then test |dx[i]| against
/// reltol·max(|x_new|, |x_old|) + scales.abstol(i). True when all pass.
template <class Scales>
[[nodiscard]] bool apply_newton_update(std::vector<double>& x,
                                       std::vector<double>& dx, double reltol,
                                       const Scales& scales) {
  bool converged = true;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const double limit = scales.max_step(i);
    if (limit > 0.0) dx[i] = std::clamp(dx[i], -limit, limit);
    const double x_old = x[i];
    x[i] += dx[i];
    const double tol =
        reltol * std::max(std::fabs(x[i]), std::fabs(x_old)) + scales.abstol(i);
    if (std::fabs(dx[i]) > tol) converged = false;
  }
  return converged;
}

}  // namespace softfet::numeric
