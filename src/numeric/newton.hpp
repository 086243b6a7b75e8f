// Damped Newton-Raphson for circuit-style nonlinear systems F(x) = 0.
//
// The caller supplies a NonlinearSystem that loads the Jacobian and residual
// at a given point; convergence is judged SPICE-style with per-unknown
// absolute tolerances (voltages vs branch currents differ by orders of
// magnitude) plus a relative term.
//
// Failures are reported structurally, not by throwing: a non-finite residual
// or update, a singular Jacobian, or iteration exhaustion all return a
// NewtonResult with `converged == false` and a NewtonFailure reason plus the
// offending unknown, so analysis drivers can feed a recovery ladder instead
// of unwinding the whole run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "numeric/linear_solver.hpp"
#include "numeric/sparse_matrix.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace softfet::numeric {

/// Interface the Newton loop drives.
class NonlinearSystem {
 public:
  virtual ~NonlinearSystem() = default;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Evaluate at `x`: fill `jacobian` (pre-zeroed, structure preserved) and
  /// `residual` (pre-zeroed) with F(x) and dF/dx.
  virtual void load(const std::vector<double>& x, SparseMatrix& jacobian,
                    std::vector<double>& residual) = 0;

  /// Per-unknown absolute convergence tolerance (e.g. 1uV for node voltages,
  /// 1pA for branch currents).
  [[nodiscard]] virtual double abstol(std::size_t unknown) const = 0;

  /// Largest |dx| allowed for an unknown in one Newton step (0 = unlimited).
  /// Limiting voltage steps keeps exponential devices out of overflow.
  [[nodiscard]] virtual double max_step(std::size_t /*unknown*/) const {
    return 0.0;
  }

  /// Human-readable label of an unknown for diagnostics ("v(out)", "i(l1)").
  [[nodiscard]] virtual std::string unknown_label(std::size_t unknown) const {
    return "x[" + std::to_string(unknown) + "]";
  }

  /// The Jacobian store solve_newton loads into. It lives as long as the
  /// system, so the stamp tape one solve records replays in the next.
  [[nodiscard]] SparseMatrix& jacobian() noexcept { return jacobian_; }

 private:
  SparseMatrix jacobian_;
};

struct NewtonOptions {
  int max_iterations = 100;
  double reltol = 1e-3;
  /// Residual tolerance scale; convergence also requires each residual entry
  /// below `residual_tol_scale * abstol(i)` after the dx test passes.
  double residual_tol_scale = 1e3;
  SolverKind solver = SolverKind::kAuto;
  /// Optional caller-owned linear solver shared across solve_newton calls.
  /// Passing one lets the cached sparse factorization (symbolic analysis,
  /// pivot order) survive from iteration to iteration and from timestep to
  /// timestep; `solver` above is ignored in that case (the instance's own
  /// kind wins). When null, a fresh solver is created per call.
  LinearSolver* solver_instance = nullptr;
  /// Optional armed run budget, checked at every iteration head. When it
  /// trips, the solve stops with NewtonFailure::kBudgetExhausted — reported
  /// structurally like any other failure, so the analysis driver (not this
  /// loop) decides to truncate instead of climbing its recovery ladder.
  const util::BudgetTimer* budget = nullptr;
};

/// Why a solve stopped without converging.
enum class NewtonFailure {
  kNone,              ///< converged
  kMaxIterations,     ///< iteration budget exhausted
  kNonFiniteResidual, ///< NaN/Inf in F(x) from a device evaluation
  kNonFiniteUpdate,   ///< NaN/Inf in the Newton update dx
  kSingularMatrix,    ///< Jacobian factorization hit a vanishing pivot
  kBudgetExhausted,   ///< options.budget tripped (wall clock or cancel)
};

[[nodiscard]] const char* to_string(NewtonFailure failure);

/// Sentinel for "no unknown identified".
inline constexpr std::size_t kNoUnknown = static_cast<std::size_t>(-1);

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double max_dx = 0.0;        ///< largest update in the final iteration
  double max_residual = 0.0;  ///< largest |F| entry at the solution
  NewtonFailure failure = NewtonFailure::kNone;
  /// Unknown blamed for the failure: the first non-finite entry, the
  /// singular pivot column, or the worst abstol-scaled residual.
  std::size_t worst_unknown = kNoUnknown;
  double worst_residual = 0.0;  ///< |F| at worst_unknown (last evaluation)
  std::string failure_detail;   ///< e.g. the linear solver's message
  /// Per-iteration (max_dx, max_residual) history of this solve.
  std::vector<IterationRecord> trace;
};

/// Index of the first non-finite entry of `v`, or kNoUnknown.
[[nodiscard]] std::size_t first_non_finite(const std::vector<double>& v);

/// One Newton update, shared by solve_newton and the batched transient
/// engine: per unknown, clamp dx[i] to ±scales.max_step(i) (0 = unlimited),
/// apply x[i] += dx[i], then test |dx[i]| against
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

/// Run damped Newton from `x` (updated in place).
[[nodiscard]] NewtonResult solve_newton(NonlinearSystem& system,
                                        std::vector<double>& x,
                                        const NewtonOptions& options = {});

}  // namespace softfet::numeric
