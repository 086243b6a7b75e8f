#include "numeric/newton.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace softfet::numeric {

std::size_t first_non_finite(const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return i;
  }
  return kNoUnknown;
}

const char* to_string(NewtonFailure failure) {
  switch (failure) {
    case NewtonFailure::kNone: return "converged";
    case NewtonFailure::kMaxIterations: return "newton max iterations";
    case NewtonFailure::kNonFiniteResidual: return "non-finite residual";
    case NewtonFailure::kNonFiniteUpdate: return "non-finite newton update";
    case NewtonFailure::kSingularMatrix: return "singular matrix";
    case NewtonFailure::kBudgetExhausted: return "run budget exhausted";
  }
  return "unknown failure";
}

NewtonResult solve_newton(NonlinearSystem& system, std::vector<double>& x,
                          const NewtonOptions& options) {
  const std::size_t n = system.size();
  if (x.size() != n) throw Error("solve_newton: initial guess size mismatch");

  SparseMatrix& jacobian = system.jacobian();
  if (jacobian.size() != n) jacobian.reset(n);
  std::vector<double> residual(n, 0.0);
  std::vector<double> rhs(n);
  LinearSolver local_solver(options.solver);
  LinearSolver& solver = options.solver_instance != nullptr
                             ? *options.solver_instance
                             : local_solver;

  NewtonResult result;
  // Track the residual entry that is worst relative to its own tolerance so
  // failures can name the offending unknown (voltage rows and current rows
  // differ by many orders of magnitude in absolute terms).
  const auto note_worst_residual = [&] {
    std::size_t worst = kNoUnknown;
    double worst_scaled = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double scaled = std::fabs(residual[i]) / system.abstol(i);
      if (worst == kNoUnknown || scaled > worst_scaled) {
        worst = i;
        worst_scaled = scaled;
      }
    }
    result.worst_unknown = worst;
    result.worst_residual =
        worst == kNoUnknown ? 0.0 : std::fabs(residual[worst]);
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Budget check once per iteration: a check is a clock read, an iteration
    // is a full load + LU factorization, so the overhead is in the noise.
    if (options.budget != nullptr) {
      const util::BudgetStop stop = options.budget->check_now();
      if (stop != util::BudgetStop::kNone) {
        result.failure = NewtonFailure::kBudgetExhausted;
        result.failure_detail = util::to_string(stop);
        return result;
      }
    }
    result.iterations = iter + 1;

    jacobian.begin_load();
    std::fill(residual.begin(), residual.end(), 0.0);
    system.load(x, jacobian, residual);
    (void)jacobian.end_load();  // a departed load still sums exactly

    // Non-finite guard: a NaN/Inf from a device evaluation would otherwise
    // propagate through the factorization and burn the whole iteration
    // budget on garbage. Fail immediately and let the caller's recovery
    // ladder react.
    if (const std::size_t bad = first_non_finite(residual); bad != kNoUnknown) {
      result.failure = NewtonFailure::kNonFiniteResidual;
      result.worst_unknown = bad;
      result.worst_residual = residual[bad];
      result.failure_detail =
          "residual entry " + system.unknown_label(bad) + " is non-finite";
      return result;
    }

    // Newton step: J·dx = -F.
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -residual[i];
    std::vector<double> dx;
    try {
      dx = solver.solve(jacobian, rhs);
    } catch (const SingularMatrixError& e) {
      result.failure = NewtonFailure::kSingularMatrix;
      result.failure_detail = e.what();
      note_worst_residual();
      if (e.column() < n) {
        result.worst_unknown = e.column();
        result.worst_residual = std::fabs(residual[e.column()]);
      }
      return result;
    } catch (const ConvergenceError& e) {
      result.failure = NewtonFailure::kSingularMatrix;
      result.failure_detail = e.what();
      note_worst_residual();
      return result;
    }
    if (const std::size_t bad = first_non_finite(dx); bad != kNoUnknown) {
      result.failure = NewtonFailure::kNonFiniteUpdate;
      result.worst_unknown = bad;
      result.worst_residual = std::fabs(residual[bad]);
      result.failure_detail =
          "newton update for " + system.unknown_label(bad) + " is non-finite";
      return result;
    }

    // Step-limited update (keeps exponential devices in range) and the dx
    // convergence test.
    const bool dx_converged =
        apply_newton_update(x, dx, options.reltol, system);
    double max_dx = 0.0;
    double max_residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_dx = std::max(max_dx, std::fabs(dx[i]));
      max_residual = std::max(
          max_residual, std::fabs(residual[i]) /
                            std::max(1.0, options.residual_tol_scale));
    }
    result.max_dx = max_dx;
    result.max_residual = max_residual;
    result.trace.push_back({max_dx, max_residual});

    if (dx_converged) {
      result.converged = true;
      return result;
    }
  }

  result.failure = NewtonFailure::kMaxIterations;
  note_worst_residual();
  util::log_debug("solve_newton: no convergence after " +
                  std::to_string(options.max_iterations) + " iterations (max_dx=" +
                  std::to_string(result.max_dx) + ")");
  result.converged = false;
  return result;
}

}  // namespace softfet::numeric
