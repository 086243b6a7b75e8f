#include "numeric/linear_solver.hpp"

namespace softfet::numeric {

namespace {

/// Krylov convergence target relative to ||b|| (tight, because Newton
/// treats the result as an exact solve) and iteration cap per solve before
/// falling back to a refactor.
constexpr KrylovOptions kKrylov{.rtol = 1e-12, .max_iterations = 120};

}  // namespace

std::vector<double> LinearSolver::solve(const SparseMatrix& a,
                                        const std::vector<double>& b) {
  const bool dense =
      config_.kind == SolverKind::kDense ||
      (config_.kind == SolverKind::kAuto && a.size() <= kDenseThreshold);
  if (dense) {
    a.to_dense_into(dense_);
    dense_lu_.factor(dense_);
    ++direct_solves_;
    return dense_lu_.solve(b);
  }

  if (config_.policy == SolverPolicy::kIterative && sparse_.valid() &&
      sparse_.size() == a.size()) {
    // Reuse the last factorization — stale values and all — as the
    // preconditioner. With M close to A this converges in a few
    // iterations and skips the refactorization entirely.
    std::vector<double> x(a.size(), 0.0);
    const KrylovResult kr = bicgstab(a, b, x, &sparse_, kKrylov);
    krylov_iterations_ += kr.iterations;
    if (kr.converged) {
      ++krylov_solves_;
      return x;
    }
    // The preconditioner drifted too far (or the iteration broke down):
    // refresh the factors and answer directly.
    ++krylov_fallbacks_;
  }

  if (sparse_.holds(a)) {
    ++value_reuses_;
  } else {
    sparse_.factor(a);
  }
  ++direct_solves_;
  return sparse_.solve(b);
}

LinearSolverStats LinearSolver::stats() const noexcept {
  LinearSolverStats stats;
  stats.symbolic_analyses = sparse_.analyze_count();
  stats.refactorizations = sparse_.refactor_count() + value_reuses_;
  stats.value_reuses = value_reuses_;
  stats.fill_ratio = sparse_.fill_ratio();
  stats.reordered = sparse_.reordered();
  stats.direct_solves = direct_solves_;
  stats.krylov_solves = krylov_solves_;
  stats.krylov_iterations = krylov_iterations_;
  stats.krylov_fallbacks = krylov_fallbacks_;
  return stats;
}

}  // namespace softfet::numeric
