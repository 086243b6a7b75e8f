// Linear-solver facade: picks a dense or sparse LU based on system size,
// and a direct or preconditioned-iterative strategy based on policy.
//
// The solver is stateful: it caches the sparse symbolic analysis (pattern,
// fill-reducing permutation, pivot order, fill structure) and the dense
// workspaces across calls, so a Newton loop — or a whole transient — that
// repeatedly solves systems with the same sparsity pattern pays for the
// analysis once and then takes the numeric-only refactorization path. One
// LinearSolver should live per analysis (per circuit); sharing across
// unrelated patterns is safe but forfeits the caching.
//
// Value reuse (sparse path): when a matrix repeats, bit for bit, the one the
// cached factors were last factored from (SparseLu::holds), the factor call
// is skipped and the cached factors answer. Factoring identical input again
// would rebuild factors that solve alike, so results do not move; a linear
// circuit repeats its Jacobian from its operating point's second Newton
// iteration on, and on every step at a constant dt. The
// dense path (kDenseThreshold unknowns or fewer) always factors: its
// nonlinear Jacobians change on every iteration.
//
// Policies:
//  - kDirect     factor + solve every call (the default; bitwise identical
//                to the historical behavior for small circuits).
//  - kIterative  keep the last LU as a Krylov preconditioner: each call
//                tries BiCGSTAB with the cached (possibly stale) factors
//                and only refactors when the iteration fails to converge.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/dense_lu.hpp"
#include "numeric/krylov.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"

namespace softfet::numeric {

enum class SolverKind {
  kAuto,    ///< dense below kDenseThreshold unknowns, sparse above
  kDense,
  kSparse,
};

/// Direct / iterative strategy selection (see file comment).
enum class SolverPolicy {
  kDirect,
  kIterative,
};

/// Full facade configuration. SimOptions carries the kind/policy knobs.
struct LinearSolverConfig {
  SolverKind kind = SolverKind::kAuto;
  SolverPolicy policy = SolverPolicy::kDirect;
};

/// Counters describing the linear-solve work of one analysis run.
struct LinearSolverStats {
  std::size_t symbolic_analyses = 0;  ///< full symbolic+numeric analyses
  /// Numeric-only factor calls, value reuses included, so the count does
  /// not depend on whether a repeated matrix was refactored or reused.
  std::size_t refactorizations = 0;
  std::size_t value_reuses = 0;       ///< of those, bitwise repeats skipped
  double fill_ratio = 0.0;            ///< nnz(L+U)/nnz(A) of last analysis
  bool reordered = false;             ///< last analysis used AMD
  std::size_t direct_solves = 0;      ///< solves answered by LU alone
  std::size_t krylov_solves = 0;      ///< solves answered by Krylov
  std::size_t krylov_iterations = 0;  ///< cumulative Krylov iterations
  std::size_t krylov_fallbacks = 0;   ///< Krylov failures -> fresh factor
};

/// Factor-and-solve facade over DenseLu / SparseLu / Krylov with cached
/// state.
class LinearSolver {
 public:
  /// kAuto switches to the CSR path above this many unknowns. Kept small:
  /// the cached refactorization beats a fresh dense factor well before the
  /// O(n^3) crossover because it skips pivot search and densification.
  static constexpr std::size_t kDenseThreshold = 16;

  explicit LinearSolver(SolverKind kind = SolverKind::kAuto)
      : LinearSolver(config_for(kind)) {}

  [[nodiscard]] static LinearSolverConfig config_for(SolverKind kind) {
    LinearSolverConfig config;
    config.kind = kind;
    return config;
  }

  explicit LinearSolver(const LinearSolverConfig& config) : config_(config) {}

  /// Factor `a` (reusing cached structure when the pattern is unchanged,
  /// and the cached factors when the values are too) and solve a·x = b.
  /// Under an iterative policy the factorization may be a stale
  /// preconditioner and the answer comes from BiCGSTAB.
  [[nodiscard]] std::vector<double> solve(const SparseMatrix& a,
                                          const std::vector<double>& b);

  /// Lifetime counters for diagnostics and perf reporting.
  [[nodiscard]] LinearSolverStats stats() const noexcept;

 private:
  LinearSolverConfig config_;
  SparseLu sparse_;
  DenseMatrix dense_;
  DenseLu dense_lu_;
  std::size_t direct_solves_ = 0;
  std::size_t value_reuses_ = 0;
  std::size_t krylov_solves_ = 0;
  std::size_t krylov_iterations_ = 0;
  std::size_t krylov_fallbacks_ = 0;
};

}  // namespace softfet::numeric
