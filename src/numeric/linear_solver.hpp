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
// Policies:
//  - kDirect     factor + solve every call (the default; bitwise identical
//                to the historical behavior for small circuits).
//  - kIterative  keep the last LU as a Krylov preconditioner: each call
//                tries BiCGSTAB with the cached (possibly stale) factors
//                and only refactors when the iteration fails to converge.
//  - kAuto       direct until an analysis reports explosive fill
//                (fill_ratio > auto_fill_ratio on a system of at least
//                auto_min_unknowns), then behaves as kIterative.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/dense_lu.hpp"
#include "numeric/krylov.hpp"
#include "numeric/ordering.hpp"
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
  kAuto,
};

[[nodiscard]] const char* to_string(SolverPolicy policy);

/// Full facade configuration. SimOptions carries the kind/policy/ordering
/// knobs; the tuning fields have defaults that suit MNA systems.
struct LinearSolverConfig {
  SolverKind kind = SolverKind::kAuto;
  SolverPolicy policy = SolverPolicy::kDirect;
  OrderingKind ordering = OrderingKind::kAuto;
  /// Krylov convergence target relative to ||b|| — tight, because Newton
  /// treats the result as an exact solve.
  double krylov_rtol = 1e-12;
  /// Krylov iteration cap per solve before falling back to a refactor.
  std::size_t krylov_max_iterations = 120;
  /// kAuto goes iterative when a direct analysis exceeds this fill ratio…
  double auto_fill_ratio = 16.0;
  /// …on a system with at least this many unknowns.
  std::size_t auto_min_unknowns = 256;
  /// Optional shared AMD-permutation memo (see numeric::OrderingCache).
  /// Null (the default) computes orderings per solver, the historical
  /// behavior; attaching one never changes results, only latency.
  std::shared_ptr<OrderingCache> ordering_cache;
};

/// Counters describing the linear-solve work of one analysis run.
struct LinearSolverStats {
  std::size_t symbolic_analyses = 0;  ///< full symbolic+numeric analyses
  std::size_t refactorizations = 0;   ///< numeric-only refactor passes
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

  explicit LinearSolver(const LinearSolverConfig& config) : config_(config) {
    sparse_.set_ordering(config.ordering);
    sparse_.set_ordering_cache(config.ordering_cache);
  }

  /// Factor `a` (reusing cached structure when the pattern is unchanged)
  /// and solve a·x = b. Under an iterative policy the factorization may be
  /// a stale preconditioner and the answer comes from BiCGSTAB.
  [[nodiscard]] std::vector<double> solve(const SparseMatrix& a,
                                          const std::vector<double>& b);

  [[nodiscard]] SolverKind kind() const noexcept { return config_.kind; }
  [[nodiscard]] const LinearSolverConfig& config() const noexcept {
    return config_;
  }

  /// Cached sparse factorization (analyze/refactor counters for tests and
  /// benchmarks). Only meaningful after a sparse-path solve.
  [[nodiscard]] const SparseLu& sparse() const noexcept { return sparse_; }

  /// Lifetime counters for diagnostics and perf reporting.
  [[nodiscard]] LinearSolverStats stats() const noexcept;

  /// True once a kAuto policy has tripped into iterative mode.
  [[nodiscard]] bool iterative_active() const noexcept {
    return config_.policy == SolverPolicy::kIterative ||
           (config_.policy == SolverPolicy::kAuto && auto_iterative_);
  }

 private:
  LinearSolverConfig config_;
  SparseLu sparse_;
  DenseMatrix dense_;
  DenseLu dense_lu_;
  bool auto_iterative_ = false;
  std::size_t direct_solves_ = 0;
  std::size_t krylov_solves_ = 0;
  std::size_t krylov_iterations_ = 0;
  std::size_t krylov_fallbacks_ = 0;
};

}  // namespace softfet::numeric
