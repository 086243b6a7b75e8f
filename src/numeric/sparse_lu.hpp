// Sparse LU with a symbolic / numeric split over flat CSR storage.
//
// MNA matrices keep the same sparsity pattern across Newton iterations and
// transient steps, so the expensive work — pivot-order selection and fill-in
// discovery — is done once per pattern (analyze) and every later call takes
// a numeric-only refactorization over the cached structure. Refactorization
// reuses the recorded pivot sequence; if a pivot degrades numerically or the
// input pattern changes, the factorization transparently falls back to a
// fresh symbolic analysis, so callers can treat factor() as always-correct.
//
// Ahead of the symbolic phase an optional fill-reducing (AMD) permutation
// reorders the unknowns; the permutation is cached with the symbolic
// structure, so the numeric-only refactorization path is identical in shape
// whether or not the matrix was reordered. Under the default kAuto policy
// small systems keep the natural order bit-for-bit (the permutation only
// kicks in at kAutoOrderingThreshold unknowns, where banded fill starts to
// dominate).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/ordering.hpp"
#include "numeric/sparse_matrix.hpp"

namespace softfet::numeric {

class SparseLu {
 public:
  /// kAuto applies the AMD permutation at or above this many unknowns.
  /// Below it, natural-order fill is modest and skipping the reorder keeps
  /// existing small-circuit results bitwise identical.
  static constexpr std::size_t kAutoOrderingThreshold = 128;

  SparseLu() = default;

  /// Analyze + factor `a`. Throws softfet::ConvergenceError when
  /// numerically singular.
  explicit SparseLu(const SparseMatrix& a) { factor(a); }

  /// Select the fill-reducing ordering policy. Changing it invalidates the
  /// cached symbolic analysis (the next factor() re-analyzes).
  void set_ordering(OrderingKind ordering) noexcept {
    if (ordering != ordering_) {
      ordering_ = ordering;
      n_ = 0;
    }
  }
  [[nodiscard]] OrderingKind ordering() const noexcept { return ordering_; }

  /// Attach a shared AMD-permutation memo (may be null). Only consulted on
  /// the reordering path; hits are bitwise identical to computing, so this
  /// never changes results — only first-factorization latency.
  void set_ordering_cache(std::shared_ptr<OrderingCache> cache) noexcept {
    ordering_cache_ = std::move(cache);
  }

  /// Factor `a`. The first call (or a call after the pattern changed, or
  /// after a reused pivot degraded) runs the full symbolic analysis with
  /// partial pivoting; otherwise the cached structure and pivot order are
  /// reused and only the numeric elimination runs.
  void factor(const SparseMatrix& a);

  /// True when a factorization is cached and solve() is callable.
  [[nodiscard]] bool valid() const noexcept { return n_ != 0; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  [[nodiscard]] double min_pivot() const noexcept { return min_pivot_; }
  [[nodiscard]] std::size_t fill_nonzeros() const noexcept {
    return cols_.size();
  }
  /// nnz(L+U) / nnz(A) of the cached analysis (1.0 = no fill-in at all;
  /// 0.0 before the first factorization).
  [[nodiscard]] double fill_ratio() const noexcept {
    return a_nnz_ == 0 ? 0.0
                       : static_cast<double>(cols_.size()) /
                             static_cast<double>(a_nnz_);
  }
  /// True when the cached analysis runs under an AMD permutation.
  [[nodiscard]] bool reordered() const noexcept { return !q_.empty(); }
  /// Number of full symbolic analyses performed over this object's lifetime.
  [[nodiscard]] std::size_t analyze_count() const noexcept {
    return analyze_count_;
  }
  /// Number of fast numeric-only refactorizations performed.
  [[nodiscard]] std::size_t refactor_count() const noexcept {
    return refactor_count_;
  }

 private:
  // A reused pivot below kPivotDegradation * (inf-norm of its factored row)
  // forces a fresh analysis so the fixed pivot order cannot silently lose
  // accuracy as the Newton values move.
  static constexpr double kPivotDegradation = 1e-10;

  void analyze(const SparseMatrix& a);
  [[nodiscard]] bool try_refactor(const SparseMatrix& a);

  OrderingKind ordering_ = OrderingKind::kAuto;
  std::shared_ptr<OrderingCache> ordering_cache_;

  std::size_t n_ = 0;

  // Fill-reducing permutation of the unknowns: permuted index j holds
  // original unknown q_[j] (empty = natural order). All structures below
  // live in the permuted index space.
  std::vector<std::size_t> q_;
  std::vector<std::size_t> qinv_;  ///< qinv_[q_[j]] == j

  // CSR of L+U of P·A (A pre-permuted by q_). Columns are sorted within
  // each row; slots [row_ptr_[i], diag_[i]) hold L (already divided by the
  // pivot) and [diag_[i], row_ptr_[i+1]) hold U including the diagonal.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;
  std::vector<std::size_t> diag_;
  std::vector<std::size_t> perm_;  ///< factored row i came from A row perm_[i]

  // Expected pattern of A in permuted row order: a_cols_ holds the original
  // column indices in each A row's iteration order (the cheap pattern-
  // identity check) and a_scatter_ the permuted column each value lands in.
  std::vector<std::size_t> a_row_ptr_;
  std::vector<std::size_t> a_cols_;
  std::vector<std::size_t> a_scatter_;
  std::size_t a_nnz_ = 0;

  std::vector<double> work_;  ///< dense accumulator, zero between rows

  double min_pivot_ = 0.0;
  std::size_t analyze_count_ = 0;
  std::size_t refactor_count_ = 0;
};

}  // namespace softfet::numeric
