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
// analyze() is a left-looking (Gilbert-Peierls) elimination with partial
// pivoting over flat arrays: a CSC copy of A, L and U kept by column, and
// a dense accumulator. Each column applies the earlier pivot steps it
// reaches in ascending order, so every entry takes its updates in the
// order a right-looking elimination would, and the factors are bitwise
// that elimination's. Rows never move; a slot table records which row
// holds each pivot position. The factors are then transposed once into
// the CSR the refactorization and solve use.
//
// Ahead of the symbolic phase systems of kAutoOrderingThreshold or more
// unknowns, where banded fill starts to dominate, are reordered by a
// fill-reducing (AMD) permutation; smaller ones keep the natural order. The
// permutation is cached with the symbolic structure, so the numeric-only
// refactorization path is identical in shape whether or not the matrix was
// reordered.
//
// After a numeric refactorization the object keeps a copy of the matrix it
// factored, and holds(a) tells a caller (LinearSolver) whether `a` is that
// matrix bit for bit, so the factors can be reused without calling factor().
// factor() itself always does the work it is asked for.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace softfet::numeric {

class SparseLu {
 public:
  /// analyze() applies the AMD permutation at or above this many unknowns.
  /// Below it, natural-order fill is modest and skipping the reorder keeps
  /// small-circuit results bitwise identical to the unordered factor.
  static constexpr std::size_t kAutoOrderingThreshold = 128;

  SparseLu() = default;

  /// Analyze + factor `a`. Throws softfet::ConvergenceError when
  /// numerically singular.
  explicit SparseLu(const SparseMatrix& a) { factor(a); }

  /// Factor `a`. The first call (or a call after the pattern changed, or
  /// after a reused pivot degraded) runs the full symbolic analysis with
  /// partial pivoting; otherwise the cached structure and pivot order are
  /// reused and only the numeric elimination runs.
  void factor(const SparseMatrix& a);

  /// True when the cached factors came from a numeric refactorization of a
  /// matrix with `a`'s pattern and, bit for bit, `a`'s values: refactoring
  /// `a` again would reproduce them exactly. False after an analysis (a
  /// refactor of the same values could still trip the pivot-degradation
  /// check) and after a factor() that threw.
  [[nodiscard]] bool holds(const SparseMatrix& a) const;

  /// True when a factorization is cached and solve() is callable.
  [[nodiscard]] bool valid() const noexcept { return n_ != 0; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  [[nodiscard]] std::size_t fill_nonzeros() const noexcept {
    return cols_.size();
  }
  /// nnz(L+U) / nnz(A) of the cached analysis (1.0 = no fill-in at all;
  /// 0.0 before the first factorization).
  [[nodiscard]] double fill_ratio() const noexcept {
    return a_entries_.empty() ? 0.0
                              : static_cast<double>(cols_.size()) /
                                    static_cast<double>(a_entries_.size());
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

  // A as the last successful factor() saw it: its row offsets and entries
  // in A's own flat row-major order (a_entries_' values are those of the
  // last refactorization, and describe the cached factors only while
  // holds_ is set), and the permuted column each entry scatters to.
  std::vector<std::size_t> a_offsets_;
  std::vector<SparseMatrix::Entry> a_entries_;
  std::vector<std::size_t> a_scatter_;
  bool holds_ = false;

  std::vector<double> work_;  ///< dense accumulator, zero between rows

  std::size_t analyze_count_ = 0;
  std::size_t refactor_count_ = 0;
};

}  // namespace softfet::numeric
