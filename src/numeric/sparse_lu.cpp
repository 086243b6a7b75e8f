#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "numeric/ordering.hpp"
#include "util/error.hpp"

namespace softfet::numeric {

void SparseLu::factor(const SparseMatrix& a) {
  if (a.size() == n_ && n_ != 0 && try_refactor(a)) {
    ++refactor_count_;
    return;
  }
  analyze(a);
}

void SparseLu::analyze(const SparseMatrix& a) {
  ++analyze_count_;
  const std::size_t n = a.size();

  // Fill-reducing pre-permutation. The natural path leaves q_ empty so it
  // stays bit-for-bit (and allocation-for-allocation) the pre-ordering
  // code; the AMD path renumbers both rows and columns symmetrically, and
  // partial pivoting below still permutes rows freely on top of it.
  const bool reorder = n >= kAutoOrderingThreshold;
  q_.clear();
  qinv_.clear();
  if (reorder) {
    q_ = amd_order(a);
    qinv_.resize(n);
    for (std::size_t j = 0; j < n; ++j) qinv_[q_[j]] = j;
  }

  // Right-looking elimination with partial pivoting over map rows. This is
  // the one-time symbolic+numeric pass; fill positions are inserted even
  // when a factor happens to be numerically zero so the recorded pattern is
  // purely structural and stays valid for any later values.
  std::vector<std::map<std::size_t, double>> rows(n);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (reorder) {
      for (const auto& [col, value] : a.row(q_[i])) {
        rows[i].emplace(qinv_[col], value);
      }
    } else {
      for (const auto& [col, value] : a.row(i)) {
        rows[i].emplace_hint(rows[i].end(), col, value);
      }
    }
    perm[i] = i;
  }
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: among rows i >= k, pick the largest |a[i][k]|.
    std::size_t pivot_row = n;
    double pivot_mag = 0.0;
    for (std::size_t i = k; i < n; ++i) {
      const auto it = rows[i].find(k);
      if (it == rows[i].end()) continue;
      const double mag = std::fabs(it->second);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_row == n || !(pivot_mag > 0.0) || !std::isfinite(pivot_mag)) {
      const std::size_t original = reorder ? q_[k] : k;
      throw SingularMatrixError("SparseLu: singular matrix at column " +
                                    std::to_string(original),
                                original);
    }
    if (pivot_row != k) {
      std::swap(rows[k], rows[pivot_row]);
      std::swap(perm[k], perm[pivot_row]);
    }

    const auto& pivot_entries = rows[k];
    const double pivot = pivot_entries.at(k);
    for (std::size_t i = k + 1; i < n; ++i) {
      auto& row = rows[i];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double f = it->second / pivot;
      it->second = f;  // store the L entry in place
      for (auto pit = pivot_entries.upper_bound(k); pit != pivot_entries.end();
           ++pit) {
        row[pit->first] -= f * pit->second;
      }
    }
  }

  // Flatten the factored rows into CSR and record the permuted A pattern so
  // later factor() calls can scatter + eliminate without any node churn.
  n_ = n;
  // perm_ maps a factored row straight to its original A row (the pivot
  // permutation composed with the fill-reducing one).
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm_[i] = reorder ? q_[perm[i]] : perm[i];
  }

  std::size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  row_ptr_.assign(n + 1, 0);
  cols_.clear();
  vals_.clear();
  cols_.reserve(nnz);
  vals_.reserve(nnz);
  diag_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [col, value] : rows[i]) {
      if (col == i) diag_[i] = cols_.size();
      cols_.push_back(col);
      vals_.push_back(value);
    }
    row_ptr_[i + 1] = cols_.size();
  }

  a_nnz_ = a.nonzeros();
  a_row_ptr_.assign(n + 1, 0);
  a_cols_.clear();
  a_cols_.reserve(a_nnz_);
  a_scatter_.clear();
  a_scatter_.reserve(a_nnz_);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& e : a.row(perm_[i])) {
      a_cols_.push_back(e.col);
      a_scatter_.push_back(reorder ? qinv_[e.col] : e.col);
    }
    a_row_ptr_[i + 1] = a_cols_.size();
  }

  work_.assign(n, 0.0);
}

bool SparseLu::try_refactor(const SparseMatrix& a) {
  const std::size_t n = n_;

  // Up-looking elimination over the cached structure: per factored row,
  // scatter the permuted A row into the dense accumulator, apply the updates
  // from all earlier U rows in ascending pivot order (the same operation
  // order as the analyzing pass), then gather back into the CSR slots.
  for (std::size_t i = 0; i < n; ++i) {
    const auto a_row = a.row(perm_[i]);
    const std::size_t expected = a_row_ptr_[i + 1] - a_row_ptr_[i];
    if (a_row.size() != expected) {
      // Pattern changed; clean the accumulator before bailing out.
      std::fill(work_.begin(), work_.end(), 0.0);
      return false;
    }
    std::size_t slot = a_row_ptr_[i];
    bool pattern_ok = true;
    for (const auto& [col, value] : a_row) {
      if (a_cols_[slot] != col) {
        pattern_ok = false;
        break;
      }
      work_[a_scatter_[slot]] = value;
      ++slot;
    }
    if (!pattern_ok) {
      std::fill(work_.begin(), work_.end(), 0.0);
      return false;
    }

    for (std::size_t s = row_ptr_[i]; s < diag_[i]; ++s) {
      const std::size_t k = cols_[s];
      const double f = work_[k] / vals_[diag_[k]];
      work_[k] = f;
      if (f != 0.0) {
        for (std::size_t t = diag_[k] + 1; t < row_ptr_[k + 1]; ++t) {
          work_[cols_[t]] -= f * vals_[t];
        }
      }
    }

    double row_max = 0.0;
    for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) {
      const std::size_t col = cols_[s];
      vals_[s] = work_[col];
      work_[col] = 0.0;
      row_max = std::max(row_max, std::fabs(vals_[s]));
    }
    const double pivot_mag = std::fabs(vals_[diag_[i]]);
    if (!(pivot_mag > kPivotDegradation * row_max) ||
        !std::isfinite(pivot_mag)) {
      // The recorded pivot order is no longer numerically safe for these
      // values (or the matrix went singular) — re-pivot from scratch.
      return false;
    }
  }

  return true;
}

std::vector<double> SparseLu::solve(const std::vector<double>& b) const {
  const std::size_t n = n_;
  if (b.size() != n) throw Error("SparseLu::solve: size mismatch");

  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t s = row_ptr_[i]; s < diag_[i]; ++s) {
      acc -= vals_[s] * y[cols_[s]];
    }
    y[i] = acc;
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t s = diag_[ii] + 1; s < row_ptr_[ii + 1]; ++s) {
      acc -= vals_[s] * x[cols_[s]];
    }
    x[ii] = acc / vals_[diag_[ii]];
  }
  if (q_.empty()) return x;
  // Undo the fill-reducing renumbering: permuted unknown j is original q[j].
  std::vector<double> out(n);
  for (std::size_t j = 0; j < n; ++j) out[q_[j]] = x[j];
  return out;
}

}  // namespace softfet::numeric
