#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "numeric/ordering.hpp"
#include "util/error.hpp"

namespace softfet::numeric {

void SparseLu::factor(const SparseMatrix& a) {
  holds_ = false;
  if (a.size() == n_ && n_ != 0 && try_refactor(a)) {
    ++refactor_count_;
    holds_ = true;
    return;
  }
  analyze(a);
}

bool SparseLu::holds(const SparseMatrix& a) const {
  if (!holds_ || a.size() != n_) return false;
  for (std::size_t i = 0; i < n_; ++i) {
    const auto a_row = a.row(perm_[i]);
    std::size_t slot = a_row_ptr_[i];
    if (a_row.size() != a_row_ptr_[i + 1] - slot) return false;
    for (const auto& [col, value] : a_row) {
      // Bits, not ==: -0.0 == +0.0, and a NaN never equals itself.
      if (a_cols_[slot] != col ||
          std::bit_cast<std::uint64_t>(value) !=
              std::bit_cast<std::uint64_t>(a_vals_[slot])) {
        return false;
      }
      ++slot;
    }
  }
  return true;
}

void SparseLu::analyze(const SparseMatrix& a) {
  ++analyze_count_;
  const std::size_t n = a.size();

  // Fill-reducing pre-permutation. The natural path leaves q empty so it
  // stays bit-for-bit (and allocation-for-allocation) the pre-ordering
  // code; the AMD path renumbers both rows and columns symmetrically, and
  // partial pivoting below still permutes rows freely on top of it. q_ is
  // only replaced once the elimination succeeds: a singular matrix must not
  // pair a new permutation with the previous pivot order and pattern, which
  // the next factor() still refactors over.
  const bool reorder = n >= kAutoOrderingThreshold;
  std::vector<std::size_t> q;
  std::vector<std::size_t> qinv;
  if (reorder) {
    q = amd_order(a);
    qinv.resize(n);
    for (std::size_t j = 0; j < n; ++j) qinv[q[j]] = j;
  }

  // Right-looking elimination with partial pivoting over map rows. This is
  // the one-time symbolic+numeric pass; fill positions are inserted even
  // when a factor happens to be numerically zero so the recorded pattern is
  // purely structural and stays valid for any later values. Row `id` (row
  // id of the permuted A) never moves: id_of[slot] is the row at pivot
  // position `slot` and slot_of its inverse. col_rows[c] lists the ids whose
  // row holds column c, in insertion order; fill appends to it.
  std::vector<std::map<std::size_t, double>> rows(n);
  std::vector<std::vector<std::size_t>> col_rows(n);
  std::vector<std::size_t> id_of(n);
  std::vector<std::size_t> slot_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (reorder) {
      for (const auto& [col, value] : a.row(q[i])) {
        rows[i].emplace(qinv[col], value);
      }
    } else {
      for (const auto& [col, value] : a.row(i)) {
        rows[i].emplace_hint(rows[i].end(), col, value);
      }
    }
    for (const auto& entry : rows[i]) col_rows[entry.first].push_back(i);
    id_of[i] = i;
    slot_of[i] = i;
  }
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: among the rows at slots >= k, pick the largest
    // |a[.][k]|; on equal magnitude the lowest slot wins.
    std::size_t pivot_id = n;
    std::size_t pivot_slot = n;
    double pivot_mag = 0.0;
    for (const std::size_t id : col_rows[k]) {
      const std::size_t slot = slot_of[id];
      if (slot < k) continue;
      const double mag = std::fabs(rows[id].find(k)->second);
      if (mag > pivot_mag || (mag == pivot_mag && slot < pivot_slot)) {
        pivot_mag = mag;
        pivot_id = id;
        pivot_slot = slot;
      }
    }
    if (pivot_slot == n || !(pivot_mag > 0.0) || !std::isfinite(pivot_mag)) {
      const std::size_t original = reorder ? q[k] : k;
      throw SingularMatrixError("SparseLu: singular matrix at column " +
                                    std::to_string(original),
                                original);
    }
    const std::size_t displaced = id_of[k];
    id_of[pivot_slot] = displaced;
    slot_of[displaced] = pivot_slot;
    id_of[k] = pivot_id;
    slot_of[pivot_id] = k;

    // Every row below the pivot with an entry in column k: store its L
    // entry in place and subtract the scaled pivot row.
    const auto& pivot_entries = rows[pivot_id];
    const double pivot = pivot_entries.at(k);
    const auto first_u = pivot_entries.upper_bound(k);
    for (const std::size_t id : col_rows[k]) {
      if (slot_of[id] <= k) continue;
      auto& row = rows[id];
      const auto it = row.find(k);
      const double f = it->second / pivot;
      it->second = f;
      // Both rows ascend by column: merge, inserting fill before `at`.
      auto at = std::next(it);
      for (auto pit = first_u; pit != pivot_entries.end(); ++pit, ++at) {
        const std::size_t col = pit->first;
        while (at != row.end() && at->first < col) ++at;
        if (at == row.end() || at->first != col) {
          at = row.emplace_hint(at, col, 0.0);
          col_rows[col].push_back(id);
        }
        at->second -= f * pit->second;
      }
    }
  }

  // Flatten the factored rows into CSR and record the permuted A pattern so
  // later factor() calls can scatter + eliminate without any node churn.
  n_ = n;
  q_ = std::move(q);
  qinv_ = std::move(qinv);
  // perm_ maps a factored row straight to its original A row (the pivot
  // permutation composed with the fill-reducing one).
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm_[i] = reorder ? q_[id_of[i]] : id_of[i];
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
    for (const auto& [col, value] : rows[id_of[i]]) {
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
  a_vals_.resize(a_nnz_);

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
      a_vals_[slot] = value;
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
