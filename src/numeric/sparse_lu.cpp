#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>

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

namespace {

/// Same bytes, so the same pattern and the same value bits: -0.0 is not
/// +0.0, and a NaN matches only its own payload.
template <typename T>
bool same_bits(std::span<const T> x,
               std::type_identity_t<std::span<const T>> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

static_assert(sizeof(SparseMatrix::Entry) ==
                  sizeof(std::size_t) + sizeof(double),
              "Entry bytes are compared whole: it must have no padding");

}  // namespace

bool SparseLu::holds(const SparseMatrix& a) const {
  if (!holds_ || a.size() != n_) return false;
  const std::span<const SparseMatrix::Entry> held(a_entries_);
  if (a.flat()) {
    return same_bits(a.offsets(), a_offsets_) && same_bits(a.entries(), held);
  }
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t k = a_offsets_[r];
    if (!same_bits(a.row(r), held.subspan(k, a_offsets_[r + 1] - k))) {
      return false;
    }
  }
  return true;
}

void SparseLu::analyze(const SparseMatrix& a) {
  ++analyze_count_;
  const std::size_t n = a.size();

  // Fill-reducing pre-permutation. The natural path leaves q empty; the
  // AMD path renumbers both rows and columns symmetrically, and partial
  // pivoting below still permutes rows freely on top of it. q_ is
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

  // The permuted A by column: column j lists (id, value) for each row id
  // of the permuted A with an entry in it. Ids are rows as numbered before
  // pivoting; they never move.
  const auto permuted = [&](std::size_t i) { return reorder ? qinv[i] : i; };
  std::vector<std::size_t> a_col_ptr(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& e : a.row(r)) ++a_col_ptr[permuted(e.col) + 1];
  }
  for (std::size_t j = 0; j < n; ++j) a_col_ptr[j + 1] += a_col_ptr[j];
  std::vector<std::size_t> a_ids(a_col_ptr[n]);
  std::vector<double> a_col_vals(a_col_ptr[n]);
  {
    std::vector<std::size_t> next(a_col_ptr.begin(), a_col_ptr.end() - 1);
    for (std::size_t id = 0; id < n; ++id) {
      for (const auto& [col, value] : a.row(reorder ? q[id] : id)) {
        const std::size_t at = next[permuted(col)]++;
        a_ids[at] = id;
        a_col_vals[at] = value;
      }
    }
  }

  // Left-looking elimination with partial pivoting, one column at a time
  // (Gilbert & Peierls 1988). This is the one-time symbolic+numeric pass;
  // every structural entry is kept even when its value is zero, so the
  // recorded pattern stays valid for any later values. Row ids never move:
  // id_of[slot] is the id at pivot position `slot` and slot_of its inverse,
  // and pivoting column j swaps the ids at slot j and at the pivot's slot,
  // as a right-looking elimination swaps rows. Column j scatters A's column
  // into x, then applies every pivoted step k it reaches in ascending k (a
  // min-heap; a step reached through L(:,k) is always later than k):
  // x_id -= l_id,k * u_kj for each id of L(:,k), fill included. Each entry
  // thus takes a right-looking elimination's subtractions in its order, so
  // the pivots, fill and factors are bitwise that elimination's. The
  // factors are kept by column as (id, value): column j holds U(:,j) in
  // [col_ptr[j], l_ptr[j]) and L(:,j) in [l_ptr[j], col_ptr[j+1]). Ids, not
  // slots: an L row's slot is final only at the end.
  std::vector<std::size_t> col_ptr(1, 0);
  std::vector<std::size_t> l_ptr;
  std::vector<std::size_t> lu_ids;
  std::vector<double> lu_vals;
  std::vector<std::size_t> id_of(n);
  std::vector<std::size_t> slot_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    id_of[i] = i;
    slot_of[i] = i;
  }
  std::vector<double> x(n, 0.0);
  std::vector<std::size_t> mark(n, n);  // mark[id] == j: id in column j
  std::vector<std::size_t> pattern;     // ids of column j
  std::vector<std::size_t> steps;       // min-heap of steps to apply
  const auto later = std::greater<std::size_t>();
  for (std::size_t j = 0; j < n; ++j) {
    pattern.clear();
    steps.clear();
    for (std::size_t p = a_col_ptr[j]; p < a_col_ptr[j + 1]; ++p) {
      const std::size_t id = a_ids[p];
      mark[id] = j;
      x[id] = a_col_vals[p];
      pattern.push_back(id);
      if (slot_of[id] < j) steps.push_back(slot_of[id]);
    }
    std::make_heap(steps.begin(), steps.end(), later);
    while (!steps.empty()) {
      std::pop_heap(steps.begin(), steps.end(), later);
      const std::size_t k = steps.back();
      steps.pop_back();
      const double u = x[id_of[k]];
      for (std::size_t p = l_ptr[k]; p < col_ptr[k + 1]; ++p) {
        const std::size_t id = lu_ids[p];
        if (mark[id] != j) {  // fill
          mark[id] = j;
          x[id] = 0.0;
          pattern.push_back(id);
          if (slot_of[id] < j) {
            steps.push_back(slot_of[id]);
            std::push_heap(steps.begin(), steps.end(), later);
          }
        }
        x[id] -= lu_vals[p] * u;
      }
    }

    // Partial pivoting: among the ids at slots >= j, pick the largest
    // |x|; on equal magnitude the lowest slot wins.
    std::size_t pivot_id = n;
    std::size_t pivot_slot = n;
    double pivot_mag = 0.0;
    for (const std::size_t id : pattern) {
      const std::size_t slot = slot_of[id];
      if (slot < j) continue;
      const double mag = std::fabs(x[id]);
      if (mag > pivot_mag || (mag == pivot_mag && slot < pivot_slot)) {
        pivot_mag = mag;
        pivot_id = id;
        pivot_slot = slot;
      }
    }
    if (pivot_slot == n || !(pivot_mag > 0.0) || !std::isfinite(pivot_mag)) {
      const std::size_t original = reorder ? q[j] : j;
      throw SingularMatrixError("SparseLu: singular matrix at column " +
                                    std::to_string(original),
                                original);
    }
    const std::size_t displaced = id_of[j];
    id_of[pivot_slot] = displaced;
    slot_of[displaced] = pivot_slot;
    id_of[j] = pivot_id;
    slot_of[pivot_id] = j;

    // Pivoted ids give U(:,j), the pivot included; the rest give L(:,j),
    // divided by the pivot. x is left zero for the next column.
    for (const std::size_t id : pattern) {
      if (slot_of[id] > j) continue;
      lu_ids.push_back(id);
      lu_vals.push_back(x[id]);
    }
    l_ptr.push_back(lu_ids.size());
    const double pivot = x[pivot_id];
    for (const std::size_t id : pattern) {
      if (slot_of[id] > j) {
        lu_ids.push_back(id);
        lu_vals.push_back(x[id] / pivot);
      }
      x[id] = 0.0;
    }
    col_ptr.push_back(lu_ids.size());
  }

  // Transpose the factors into CSR in one pass; visiting columns in
  // ascending order leaves every row's columns sorted. Then copy A, with
  // each entry's permuted column, so later factor() calls can check the
  // pattern, scatter and eliminate over flat arrays.
  n_ = n;
  q_ = std::move(q);
  qinv_ = std::move(qinv);
  // perm_ maps a factored row straight to its original A row (the pivot
  // permutation composed with the fill-reducing one).
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm_[i] = reorder ? q_[id_of[i]] : id_of[i];
  }

  row_ptr_.assign(n + 1, 0);
  for (const std::size_t id : lu_ids) ++row_ptr_[slot_of[id] + 1];
  for (std::size_t i = 0; i < n; ++i) row_ptr_[i + 1] += row_ptr_[i];
  cols_.resize(lu_ids.size());
  vals_.resize(lu_ids.size());
  diag_.assign(n, 0);
  {
    std::vector<std::size_t> next(row_ptr_.begin(), row_ptr_.end() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
        const std::size_t i = slot_of[lu_ids[p]];
        if (i == j) diag_[i] = next[i];
        cols_[next[i]] = j;
        vals_[next[i]++] = lu_vals[p];
      }
    }
  }

  a_offsets_.assign(n + 1, 0);
  a_entries_.clear();
  a_entries_.reserve(a.nonzeros());
  a_scatter_.clear();
  a_scatter_.reserve(a.nonzeros());
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& e : a.row(r)) {
      a_entries_.push_back(e);
      a_scatter_.push_back(reorder ? qinv_[e.col] : e.col);
    }
    a_offsets_[r + 1] = a_entries_.size();
  }

  work_.assign(n, 0.0);
}

bool SparseLu::try_refactor(const SparseMatrix& a) {
  const std::size_t n = n_;

  // Take A's values into the copy, checking its pattern on the way.
  for (std::size_t r = 0; r < n; ++r) {
    const auto a_row = a.row(r);
    std::size_t k = a_offsets_[r];
    if (a_row.size() != a_offsets_[r + 1] - k) return false;
    for (const auto& [col, value] : a_row) {
      if (a_entries_[k].col != col) return false;
      a_entries_[k++].value = value;
    }
  }

  // Up-looking elimination over the cached structure: per factored row,
  // scatter its A row into the dense accumulator, apply the updates from
  // all earlier U rows in ascending pivot order (the same operation order
  // as the analyzing pass), then gather back into the CSR slots.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = perm_[i];
    for (std::size_t k = a_offsets_[r]; k < a_offsets_[r + 1]; ++k) {
      work_[a_scatter_[k]] = a_entries_[k].value;
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
