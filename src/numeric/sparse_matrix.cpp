#include "numeric/sparse_matrix.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace softfet::numeric {

namespace {

/// First entry of `row` at column >= c.
template <typename Row>
auto find_col(Row& row, std::size_t c) {
  return std::lower_bound(
      row.begin(), row.end(), c,
      [](const SparseMatrix::Entry& e, std::size_t col) { return e.col < col; });
}

}  // namespace

void SparseMatrix::reset(std::size_t n) {
  rows_.assign(n, {});
  tape_.clear();
  cursor_ = 0;
  taped_ = replaying_ = recording_ = departed_ = false;
}

void SparseMatrix::begin_load() {
  for (auto& row : rows_) {
    for (auto& e : row) e.value = 0.0;
  }
  cursor_ = 0;
  departed_ = false;
  replaying_ = taped_;
  recording_ = !taped_;
  if (recording_) tape_.clear();
}

void SparseMatrix::add_searched(std::size_t r, std::size_t c, double value) {
  if (replaying_) {
    // Departure: keep the stamps that matched and record from here on.
    replaying_ = taped_ = false;
    recording_ = departed_ = true;
    tape_.resize(cursor_);
  }
  entry(r, c).value += value;
  if (recording_) {
    tape_.push_back({static_cast<std::uint32_t>(r),
                     static_cast<std::uint32_t>(c), 0});
  }
}

bool SparseMatrix::end_load() {
  if (replaying_ && cursor_ != tape_.size()) {
    // The load stopped short of the tape: the prefix is the new tape.
    tape_.resize(cursor_);
    recording_ = departed_ = true;
  }
  if (recording_) {
    // Entry positions are resolved only now: insertions during the load
    // shift the positions of later columns in their row.
    for (Stamp& s : tape_) {
      const auto& row = rows_[s.row];
      s.pos = static_cast<std::uint32_t>(find_col(row, s.col) - row.begin());
    }
    taped_ = true;
  }
  replaying_ = recording_ = false;
  return !departed_;
}

SparseMatrix::Entry& SparseMatrix::entry(std::size_t r, std::size_t c) {
  auto& row = rows_[r];
  const auto at = find_col(row, c);
  if (at != row.end() && at->col == c) return *at;
  // A new entry shifts the recorded positions of its row: outside a
  // recording load that voids the tape.
  if (!recording_) taped_ = replaying_ = false;
  return *row.insert(at, Entry{c, 0.0});
}

double SparseMatrix::get(std::size_t r, std::size_t c) const {
  const auto& row = rows_[r];
  const auto it = find_col(row, c);
  return it != row.end() && it->col == c ? it->value : 0.0;
}

std::size_t SparseMatrix::nonzeros() const noexcept {
  std::size_t n = 0;
  for (const auto& row : rows_) n += row.size();
  return n;
}

DenseMatrix SparseMatrix::to_dense() const {
  DenseMatrix d;
  to_dense_into(d);
  return d;
}

void SparseMatrix::to_dense_into(DenseMatrix& out) const {
  out.resize(size(), size());
  out.set_zero();
  for (std::size_t r = 0; r < size(); ++r) {
    for (const auto& [c, v] : rows_[r]) out(r, c) = v;
  }
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != size()) throw Error("SparseMatrix::multiply: size mismatch");
  std::vector<double> y(size(), 0.0);
  for (std::size_t r = 0; r < size(); ++r) {
    double acc = 0.0;
    for (const auto& [c, v] : rows_[r]) acc += v * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace softfet::numeric
