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
  entries_.clear();
  offsets_.assign(n + 1, 0);
  rows_.clear();
  flat_ = true;
  tape_.clear();
  cursor_ = 0;
  taped_ = replaying_ = recording_ = departed_ = false;
}

void SparseMatrix::begin_load() {
  if (!flat_) pack();
  for (Entry& e : entries_) e.value = 0.0;
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
  if (!flat_) pack();
  if (recording_) {
    // Positions are resolved only now, in the packed array: insertions
    // during the load shift every later entry.
    for (Stamp& s : tape_) {
      const auto r = row(s.row);
      const auto at = static_cast<std::size_t>(find_col(r, s.col) - r.begin());
      s.pos = static_cast<std::uint32_t>(offsets_[s.row] + at);
    }
    taped_ = true;
  }
  replaying_ = recording_ = false;
  return !departed_;
}

SparseMatrix::Entry& SparseMatrix::entry(std::size_t r, std::size_t c) {
  const auto current = row(r);
  const auto at = find_col(current, c);
  // row() views this object's own, non-const entries.
  if (at != current.end() && at->col == c) return const_cast<Entry&>(*at);
  if (flat_) unpack();
  // A new entry shifts the recorded positions after it: outside a
  // recording load that voids the tape.
  if (!recording_) taped_ = replaying_ = false;
  auto& unpacked = rows_[r];
  return *unpacked.insert(find_col(unpacked, c), Entry{c, 0.0});
}

void SparseMatrix::unpack() {
  rows_.resize(size());
  for (std::size_t r = 0; r < size(); ++r) {
    rows_[r].assign(row(r).begin(), row(r).end());
  }
  entries_.clear();
  flat_ = false;
}

void SparseMatrix::pack() {
  entries_.clear();
  entries_.reserve(nonzeros());
  for (std::size_t r = 0; r < size(); ++r) {
    entries_.insert(entries_.end(), rows_[r].begin(), rows_[r].end());
    offsets_[r + 1] = entries_.size();
  }
  rows_.clear();
  flat_ = true;
}

double SparseMatrix::get(std::size_t r, std::size_t c) const {
  const auto in_row = row(r);
  const auto it = find_col(in_row, c);
  return it != in_row.end() && it->col == c ? it->value : 0.0;
}

std::size_t SparseMatrix::nonzeros() const noexcept {
  if (flat_) return entries_.size();
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.size();
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
    for (const auto& [c, v] : row(r)) out(r, c) = v;
  }
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != size()) throw Error("SparseMatrix::multiply: size mismatch");
  std::vector<double> y(size(), 0.0);
  for (std::size_t r = 0; r < size(); ++r) {
    double acc = 0.0;
    for (const auto& [c, v] : row(r)) acc += v * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace softfet::numeric
