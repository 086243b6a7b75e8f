#include "numeric/dense_matrix.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace softfet::numeric {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols) {
  resize(rows, cols);
}

void DenseMatrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void DenseMatrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != cols_) throw Error("DenseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace softfet::numeric
