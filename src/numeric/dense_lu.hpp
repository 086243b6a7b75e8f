// Row-major dense matrices and LU with partial pivoting, sized for circuit
// MNA systems (tens to a few thousand unknowns): real for DC and transient
// solves, complex for AC small-signal sweeps. One template runs both.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <vector>

namespace softfet::numeric {

using Complex = std::complex<double>;

template <class T>
class BasicDenseMatrix {
 public:
  BasicDenseMatrix() = default;
  BasicDenseMatrix(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }
  void set_zero() { std::fill(data_.begin(), data_.end(), T{}); }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  T operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = A * x  (sizes must match).
  [[nodiscard]] std::vector<T> multiply(const std::vector<T>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Factors A = P·L·U and solves A·x = b.
/// Throws softfet::SingularMatrixError (a ConvergenceError) if the matrix
/// is numerically singular.
template <class T>
class BasicDenseLu {
 public:
  BasicDenseLu() = default;

  /// Factorize a copy of `a`.
  explicit BasicDenseLu(const BasicDenseMatrix<T>& a) { factor(a); }

  /// Factorize a copy of `a`, reusing this object's internal storage (no
  /// reallocation when the size is unchanged — the repeated-solve hot path:
  /// Newton iterations and AC frequency points).
  void factor(const BasicDenseMatrix<T>& a);

  /// Solve for one right-hand side.
  [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

 private:
  BasicDenseMatrix<T> lu_;
  std::vector<std::size_t> perm_;
};

extern template class BasicDenseMatrix<double>;
extern template class BasicDenseMatrix<Complex>;
extern template class BasicDenseLu<double>;
extern template class BasicDenseLu<Complex>;

using DenseMatrix = BasicDenseMatrix<double>;
using DenseLu = BasicDenseLu<double>;
using ComplexMatrix = BasicDenseMatrix<Complex>;
using ComplexLu = BasicDenseLu<Complex>;

}  // namespace softfet::numeric
