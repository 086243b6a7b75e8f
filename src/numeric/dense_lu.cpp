#include "numeric/dense_lu.hpp"

#include <cmath>
#include <string>
#include <type_traits>

#include "util/error.hpp"

namespace softfet::numeric {

namespace {

/// Class names the error texts carry.
template <class T>
constexpr const char* kMatrixName =
    std::is_same_v<T, double> ? "DenseMatrix" : "ComplexMatrix";
template <class T>
constexpr const char* kLuName =
    std::is_same_v<T, double> ? "DenseLu" : "ComplexLu";

}  // namespace

template <class T>
std::vector<T> BasicDenseMatrix<T>::multiply(const std::vector<T>& x) const {
  if (x.size() != cols_) {
    throw Error(std::string(kMatrixName<T>) + "::multiply: size mismatch");
  }
  std::vector<T> y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    T acc{};
    const T* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

template <class T>
void BasicDenseLu<T>::factor(const BasicDenseMatrix<T>& a) {
  if (a.rows() != a.cols()) {
    throw Error(std::string(kLuName<T>) + ": matrix must be square");
  }
  lu_ = a;
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest |a[i][k]|, i >= k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu_(i, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (!(pivot_mag > 0.0) || !std::isfinite(pivot_mag)) {
      throw SingularMatrixError(std::string(kLuName<T>) +
                                    ": singular matrix at column " +
                                    std::to_string(k),
                                k);
    }
    if (pivot_row != k) {
      std::swap(perm_[k], perm_[pivot_row]);
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
    }
    const T inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T factor = lu_(i, k) * inv_pivot;
      lu_(i, k) = factor;
      if (factor == T{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_(i, c) -= factor * lu_(k, c);
      }
    }
  }
}

template <class T>
std::vector<T> BasicDenseLu<T>::solve(const std::vector<T>& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) {
    throw Error(std::string(kLuName<T>) + "::solve: size mismatch");
  }

  // Forward substitution with the permuted RHS (L has unit diagonal).
  std::vector<T> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    T acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution.
  std::vector<T> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

template class BasicDenseMatrix<double>;
template class BasicDenseMatrix<Complex>;
template class BasicDenseLu<double>;
template class BasicDenseLu<Complex>;

}  // namespace softfet::numeric
