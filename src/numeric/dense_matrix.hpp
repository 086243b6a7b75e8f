// Row-major dense matrix, sized for circuit MNA systems (tens to a few
// thousand unknowns).
#pragma once

#include <cstddef>
#include <vector>

namespace softfet::numeric {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  void resize(std::size_t rows, std::size_t cols);
  void set_zero();

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  double operator()(std::size_t r, std::size_t c) const { return at(r, c); }

  /// y = A * x  (sizes must match).
  [[nodiscard]] std::vector<double> multiply(
      const std::vector<double>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace softfet::numeric
