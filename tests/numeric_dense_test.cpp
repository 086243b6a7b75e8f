#include <gtest/gtest.h>

#include <random>

#include "numeric/dense_lu.hpp"
#include "util/error.hpp"

namespace sn = softfet::numeric;

TEST(DenseMatrix, MultiplyIdentity) {
  sn::DenseMatrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a(i, i) = 1.0;
  const auto y = a.multiply({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(DenseLu, Solves2x2) {
  sn::DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const sn::DenseLu lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  sn::DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const sn::DenseLu lu(a);
  const auto x = lu.solve({3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, SingularThrows) {
  sn::DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(sn::DenseLu{a}, softfet::ConvergenceError);
}

TEST(DenseLu, RandomRoundTrip) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 17);
    sn::DenseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
      a(i, i) += 3.0;  // diagonally dominant => nonsingular
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = dist(rng);
    const auto b = a.multiply(x_true);
    const auto x = sn::DenseLu(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(DenseLu, NonSquareThrows) {
  sn::DenseMatrix a(2, 3);
  EXPECT_THROW(sn::DenseLu{a}, softfet::Error);
}
