// MNA stamping interface handed to devices during Newton loads.
//
// Unknown indexing: node unknowns first (ground is index kGround = -1 and is
// never stamped), then branch-current unknowns appended by devices at setup.
// The residual convention is Kirchhoff current law written as
// "sum of currents *leaving* each node = 0"; devices add their leaving
// current to the residual and dI/dV terms to the Jacobian.
//
// The Jacobian lands in a numeric::SparseMatrix, whose stamp tape makes a
// repeated load one array add per stamp (see sparse_matrix.hpp). The scalar
// Newton loop and the batched lockstep engine stamp into the same store.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace softfet::sim {

/// Sentinel unknown index for the ground node.
inline constexpr int kGround = -1;

/// Kept because perfbench/mc_inverter.cpp names it, and perfbench/ is the
/// benchmark's frozen source.
using FlatJacobian = numeric::SparseMatrix;

class Stamper {
 public:
  Stamper(numeric::SparseMatrix& jacobian, std::vector<double>& residual)
      : jacobian_(jacobian), residual_(residual) {}

  Stamper(const Stamper&) = delete;
  Stamper& operator=(const Stamper&) = delete;

  /// Add `current` to the KCL residual of unknown `row` (ignored for ground).
  void add_residual(int row, double current) {
    if (row == kGround) return;
    residual_[static_cast<std::size_t>(row)] += current;
  }

  /// Add dF(row)/dx(col) to the Jacobian (ignored if either is ground).
  void add_jacobian(int row, int col, double value) {
    if (row == kGround || col == kGround) return;
    jacobian_.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col),
                  value);
  }

  /// Stamp a linear conductance `g` between unknowns `a` and `b` carrying
  /// current g*(va - vb): both residual and Jacobian entries.
  void add_conductance(int a, int b, double g, double va, double vb) {
    const double i = g * (va - vb);
    add_residual(a, i);
    add_residual(b, -i);
    add_jacobian(a, a, g);
    add_jacobian(b, b, g);
    add_jacobian(a, b, -g);
    add_jacobian(b, a, -g);
  }

 private:
  numeric::SparseMatrix& jacobian_;
  std::vector<double>& residual_;
};

}  // namespace softfet::sim
