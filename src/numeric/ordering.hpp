// Fill-reducing ordering for sparse LU factorization.
//
// Natural (stamping) order is catastrophic for 2-D mesh matrices: banded
// elimination fills the whole band, so a rows x cols PDN grid pays
// O(n * cols) factor nonzeros and O(n * cols^2) factor work. An
// approximate-minimum-degree (AMD) permutation keeps the factor within a
// few multiples of the input nonzeros on mesh-like graphs, which is the
// difference between "hundreds of unknowns" and "tens of thousands".
//
// amd_order() implements minimum degree over the quotient (element) graph
// with Amestoy/Davis/Duff-style approximate external degrees and element
// absorption. Ties break on the lowest original index, so the permutation
// is a pure function of the pattern — identical across platforms and runs,
// which the bitwise-reproducibility contract of the simulator requires.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace softfet::numeric {

/// Symmetrized adjacency (union of the pattern and its transpose, no self
/// loops) of a square sparse pattern; index = node, values sorted ascending.
[[nodiscard]] std::vector<std::vector<std::size_t>> pattern_adjacency(
    const SparseMatrix& a);

/// Approximate-minimum-degree permutation of a symmetric adjacency
/// structure: order[k] is the original index eliminated at step k.
/// Deterministic (lowest-index tie-break).
[[nodiscard]] std::vector<std::size_t> amd_order(
    const std::vector<std::vector<std::size_t>>& adjacency);

/// Convenience: symmetrize `a`'s pattern and order it.
[[nodiscard]] std::vector<std::size_t> amd_order(const SparseMatrix& a);

}  // namespace softfet::numeric
