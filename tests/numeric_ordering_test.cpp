// AMD fill-reducing ordering: permutation validity, fill prediction, the
// fill win on mesh patterns, and solve correctness under reordering — which
// SparseLu applies from kAutoOrderingThreshold unknowns on and never below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "numeric/ordering.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"
#include "util/error.hpp"

namespace sn = softfet::numeric;

namespace {

/// Rail mesh with one decap leaf per tile, rails numbered before leaves —
/// the stamp order make_pdn_grid produces and the pattern where natural
/// order fills the whole band.
sn::SparseMatrix grid_system(std::size_t side) {
  const std::size_t tiles = side * side;
  sn::SparseMatrix a(2 * tiles);
  const auto id = [side](std::size_t r, std::size_t c) {
    return r * side + c;
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      double diag = 1e-3;
      if (c + 1 < side) {
        a.add(id(r, c), id(r, c + 1), -1.0);
        a.add(id(r, c + 1), id(r, c), -1.0);
        diag += 1.0;
      }
      if (c > 0) diag += 1.0;
      if (r + 1 < side) {
        a.add(id(r, c), id(r + 1, c), -1.0);
        a.add(id(r + 1, c), id(r, c), -1.0);
        diag += 1.0;
      }
      if (r > 0) diag += 1.0;
      const std::size_t leaf = tiles + id(r, c);
      a.add(id(r, c), leaf, -0.5);
      a.add(leaf, id(r, c), -0.5);
      a.add(leaf, leaf, 0.5 + 1e-3);
      diag += 0.5;
      a.add(id(r, c), id(r, c), diag);
    }
  }
  return a;
}

sn::SparseMatrix random_system(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  sn::SparseMatrix a(n);
  for (std::size_t k = 0; k < 5 * n; ++k) {
    a.add(pick(rng), pick(rng), dist(rng));
  }
  for (std::size_t i = 0; i < n; ++i) a.add(i, i, 6.0);
  return a;
}

std::vector<double> multiply(const sn::SparseMatrix& a,
                             const std::vector<double>& x) {
  std::vector<double> y(a.size(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (const auto& [j, v] : a.row(i)) y[i] += v * x[j];
  }
  return y;
}

/// Structural nnz(L+U) (diagonal counted once) of eliminating the
/// symmetrized pattern `adjacency` in `order` without pivoting: exact for
/// symmetric-pattern matrices, a lower bound once partial pivoting departs
/// from the diagonal. Row k of L holds the elimination-tree paths from each
/// earlier neighbor of k up to k (Gilbert, Ng & Peyton 1994), so marking
/// those paths counts the factor in O(nnz(L)) after an O(nnz(A) log n)
/// tree build, instead of simulating the elimination.
std::size_t symbolic_fill(const std::vector<std::vector<std::size_t>>& adjacency,
                          const std::vector<std::size_t>& order) {
  const std::size_t n = adjacency.size();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> position(n);
  for (std::size_t k = 0; k < n; ++k) position[order[k]] = k;

  // Elimination tree in elimination order (Liu's algorithm with path
  // compression through `ancestor`).
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> ancestor(n, kNone);
  for (std::size_t k = 0; k < n; ++k) {
    for (const std::size_t u : adjacency[order[k]]) {
      std::size_t j = position[u];
      while (j < k) {
        const std::size_t next = ancestor[j];
        ancestor[j] = k;
        if (next == kNone) {
          parent[j] = k;
          break;
        }
        j = next;
      }
    }
  }

  // Row counts: walk each earlier neighbor's tree path up to k, stopping at
  // a node this row already reached.
  std::vector<std::size_t> mark(n, kNone);
  std::size_t off_diagonal = 0;
  for (std::size_t k = 0; k < n; ++k) {
    mark[k] = k;
    for (const std::size_t u : adjacency[order[k]]) {
      for (std::size_t j = position[u]; j < k && mark[j] != k;
           j = parent[j]) {
        mark[j] = k;
        ++off_diagonal;
      }
    }
  }
  return n + 2 * off_diagonal;
}

/// symbolic_fill of the natural (identity) order.
std::size_t symbolic_fill_natural(
    const std::vector<std::vector<std::size_t>>& adjacency) {
  std::vector<std::size_t> order(adjacency.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return symbolic_fill(adjacency, order);
}

}  // namespace

TEST(AmdOrder, IsAPermutation) {
  const auto a = grid_system(8);
  const auto order = sn::amd_order(a);
  ASSERT_EQ(order.size(), a.size());
  std::vector<bool> seen(a.size(), false);
  for (const std::size_t v : order) {
    ASSERT_LT(v, a.size());
    EXPECT_FALSE(seen[v]) << "duplicate index " << v;
    seen[v] = true;
  }
}

TEST(AmdOrder, Deterministic) {
  const auto a = random_system(120, 7);
  EXPECT_EQ(sn::amd_order(a), sn::amd_order(a));
}

TEST(AmdOrder, HandlesDiagonalMatrix) {
  sn::SparseMatrix a(5);
  for (std::size_t i = 0; i < 5; ++i) a.add(i, i, 2.0);
  const auto order = sn::amd_order(a);
  ASSERT_EQ(order.size(), 5u);
  // Fully disconnected: degree ties all the way, so lowest-index wins.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(SymbolicFill, MatchesDenseOnFullMatrix) {
  // A dense 6x6 pattern fills nothing beyond itself: nnz(L+U) = 36.
  sn::SparseMatrix a(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) a.add(i, j, 1.0 + (i == j ? 6.0 : 0.0));
  }
  const auto adjacency = sn::pattern_adjacency(a);
  EXPECT_EQ(symbolic_fill_natural(adjacency), 36u);
}

TEST(SymbolicFill, TridiagonalHasNoFill) {
  sn::SparseMatrix a(50);
  for (std::size_t i = 0; i < 50; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < 50) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  const auto adjacency = sn::pattern_adjacency(a);
  EXPECT_EQ(symbolic_fill_natural(adjacency), 50u + 2 * 49u);
}

TEST(SymbolicFill, PredictsActualFactorFill) {
  // For a symmetric-pattern matrix factored without pivot departures the
  // symbolic count must equal the structure the factorization builds.
  const auto a = grid_system(6);
  const auto adjacency = sn::pattern_adjacency(a);
  sn::SparseLu lu;  // 72 unknowns: below the threshold, natural order
  lu.factor(a);
  EXPECT_FALSE(lu.reordered());
  EXPECT_EQ(symbolic_fill_natural(adjacency), lu.fill_nonzeros());
}

TEST(AmdOrder, CutsMeshFillByFivefold) {
  // The headline claim at the droop-study scale: >= 4k unknowns. Symbolic
  // counts keep this fast enough for sanitizer jobs.
  const auto a = grid_system(48);  // 4608 unknowns
  const auto adjacency = sn::pattern_adjacency(a);
  const std::size_t natural = symbolic_fill_natural(adjacency);
  const std::size_t amd = symbolic_fill(adjacency, sn::amd_order(adjacency));
  EXPECT_GE(natural, 5u * amd)
      << "natural " << natural << " vs amd " << amd;
}

TEST(SparseLuOrdering, AmdSolveMatchesNaturalSolve) {
  const auto a = grid_system(10);
  std::vector<double> x_ref(a.size());
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    x_ref[i] = std::sin(static_cast<double>(i));
  }
  const auto b = multiply(a, x_ref);

  sn::SparseLu amd;  // 200 unknowns: AMD by size
  amd.factor(a);
  EXPECT_TRUE(amd.reordered());
  // The natural order's fill, counted symbolically (exact here: the mesh
  // pattern is symmetric and diagonally dominant, so no pivot departs).
  EXPECT_LT(amd.fill_nonzeros(),
            symbolic_fill_natural(sn::pattern_adjacency(a)));

  const auto xa = amd.solve(b);
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    EXPECT_NEAR(xa[i], x_ref[i], 1e-9);
  }
}

TEST(SparseLuOrdering, AmdRefactorPathStaysNumericOnly) {
  auto a = grid_system(10);
  sn::SparseLu lu;
  lu.factor(a);
  EXPECT_TRUE(lu.reordered());
  EXPECT_EQ(lu.analyze_count(), 1u);
  const std::vector<double> b(a.size(), 1.0);
  const auto x0 = lu.solve(b);
  // Same pattern, moved values: must take the refactor path and stay right.
  for (std::size_t i = 0; i < a.size(); ++i) a.add(i, i, 0.5);
  lu.factor(a);
  EXPECT_EQ(lu.analyze_count(), 1u);
  EXPECT_EQ(lu.refactor_count(), 1u);
  const auto x1 = lu.solve(b);
  const auto residual = multiply(a, x1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(residual[i], 1.0, 1e-9);
  }
  // And the values must differ from the stale solve (the diagonal moved).
  EXPECT_GT(std::fabs(x1[0] - x0[0]), 0.0);
}

TEST(SparseLuOrdering, SmallSystemsKeepNaturalOrder) {
  // Below kAutoOrderingThreshold the factorization runs in stamp order, so
  // small-circuit results stay those of the unordered elimination.
  for (const std::size_t n :
       {std::size_t{64}, sn::SparseLu::kAutoOrderingThreshold - 1}) {
    const auto a = random_system(n, 3);
    sn::SparseLu lu;
    lu.factor(a);
    EXPECT_FALSE(lu.reordered()) << n << " unknowns";
    const auto residual = multiply(a, lu.solve(std::vector<double>(n, 1.0)));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(residual[i], 1.0, 1e-9);
  }
}

TEST(SparseLuOrdering, AutoReordersLargeSystems) {
  const auto a = grid_system(10);  // 200 unknowns >= threshold of 128
  sn::SparseLu lu;
  lu.factor(a);
  EXPECT_TRUE(lu.reordered());
  EXPECT_GE(a.size(), sn::SparseLu::kAutoOrderingThreshold);
}

TEST(SparseLuOrdering, SingularMatrixReportsOriginalColumn) {
  // Unknown 3 is isolated (zero row/column) in a chain big enough to be
  // reordered. AMD eliminates the degree-0 unknown first, so the error
  // names permuted column 0 unless it maps back to the original index.
  const std::size_t n = sn::SparseLu::kAutoOrderingThreshold + 2;
  sn::SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 3) continue;
    a.add(i, i, 4.0);
    if (i + 1 < n && i + 1 != 3) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  sn::SparseLu lu;
  try {
    lu.factor(a);
    FAIL() << "expected a singular-matrix error";
  } catch (const softfet::SingularMatrixError& e) {
    EXPECT_EQ(e.column(), 3u);
  }
}
