// AMD fill-reducing ordering: permutation validity, fill prediction, the
// fill win on mesh patterns, and solve correctness under reordering — which
// SparseLu applies from kAutoOrderingThreshold unknowns on and never below.
// Plus the pivot-order oracle: SparseLu's left-looking analysis against a
// right-looking row-scan elimination, bit for bit; and the AMD oracle:
// amd_order's flat quotient graph against the reference implementation
// (amd_oracle.hpp), permutation for permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "amd_oracle.hpp"
#include "cells/pdn.hpp"
#include "netlist/elaborate.hpp"
#include "numeric/ordering.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"
#include "sim/circuit.hpp"
#include "sim/device.hpp"
#include "sim/stamper.hpp"
#include "util/error.hpp"

namespace sc = softfet::cells;
namespace sn = softfet::numeric;
namespace ss = softfet::sim;

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

// Pivot-order oracle. SparseLu::analyze eliminates left-looking, one column
// at a time over flat arrays; RowScanLu is a right-looking elimination over
// map rows that scans every row below the pivot and swaps rows physically.
// Same pivots (largest magnitude, ties to the lowest slot), same fill, same
// operation order per entry (l_ik * u_kj subtractions in ascending k): the
// solves must agree to the bit.

namespace {

class RowScanLu {
 public:
  explicit RowScanLu(const sn::SparseMatrix& a) {
    const std::size_t n = a.size();
    const bool reorder = n >= sn::SparseLu::kAutoOrderingThreshold;
    std::vector<std::size_t> qinv;
    if (reorder) {
      q_ = sn::amd_order(a);
      qinv.resize(n);
      for (std::size_t j = 0; j < n; ++j) qinv[q_[j]] = j;
    }
    rows_.resize(n);
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (reorder) {
        for (const auto& [col, value] : a.row(q_[i])) {
          rows_[i].emplace(qinv[col], value);
        }
      } else {
        for (const auto& [col, value] : a.row(i)) {
          rows_[i].emplace_hint(rows_[i].end(), col, value);
        }
      }
      perm_[i] = i;
    }
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot_row = n;
      double pivot_mag = 0.0;
      for (std::size_t i = k; i < n; ++i) {
        const auto it = rows_[i].find(k);
        if (it == rows_[i].end()) continue;
        const double mag = std::fabs(it->second);
        if (mag > pivot_mag) {
          pivot_mag = mag;
          pivot_row = i;
        }
      }
      if (pivot_row == n || !(pivot_mag > 0.0) || !std::isfinite(pivot_mag)) {
        const std::size_t original = reorder ? q_[k] : k;
        throw softfet::SingularMatrixError(
            "SparseLu: singular matrix at column " + std::to_string(original),
            original);
      }
      if (pivot_row != k) {
        std::swap(rows_[k], rows_[pivot_row]);
        std::swap(perm_[k], perm_[pivot_row]);
      }
      const auto& pivot_entries = rows_[k];
      const double pivot = pivot_entries.at(k);
      for (std::size_t i = k + 1; i < n; ++i) {
        auto& row = rows_[i];
        const auto it = row.find(k);
        if (it == row.end()) continue;
        const double f = it->second / pivot;
        it->second = f;
        for (auto pit = pivot_entries.upper_bound(k);
             pit != pivot_entries.end(); ++pit) {
          row[pit->first] -= f * pit->second;
        }
      }
    }
  }

  [[nodiscard]] std::size_t fill_nonzeros() const {
    std::size_t nnz = 0;
    for (const auto& row : rows_) nnz += row.size();
    return nnz;
  }

  /// SparseLu::solve's arithmetic, entry for entry.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const {
    const std::size_t n = rows_.size();
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[q_.empty() ? perm_[i] : q_[perm_[i]]];
      for (const auto& [col, value] : rows_[i]) {
        if (col >= i) break;
        acc -= value * y[col];
      }
      y[i] = acc;
    }
    std::vector<double> x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (auto it = rows_[ii].upper_bound(ii); it != rows_[ii].end(); ++it) {
        acc -= it->second * x[it->first];
      }
      x[ii] = acc / rows_[ii].at(ii);
    }
    if (q_.empty()) return x;
    std::vector<double> out(n);
    for (std::size_t j = 0; j < n; ++j) out[q_[j]] = x[j];
    return out;
  }

 private:
  std::vector<std::size_t> q_;
  std::vector<std::map<std::size_t, double>> rows_;
  std::vector<std::size_t> perm_;
};

/// Both eliminations of `a`: the same singular column, or the same fill and
/// bitwise the same solves of two right-hand sides. Returns the column
/// SparseLu reported singular, or a.size() when it factored.
std::size_t expect_oracle_match(const sn::SparseMatrix& a,
                                const std::string& what) {
  const std::size_t n = a.size();
  std::vector<std::vector<double>> bs(2, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    bs[0][i] = std::cos(0.7 * static_cast<double>(i)) + 0.1;
    bs[1][i] = (i % 3 == 0 ? -1.0 : 0.5) / static_cast<double>(i + 1);
  }
  std::size_t oracle_column = n;
  std::vector<std::vector<double>> expected;
  std::size_t expected_fill = 0;
  try {
    const RowScanLu oracle(a);
    for (const auto& b : bs) expected.push_back(oracle.solve(b));
    expected_fill = oracle.fill_nonzeros();
  } catch (const softfet::SingularMatrixError& e) {
    oracle_column = e.column();
  }
  sn::SparseLu lu;
  try {
    lu.factor(a);
  } catch (const softfet::SingularMatrixError& e) {
    EXPECT_EQ(e.column(), oracle_column) << what;
    return e.column();
  }
  EXPECT_EQ(oracle_column, n) << what << ": only the oracle threw";
  if (oracle_column != n) return n;
  EXPECT_EQ(lu.fill_nonzeros(), expected_fill) << what;
  for (std::size_t r = 0; r < bs.size(); ++r) {
    const auto x = lu.solve(bs[r]);
    EXPECT_EQ(x.size(), n) << what;
    if (x.size() != n) continue;
    EXPECT_EQ(std::memcmp(x.data(), expected[r].data(), n * sizeof(double)),
              0)
        << what << ", right-hand side " << r;
  }
  return n;
}

/// Random pattern whose values are drawn from {+-1, +-2}: most columns
/// offer several pivot candidates of equal magnitude. `diagonal` adds the
/// diagonal to the pattern (with a drawn value, so it may tie as well).
sn::SparseMatrix tie_system(std::size_t n, std::mt19937& rng, bool diagonal) {
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_int_distribution<int> value(0, 3);
  const double values[4] = {1.0, -1.0, 2.0, -2.0};
  sn::SparseMatrix a(n);
  for (std::size_t k = 0; k < 3 * n; ++k) {
    const std::size_t r = pick(rng);
    const std::size_t c = pick(rng);
    if (r != c) a.set(r, c, values[value(rng)]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Every row and column gets a candidate so most draws are nonsingular.
    a.set(i, (i + 1) % n, values[value(rng)]);
    if (diagonal) a.set(i, i, values[value(rng)]);
  }
  return a;
}

/// The Jacobian of a 16x16 make_pdn_grid mesh at x = 0, every device
/// stamped through sim::Stamper under `ctx`: 512 rail and decap nodes, the
/// bump and regulator nodes, and the branch rows of the 16 bump inductors
/// and the regulator's voltage source.
sn::SparseMatrix pdn_jacobian(const ss::LoadContext& ctx) {
  ss::Circuit c;
  (void)sc::make_pdn_grid(c, "pdn", sc::PdnGridParams{});
  c.prepare();
  const std::vector<double> x(c.unknown_count(), 0.0);
  std::vector<double> residual(x.size(), 0.0);
  sn::SparseMatrix jacobian(x.size());
  ss::Stamper stamper(jacobian, residual);
  jacobian.begin_load();
  for (const auto& device : c.devices()) {
    if (ctx.mode == ss::AnalysisMode::kTransient) device->init_state(x);
    device->load(x, stamper, ctx);
  }
  EXPECT_TRUE(jacobian.end_load());
  return jacobian;
}

bool has_entry(const sn::SparseMatrix& a, std::size_t r, std::size_t c) {
  return std::ranges::any_of(a.row(r),
                             [c](const sn::SparseMatrix::Entry& e) {
                               return e.col == c;
                             });
}

/// Diagonally dominant chain with a few long-range couplings, so the
/// natural-order elimination has both fill and several pivot candidates
/// per column.
sn::SparseMatrix coupled_chain(std::size_t n) {
  sn::SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0 + 0.25 * static_cast<double>(i % 5));
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.5);
    }
    if (i + 7 < n && i % 4 == 0) {
      a.add(i, i + 7, 0.75);
      a.add(i + 7, i, -0.5);
    }
  }
  return a;
}

}  // namespace

TEST(PivotOracle, MeshJacobiansMatchRowScan) {
  for (const std::size_t side : {16u, 32u, 64u}) {  // 512 to 8192 unknowns
    const auto a = grid_system(side);
    expect_oracle_match(a, "mesh " + std::to_string(side));
  }
}

TEST(PivotOracle, TieHeavyMeshMatchesRowScan) {
  // The mesh pattern under the AMD path with tie-heavy values: pivoting
  // leaves the diagonal and equal candidates compete.
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> value(0, 3);
  const double values[4] = {1.0, -1.0, 2.0, -2.0};
  for (int trial = 0; trial < 4; ++trial) {
    auto a = grid_system(12);  // 288 unknowns
    for (std::size_t r = 0; r < a.size(); ++r) {
      for (const auto& e : a.row(r)) a.set(r, e.col, values[value(rng)]);
    }
    expect_oracle_match(a, "tie mesh " + std::to_string(trial));
  }
}

TEST(PivotOracle, TieHeavyNaturalOrderMatchesRowScan) {
  std::mt19937 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(trial) % 38;
    const auto a = tie_system(n, rng, trial % 3 != 0);
    expect_oracle_match(a, "tie " + std::to_string(trial));
  }
}

TEST(PivotOracle, ZeroDiagonalMatchesRowScan) {
  // MNA-shaped: conductance block plus voltage-source rows and columns
  // whose diagonal is structurally absent, natural order and AMD.
  for (const std::size_t nodes : {12u, 150u}) {
    const std::size_t sources = nodes / 4;
    sn::SparseMatrix a(nodes + sources);
    for (std::size_t i = 0; i < nodes; ++i) {
      a.add(i, i, 2.0);
      if (i + 1 < nodes) {
        a.add(i, i + 1, -1.0);
        a.add(i + 1, i, -1.0);
      }
    }
    for (std::size_t s = 0; s < sources; ++s) {
      const std::size_t node = 4 * s + 1;
      a.add(node, nodes + s, 1.0);
      a.add(nodes + s, node, 1.0);
    }
    expect_oracle_match(a, "mna " + std::to_string(nodes));
  }
  std::mt19937 rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    expect_oracle_match(tie_system(20, rng, false),
                        "no diagonal " + std::to_string(trial));
  }
}

TEST(PivotOracle, PivotDegradationReanalysisMatchesRowScan) {
  // Zero the first pivot of a factored system: the refactor degrades, the
  // object re-analyzes, and that analysis must be the oracle's.
  for (const std::size_t side : {4u, 10u}) {  // natural order, then AMD
    auto a = grid_system(side);
    sn::SparseLu lu;
    lu.factor(a);
    const std::size_t first =
        lu.reordered() ? sn::amd_order(a).front() : std::size_t{0};
    a.set(first, first, 0.0);
    lu.factor(a);
    EXPECT_EQ(lu.analyze_count(), 2u) << side;
    EXPECT_EQ(lu.refactor_count(), 0u) << side;
    const RowScanLu oracle(a);
    EXPECT_EQ(lu.fill_nonzeros(), oracle.fill_nonzeros()) << side;
    const std::vector<double> b(a.size(), 1.0);
    const auto x = lu.solve(b);
    const auto expected = oracle.solve(b);
    EXPECT_EQ(
        std::memcmp(x.data(), expected.data(), x.size() * sizeof(double)), 0)
        << side;
  }
}

TEST(PivotOracle, PdnGridJacobiansMatchRowScan) {
  // Real MNA Jacobians of the 16x16 mesh PDN (AMD path): DC, where the
  // inductors and the regulator are voltage-defined branch rows with no
  // diagonal, and trapezoidal transient at two step sizes.
  ss::LoadContext dc;
  const auto a = pdn_jacobian(dc);
  ASSERT_EQ(a.size(), 546u);
  std::size_t no_diagonal = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (!has_entry(a, r, r)) ++no_diagonal;
  }
  // The branch rows of the 16 bump inductors and of the regulator, and
  // the regulator's node, which only those branch currents touch.
  EXPECT_EQ(no_diagonal, 18u);
  EXPECT_EQ(expect_oracle_match(a, "pdn dc"), a.size());
  for (const double dt : {1e-12, 5e-11}) {
    ss::LoadContext tran;
    tran.mode = ss::AnalysisMode::kTransient;
    tran.method = ss::IntegrationMethod::kTrapezoidal;
    tran.dt = dt;
    tran.time = dt;
    const auto t = pdn_jacobian(tran);
    EXPECT_EQ(expect_oracle_match(t, "pdn tran " +
                                         std::to_string(dt * 1e12) + " ps"),
              t.size());
  }
}

TEST(PivotOracle, NonFiniteEntriesMatchRowScan) {
  // NaN and +-Inf reaching the pivot search at the first, a middle and the
  // last step, on the diagonal, below it and above it: both eliminations
  // must report the same singular column or return the same bits.
  const double values[3] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  std::size_t singular = 0;
  std::size_t solved = 0;
  for (const std::size_t n : {40u, 200u}) {  // natural order, then AMD
    const auto base = n < sn::SparseLu::kAutoOrderingThreshold
                          ? coupled_chain(n)
                          : grid_system(10);
    ASSERT_EQ(base.size(), n);
    const auto q = n < sn::SparseLu::kAutoOrderingThreshold
                       ? std::vector<std::size_t>{}
                       : sn::amd_order(base);
    const auto original = [&](std::size_t k) { return q.empty() ? k : q[k]; };
    for (const std::size_t step : {std::size_t{0}, n / 2, n - 1}) {
      const std::size_t col = original(step);
      // Every entry of the column: the diagonal, rows pivoted earlier (U
      // entries) and rows still to pivot (pivot candidates). The pattern,
      // and so the permutation, stays.
      for (std::size_t r = 0; r < n; ++r) {
        if (!has_entry(base, r, col)) continue;
        for (const double v : values) {
          auto a = base;
          a.set(r, col, v);
          const std::string what = "n=" + std::to_string(n) +
                                   " step=" + std::to_string(step) + " (" +
                                   std::to_string(r) + "," +
                                   std::to_string(col) + ")=" +
                                   std::to_string(v);
          if (expect_oracle_match(a, what) == n) {
            ++solved;
          } else {
            ++singular;
          }
        }
      }
    }
  }
  // A candidate that goes non-finite poisons every later pivot search, so
  // the factorizations that return do so with the value held in U: column
  // 0 is its diagonal alone, no L column carries row 0 onward, and the
  // solves return the non-finite bits. With an explicit +0.0 at (1, 0) the
  // zero multiplier still takes its update, 0 * Inf included.
  const std::size_t n = 40;
  const auto chain = coupled_chain(n);
  for (const bool zero_multiplier : {false, true}) {
    for (const std::size_t step : {std::size_t{1}, n / 2, n - 1}) {
      for (const double v : values) {
        sn::SparseMatrix a(n);
        for (std::size_t r = 0; r < n; ++r) {
          for (const auto& e : chain.row(r)) {
            if (r == 0 || e.col != 0) a.set(r, e.col, e.value);
          }
        }
        if (zero_multiplier) a.set(1, 0, 0.0);
        a.set(0, step, v);
        const std::string what = "U(0," + std::to_string(step) + ")=" +
                                 std::to_string(v) +
                                 (zero_multiplier ? ", L(1,0)=0" : "");
        if (expect_oracle_match(a, what) == n) {
          ++solved;
        } else {
          ++singular;
        }
      }
    }
  }
  // Both outcomes occur, so both comparisons ran.
  EXPECT_GT(singular, 0u);
  EXPECT_GT(solved, 0u);
}

TEST(PivotOracle, SignedZeroEntriesStillFill) {
  // An arrow whose hub comes first: its row and column hold explicit +0.0
  // and -0.0 entries only, and they still fill the whole matrix.
  for (const std::size_t n : {8u, 30u}) {
    sn::SparseMatrix a(n);
    a.set(0, 0, 4.0);
    for (std::size_t i = 1; i < n; ++i) {
      a.set(i, 0, i % 2 == 0 ? 0.0 : -0.0);
      a.set(0, i, i % 3 == 0 ? -0.0 : 0.0);
      a.set(i, i, 2.0 + static_cast<double>(i % 4));
    }
    EXPECT_EQ(expect_oracle_match(a, "arrow " + std::to_string(n)), n);
    const sn::SparseLu lu(a);
    EXPECT_EQ(lu.fill_nonzeros(), n * n) << n;
  }
}

TEST(PivotOracle, AmdSingularAtTheLastColumnReportsItsOriginalIndex) {
  // Zero every value of the column AMD eliminates last (the pattern, and
  // so the permutation, stays): only the last pivot search comes up empty,
  // and the error names original column q[n-1].
  auto a = grid_system(10);  // 200 unknowns
  const std::size_t n = a.size();
  const auto q = sn::amd_order(a);
  for (std::size_t r = 0; r < n; ++r) {
    if (has_entry(a, r, q.back())) a.set(r, q.back(), 0.0);
  }
  EXPECT_EQ(expect_oracle_match(a, "amd last column"), q.back());
  EXPECT_NE(q.back(), n - 1);  // the permutation matters here
}

namespace {

/// amd_order against the reference on `a`'s symmetrized pattern.
void expect_amd_oracle_match(const sn::SparseMatrix& a,
                             const std::string& what) {
  EXPECT_EQ(sn::amd_order(a), amd_oracle::amd_order(sn::pattern_adjacency(a)))
      << what;
}

/// 5-point Laplacian pattern of a side x side mesh.
sn::SparseMatrix laplacian_mesh(std::size_t side) {
  sn::SparseMatrix a(side * side);
  for (std::size_t i = 0; i < side * side; ++i) {
    a.add(i, i, 4.0);
    if (i % side + 1 < side) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
    if (i + side < side * side) {
      a.add(i, i + side, -1.0);
      a.add(i + side, i, -1.0);
    }
  }
  return a;
}

/// The Jacobian pattern of `c` at x = 0 under `ctx`, stamped through
/// sim::Stamper in one bracketed load.
sn::SparseMatrix stamped_jacobian(ss::Circuit& c, const ss::LoadContext& ctx) {
  c.prepare();
  const std::vector<double> x(c.unknown_count(), 0.0);
  std::vector<double> residual(x.size(), 0.0);
  sn::SparseMatrix jacobian(x.size());
  ss::Stamper stamper(jacobian, residual);
  jacobian.begin_load();
  for (const auto& device : c.devices()) {
    if (ctx.mode == ss::AnalysisMode::kTransient) device->init_state(x);
    device->load(x, stamper, ctx);
  }
  EXPECT_TRUE(jacobian.end_load());
  return jacobian;
}

/// MNA shape: random two-terminal conductances among `nodes` node rows,
/// plus `branches` voltage-defined branch rows, each tying two nodes with
/// +-1 entries and no diagonal of its own. Some nodes are reached only
/// through branches, so their rows lack a diagonal too.
sn::SparseMatrix mna_shape(std::size_t nodes, std::size_t branches,
                           std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick(0, nodes - 1);
  sn::SparseMatrix a(nodes + branches);
  for (std::size_t k = 0; k < nodes; ++k) {
    const std::size_t u = pick(rng);
    const std::size_t v = pick(rng);
    if (u % 5 == 0 || v % 5 == 0) continue;  // branch-only nodes
    a.add(u, u, 1.0);
    a.add(v, v, 1.0);
    if (u != v) {
      a.add(u, v, -1.0);
      a.add(v, u, -1.0);
    }
  }
  for (std::size_t b = 0; b < branches; ++b) {
    const std::size_t row = nodes + b;
    for (const std::size_t node : {pick(rng), pick(rng)}) {
      a.add(node, row, 1.0);
      a.add(row, node, 1.0);
    }
  }
  return a;
}

/// Unsymmetric random pattern: `per_row` entries a row on average, a
/// diagonal only where `diagonal_every` divides the row, and a few dense
/// rows and columns (hubs) when `hubs` is set.
sn::SparseMatrix unsymmetric_pattern(std::size_t n, std::size_t per_row,
                                     std::size_t diagonal_every, bool hubs,
                                     std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  sn::SparseMatrix a(n);
  for (std::size_t k = 0; k < per_row * n; ++k) {
    a.set(pick(rng), pick(rng), 1.0);
  }
  for (std::size_t i = 0; i < n; i += diagonal_every) a.set(i, i, 1.0);
  if (hubs) {
    for (std::size_t h = 0; h < 3; ++h) {
      const std::size_t hub = pick(rng);
      for (std::size_t i = 0; i < n; i += 2) a.set(hub, i, 1.0);
      for (std::size_t i = 1; i < n; i += 3) a.set(i, hub, 1.0);
    }
  }
  return a;
}

}  // namespace

TEST(AmdOracle, MeshesMatchReference) {
  for (std::size_t side = 8; side <= 32; ++side) {
    expect_amd_oracle_match(laplacian_mesh(side),
                            "laplacian " + std::to_string(side));
    expect_amd_oracle_match(grid_system(side),
                            "rail mesh " + std::to_string(side));
  }
}

TEST(AmdOracle, ZeroDiagonalMnaShapesMatchReference) {
  std::mt19937 rng(2718);
  for (const std::size_t nodes : {10u, 60u, 150u, 400u}) {
    for (const std::size_t branches : {std::size_t{1}, nodes / 8, nodes / 2}) {
      for (int draw = 0; draw < 3; ++draw) {
        const auto a = mna_shape(nodes, branches, rng);
        std::size_t no_diagonal = 0;
        for (std::size_t r = 0; r < a.size(); ++r) {
          if (!has_entry(a, r, r)) ++no_diagonal;
        }
        EXPECT_GE(no_diagonal, branches);
        expect_amd_oracle_match(a, "mna " + std::to_string(nodes) + "+" +
                                       std::to_string(branches));
      }
    }
  }
  // The 16x16 mesh PDN's own DC and transient Jacobians.
  ss::LoadContext dc;
  expect_amd_oracle_match(pdn_jacobian(dc), "pdn dc");
  ss::LoadContext tran;
  tran.mode = ss::AnalysisMode::kTransient;
  tran.method = ss::IntegrationMethod::kTrapezoidal;
  tran.dt = tran.time = 1e-12;
  expect_amd_oracle_match(pdn_jacobian(tran), "pdn tran");
}

TEST(AmdOracle, BankDeckMatchesReference) {
  // A bank of Soft-FET inverters on shared bondwires, the shape of the
  // service benchmark's bank deck: PTM, MOSFET, inductor and source rows.
  std::string text =
      "inverter bank\n"
      ".model vo2 ptm rins=500k rmet=5k vimt=0.4 vmit=0.3 tptm=10p\n"
      ".model nch nmos\n.model pch pmos\n"
      "Vdd vddp 0 1\nLbv vddp vddb 1n\nRbv vddb vdd 0.1\n"
      "Lbg vssi vssb 1n\nRbg vssb 0 0.1\nCdec vdd vssi 20f\n"
      "Vin in 0 PWL(0 1 100p 1 130p 0)\n";
  for (int k = 0; k < 8; ++k) {
    const std::string i = std::to_string(k);
    text.append("P" + i + " in g" + i + " vo2\n")
        .append("MP" + i + " o" + i + " g" + i + " vdd vdd pch W=240n L=40n\n")
        .append("MN" + i + " o" + i + " g" + i +
                " vssi vssi nch W=120n L=40n\n")
        .append("C" + i + " o" + i + " vssi 2f\n");
  }
  text.append(".tran 1p 1n\n.end\n");
  auto net = softfet::netlist::compile_netlist(text);
  ss::LoadContext dc;
  const auto op = stamped_jacobian(*net.circuit, dc);
  EXPECT_GT(op.size(), 16u);
  expect_amd_oracle_match(op, "bank dc");
  ss::LoadContext tran;
  tran.mode = ss::AnalysisMode::kTransient;
  tran.method = ss::IntegrationMethod::kTrapezoidal;
  tran.dt = tran.time = 1e-12;
  expect_amd_oracle_match(stamped_jacobian(*net.circuit, tran), "bank tran");
}

TEST(AmdOracle, SeededUnsymmetricPatternsMatchReference) {
  for (unsigned seed = 0; seed < 240; ++seed) {
    std::mt19937 rng(seed);
    const std::size_t n = 1 + seed % 7 * 41 + seed % 13;
    const std::size_t per_row = 1 + seed % 6;
    const std::size_t diagonal_every = 1 + seed % 4;
    const bool hubs = seed % 5 == 0;
    expect_amd_oracle_match(
        unsymmetric_pattern(n, per_row, diagonal_every, hubs, rng),
        "seed " + std::to_string(seed) + ", n " + std::to_string(n));
  }
  // Degenerate shapes: empty, a lone node, isolated nodes, a star.
  expect_amd_oracle_match(sn::SparseMatrix(0), "empty");
  expect_amd_oracle_match(sn::SparseMatrix(1), "one node");
  expect_amd_oracle_match(sn::SparseMatrix(5), "five isolated nodes");
  sn::SparseMatrix star(50);
  for (std::size_t i = 1; i < 50; ++i) star.set(0, i, 1.0);
  expect_amd_oracle_match(star, "star");
}
