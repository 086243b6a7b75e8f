#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "numeric/dense_lu.hpp"
#include "numeric/linear_solver.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"
#include "util/error.hpp"

namespace sn = softfet::numeric;

TEST(SparseMatrix, AddAccumulates) {
  sn::SparseMatrix a(2);
  a.add(0, 0, 1.0);
  a.add(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(a.get(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.get(1, 1), 0.0);
  EXPECT_EQ(a.nonzeros(), 1u);
}

TEST(SparseMatrix, SetZeroKeepsStructure) {
  sn::SparseMatrix a(2);
  a.add(0, 1, 5.0);
  a.set_zero_keep_structure();
  EXPECT_DOUBLE_EQ(a.get(0, 1), 0.0);
  EXPECT_EQ(a.nonzeros(), 1u);  // entry still present
}

TEST(SparseMatrix, ToDenseMatchesMultiply) {
  sn::SparseMatrix a(3);
  a.add(0, 0, 2.0);
  a.add(1, 2, -1.0);
  a.add(2, 1, 4.0);
  const std::vector<double> x{1.0, 2.0, 3.0};
  const auto y_sparse = a.multiply(x);
  const auto y_dense = a.to_dense().multiply(x);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(y_sparse[i], y_dense[i]);
  }
}

namespace {

struct Stamp {
  std::size_t r;
  std::size_t c;
  double v;
};

/// One bracketed load of `stamps`; returns end_load().
bool load(sn::SparseMatrix& a, const std::vector<Stamp>& stamps) {
  a.begin_load();
  for (const Stamp& s : stamps) a.add(s.r, s.c, s.v);
  return a.end_load();
}

/// Same pattern, same values to the bit (so +0.0 differs from -0.0).
void expect_bitwise_equal(const sn::SparseMatrix& a, const sn::SparseMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].col, rb[k].col) << "row " << r;
      EXPECT_EQ(std::memcmp(&ra[k].value, &rb[k].value, sizeof(double)), 0)
          << "row " << r << " col " << ra[k].col;
    }
  }
}

// Out of column order, repeated entries, and a lone -0.0 at (1, 2).
const std::vector<Stamp> kTape = {{2, 2, 1.5}, {0, 1, -2.0}, {1, 2, -0.0},
                                  {0, 0, 0.1}, {2, 0, 3.0},  {0, 0, 0.2},
                                  {0, 1, 0.25}};

}  // namespace

TEST(SparseMatrix, ReplayedLoadMatchesRecordedBitwise) {
  std::vector<Stamp> second = kTape;
  for (Stamp& s : second) s.v = s.v == 0.0 ? s.v : s.v * 1.7;

  sn::SparseMatrix replayed(3);
  ASSERT_TRUE(load(replayed, kTape));  // records
  ASSERT_TRUE(load(replayed, second));  // replays
  sn::SparseMatrix recorded(3);
  ASSERT_TRUE(load(recorded, second));
  expect_bitwise_equal(replayed, recorded);

  // Every entry starts at +0.0 and a stamp adds, so -0.0 alone reads +0.0.
  EXPECT_FALSE(std::signbit(replayed.get(1, 2)));
  EXPECT_EQ(replayed.get(0, 0), 0.1 * 1.7 + 0.2 * 1.7);
  EXPECT_EQ(replayed.row(0).size(), 2u);
  EXPECT_LT(replayed.row(0)[0].col, replayed.row(0)[1].col);
}

TEST(SparseMatrix, DepartingLoadGrowsPatternAndFlagsOnce) {
  std::vector<Stamp> grown = kTape;
  grown.insert(grown.begin() + 3, Stamp{1, 0, 4.0});  // new entry mid-tape
  std::vector<Stamp> shorter = kTape;
  shorter.pop_back();

  sn::SparseMatrix a(3);
  ASSERT_TRUE(load(a, kTape));
  EXPECT_FALSE(load(a, grown));
  EXPECT_EQ(a.get(1, 0), 4.0);
  EXPECT_EQ(a.nonzeros(), 6u);
  sn::SparseMatrix fresh(3);
  ASSERT_TRUE(load(fresh, grown));
  expect_bitwise_equal(a, fresh);
  EXPECT_TRUE(load(a, grown));  // the departing load became the tape
  expect_bitwise_equal(a, fresh);

  // Stopping short of the tape is a departure too.
  EXPECT_FALSE(load(a, shorter));
  EXPECT_TRUE(load(a, shorter));
}

TEST(SparseMatrix, AbandonedLoadLeavesNoPartialTape) {
  sn::SparseMatrix a(3);
  // A first load that stops midway (a throw, a non-finite retry) must not
  // leave half a tape for the full load to "depart" from.
  a.begin_load();
  a.add(2, 2, 1.0);
  a.add(0, 1, 1.0);
  EXPECT_TRUE(load(a, kTape));
  // Same for a replay abandoned midway.
  a.begin_load();
  a.add(2, 2, 1.0);
  EXPECT_TRUE(load(a, kTape));
  sn::SparseMatrix fresh(3);
  ASSERT_TRUE(load(fresh, kTape));
  expect_bitwise_equal(a, fresh);
}

TEST(SparseLu, MatchesDenseOnRandomSystems) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, 29);
  const std::size_t n = 30;
  for (int trial = 0; trial < 10; ++trial) {
    sn::SparseMatrix a(n);
    // Sparse random pattern + dominant diagonal.
    for (std::size_t k = 0; k < 4 * n; ++k) {
      a.add(pick(rng), pick(rng), dist(rng));
    }
    for (std::size_t i = 0; i < n; ++i) a.add(i, i, 5.0);
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = dist(rng);
    const auto b = a.multiply(x_true);

    const auto x_sparse = sn::SparseLu(a).solve(b);
    const auto x_dense = sn::DenseLu(a.to_dense()).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_sparse[i], x_true[i], 1e-9);
      EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-9);
    }
  }
}

TEST(SparseLu, PivotingHandlesZeroDiagonal) {
  sn::SparseMatrix a(2);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  const auto x = sn::SparseLu(a).solve({3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, SingularThrows) {
  sn::SparseMatrix a(2);
  a.add(0, 0, 1.0);
  a.add(1, 0, 1.0);  // column 1 empty -> singular
  EXPECT_THROW(sn::SparseLu{a}, softfet::ConvergenceError);
}

namespace {

sn::SparseMatrix random_pattern_system(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  sn::SparseMatrix a(n);
  for (std::size_t k = 0; k < 4 * n; ++k) a.add(pick(rng), pick(rng), dist(rng));
  for (std::size_t i = 0; i < n; ++i) a.add(i, i, 5.0);
  return a;
}

/// Overwrite every stored entry with fresh random values, keeping the
/// pattern (mimics a Newton reload via set_zero_keep_structure + stamping).
void refresh_values(sn::SparseMatrix& a, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  a.set_zero_keep_structure();
  const std::size_t n = a.size();
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& [c, v] : a.row(r)) {
      (void)v;
      a.set(r, c, dist(rng) + (r == c ? 5.0 : 0.0));
    }
  }
}

}  // namespace

TEST(SparseLu, RefactorMatchesFreshFactorization) {
  std::mt19937 rng(11);
  const std::size_t n = 40;
  auto a = random_pattern_system(n, rng);
  std::vector<double> b(n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& v : b) v = dist(rng);

  sn::SparseLu cached(a);
  EXPECT_EQ(cached.analyze_count(), 1u);
  for (int round = 0; round < 8; ++round) {
    refresh_values(a, rng);
    cached.factor(a);
    const auto x_cached = cached.solve(b);
    const auto x_fresh = sn::SparseLu(a).solve(b);
    const auto x_dense = sn::DenseLu(a.to_dense()).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_cached[i], x_dense[i], 1e-9);
      EXPECT_NEAR(x_cached[i], x_fresh[i], 1e-9);
    }
  }
  // All eight rounds must have taken the numeric-only path.
  EXPECT_EQ(cached.analyze_count(), 1u);
  EXPECT_EQ(cached.refactor_count(), 8u);
}

TEST(SparseLu, RefactorDetectsPatternChange) {
  sn::SparseMatrix a(3);
  a.add(0, 0, 2.0);
  a.add(1, 1, 3.0);
  a.add(2, 2, 4.0);
  sn::SparseLu lu(a);
  EXPECT_EQ(lu.analyze_count(), 1u);

  a.add(0, 2, 1.0);  // new structural entry
  lu.factor(a);
  EXPECT_EQ(lu.analyze_count(), 2u);
  const auto x = lu.solve({2.0, 3.0, 4.0});
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0, 1e-12);
  EXPECT_NEAR(x[0], 0.5, 1e-12);  // 2*x0 + 1*x2 = 2 -> x0 = 0.5
}

TEST(SparseLu, RefactorRepivotsWhenPivotDegrades) {
  // First factorization pivots on a large diagonal; the refreshed values
  // zero that pivot out, which must trigger a fresh analysis (new pivot
  // order) instead of dividing by ~0.
  sn::SparseMatrix a(2);
  a.add(0, 0, 4.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1.0);
  sn::SparseLu lu(a);

  a.set(0, 0, 0.0);  // degenerate leading pivot, matrix still nonsingular
  lu.factor(a);
  EXPECT_EQ(lu.analyze_count(), 2u);
  const auto x = lu.solve({1.0, 1.0});
  // [0 1; 1 1] x = [1, 1] -> x = [0, 1].
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseLu, RefactorToSingularThrows) {
  sn::SparseMatrix a(2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 3.0);
  a.add(1, 1, 4.0);
  sn::SparseLu lu(a);

  a.set_zero_keep_structure();
  a.set(0, 0, 1.0);
  a.set(0, 1, 2.0);
  a.set(1, 0, 2.0);
  a.set(1, 1, 4.0);  // rank 1
  EXPECT_THROW(lu.factor(a), softfet::ConvergenceError);
}

TEST(LinearSolver, AutoSelectsAndSolves) {
  sn::SparseMatrix a(3);
  a.add(0, 0, 1.0);
  a.add(1, 1, 2.0);
  a.add(2, 2, 4.0);
  sn::LinearSolver solver(sn::SolverKind::kAuto);
  const auto x = solver.solve(a, {1.0, 2.0, 4.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0, 1e-12);
}

TEST(LinearSolver, ForcedSparseMatchesForcedDense) {
  sn::SparseMatrix a(4);
  a.add(0, 0, 3.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 3.0);
  a.add(2, 2, 1.0);
  a.add(3, 3, 2.0);
  a.add(2, 3, 0.5);
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
  const auto xs = sn::LinearSolver(sn::SolverKind::kSparse).solve(a, b);
  const auto xd = sn::LinearSolver(sn::SolverKind::kDense).solve(a, b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
}


// Value reuse: LinearSolver skips factor() when the matrix repeats, bit for
// bit, the one the cached factors were last refactored from.

namespace {

/// 2-D Laplacian-like mesh of side x side unknowns with a dominant diagonal;
/// from side 12 on it takes the AMD path.
sn::SparseMatrix mesh_system(std::size_t side) {
  const std::size_t n = side * side;
  sn::SparseMatrix a(n);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const std::size_t i = r * side + c;
      a.add(i, i, 4.5);
      if (c + 1 < side) {
        a.add(i, i + 1, -1.0);
        a.add(i + 1, i, -1.0);
      }
      if (r + 1 < side) {
        a.add(i, i + side, -1.0);
        a.add(i + side, i, -1.0);
      }
    }
  }
  return a;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
  }
  return b;
}

bool bitwise_equal(const std::vector<double>& x,
                   const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Zero every value of column `col`, keeping the pattern: singular.
void zero_column(sn::SparseMatrix& a, std::size_t col) {
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (const auto& e : a.row(r)) {
      if (e.col == col) a.set(r, col, 0.0);
    }
  }
}

}  // namespace

TEST(ValueReuse, SparseLuHoldsOnlyTheLastRefactoredBits) {
  auto a = mesh_system(4);
  sn::SparseLu lu(a);
  EXPECT_FALSE(lu.holds(a));  // fresh from an analysis, not a refactor
  lu.factor(a);
  EXPECT_TRUE(lu.holds(a));
  a.set(5, 5, std::nextafter(4.5, 5.0));  // one ulp
  EXPECT_FALSE(lu.holds(a));
  lu.factor(a);
  EXPECT_TRUE(lu.holds(a));
  EXPECT_FALSE(sn::SparseLu().holds(a));
  EXPECT_FALSE(lu.holds(mesh_system(5)));  // another size
}

TEST(ValueReuse, CountsReusesAsRefactorizations) {
  const auto a = mesh_system(6);
  const auto b = ramp(a.size());
  sn::LinearSolver solver;
  for (int call = 0; call < 5; ++call) (void)solver.solve(a, b);
  // analyze, refactor, then three reuses of that refactor.
  const sn::LinearSolverStats stats = solver.stats();
  EXPECT_EQ(stats.symbolic_analyses, 1u);
  EXPECT_EQ(stats.refactorizations, 4u);
  EXPECT_EQ(stats.value_reuses, 3u);
  EXPECT_EQ(stats.direct_solves, 5u);
}

TEST(ValueReuse, ReusedSolveIsBitwiseAFreshFactorization) {
  for (const std::size_t side : {6u, 12u}) {  // natural order, then AMD
    auto a = mesh_system(side);
    const auto b = ramp(a.size());
    sn::LinearSolver solver;
    (void)solver.solve(a, b);
    a.set(0, 0, 5.0);
    (void)solver.solve(a, b);  // a refactor
    const auto reused = solver.solve(a, b);
    EXPECT_EQ(solver.stats().value_reuses, 1u) << side;
    EXPECT_TRUE(bitwise_equal(reused, sn::SparseLu(a).solve(b))) << side;
  }
}

TEST(ValueReuse, SignedZeroFlipForcesARealFactor) {
  auto a = mesh_system(5);
  a.add(0, 3, 0.0);  // a structural +0.0
  const auto b = ramp(a.size());
  sn::LinearSolver solver;
  (void)solver.solve(a, b);
  (void)solver.solve(a, b);
  (void)solver.solve(a, b);
  ASSERT_EQ(solver.stats().value_reuses, 1u);
  a.set(0, 3, -0.0);  // == +0.0, different bits
  const auto x = solver.solve(a, b);
  EXPECT_EQ(solver.stats().value_reuses, 1u);
  EXPECT_EQ(solver.stats().refactorizations, 3u);
  EXPECT_TRUE(bitwise_equal(x, sn::SparseLu(a).solve(b)));
}

TEST(ValueReuse, PatternChangeStillReanalyzes) {
  auto a = mesh_system(5);
  const auto b = ramp(a.size());
  sn::LinearSolver solver;
  (void)solver.solve(a, b);
  (void)solver.solve(a, b);
  a.add(0, 24, 0.0);  // new structural entry, every value unchanged
  const auto x = solver.solve(a, b);
  const sn::LinearSolverStats stats = solver.stats();
  EXPECT_EQ(stats.symbolic_analyses, 2u);
  EXPECT_EQ(stats.value_reuses, 0u);
  EXPECT_TRUE(bitwise_equal(x, sn::SparseLu(a).solve(b)));
}

/// 20-unknown tridiagonal system plus an entry at (19, 17); `singular`
/// copies row 18's values into row 19, so only the last pivot vanishes
/// (the refactor has rebuilt every other row by the time it fails).
sn::SparseMatrix twin_row_system(bool singular) {
  const std::size_t n = 20;
  sn::SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  a.add(19, 17, 0.5);
  if (singular) {
    a.set(19, 17, -1.0);
    a.set(19, 18, 4.0);
    a.set(19, 19, -1.0);
  }
  return a;
}

TEST(ValueReuse, SingularMatrixThrowsEveryTimeAndGoodOneSolvesAfter) {
  auto zeroed = mesh_system(5);
  zero_column(zeroed, 7);
  const std::pair<sn::SparseMatrix, sn::SparseMatrix> cases[] = {
      {mesh_system(5), zeroed},
      {twin_row_system(false), twin_row_system(true)}};
  for (const auto& [good, singular] : cases) {
    const auto b = ramp(good.size());
    sn::LinearSolver solver;
    (void)solver.solve(good, b);
    (void)solver.solve(good, b);
    (void)solver.solve(good, b);
    EXPECT_THROW((void)solver.solve(singular, b),
                 softfet::SingularMatrixError);
    EXPECT_THROW((void)solver.solve(singular, b),
                 softfet::SingularMatrixError);
    const auto x = solver.solve(good, b);
    EXPECT_TRUE(bitwise_equal(x, sn::SparseLu(good).solve(b)));
    const auto again = solver.solve(good, b);
    EXPECT_TRUE(bitwise_equal(again, x));
    EXPECT_EQ(solver.stats().value_reuses, 2u);
  }
}

TEST(ValueReuse, AmdSolveAfterASingularPatternChange) {
  // A singular matrix of another pattern throws mid-analysis; the cached
  // factorization of `a`, permutation included, must still answer for `a`.
  const auto a = mesh_system(12);
  const auto b = ramp(a.size());
  auto other = a;
  other.add(0, 143, 1.0);
  zero_column(other, 50);
  sn::LinearSolver solver;
  (void)solver.solve(a, b);
  EXPECT_THROW((void)solver.solve(other, b), softfet::SingularMatrixError);
  const auto x = solver.solve(a, b);
  EXPECT_TRUE(bitwise_equal(x, sn::SparseLu(a).solve(b)));
}

TEST(ValueReuse, DensePathAlwaysFactors) {
  const auto a = mesh_system(3);  // 9 unknowns: dense
  const auto b = ramp(a.size());
  sn::LinearSolver solver;
  for (int call = 0; call < 3; ++call) (void)solver.solve(a, b);
  EXPECT_EQ(solver.stats().value_reuses, 0u);
  EXPECT_EQ(solver.stats().direct_solves, 3u);
}

namespace {

/// Row-order stamps of mesh_system(side).
std::vector<Stamp> mesh_stamps(std::size_t side) {
  const auto a = mesh_system(side);
  std::vector<Stamp> stamps;
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (const auto& [c, v] : a.row(r)) stamps.push_back({r, c, v});
  }
  return stamps;
}

/// 20 unknowns: a 4.0 diagonal plus row 0 entries at columns 3 (`zero`) and
/// 19 (the NaN with payload bits `nan_bits`). Nothing sits below the
/// diagonal, so no row reads row 0's U and the NaN factors cleanly.
/// `packed`: stamped in a bracketed load (flat) rather than built by hand.
sn::SparseMatrix upper_row_system(double zero, std::uint64_t nan_bits,
                                  bool packed) {
  sn::SparseMatrix a(20);
  if (packed) a.begin_load();
  for (std::size_t i = 0; i < 20; ++i) a.add(i, i, 4.0);
  a.add(0, 3, 0.0);
  a.add(0, 19, 0.0);
  if (packed) {
    EXPECT_TRUE(a.end_load());
  }
  EXPECT_EQ(a.flat(), packed);
  a.set(0, 3, zero);
  a.set(0, 19, std::bit_cast<double>(nan_bits));
  return a;
}

}  // namespace

TEST(FlatStore, DepartureAfterPackingGrowsPatternAndReanalyzes) {
  const auto stamps = mesh_stamps(5);
  auto grown = stamps;
  grown.insert(grown.begin() + 10, Stamp{0, 24, 0.5});  // new entry
  sn::SparseMatrix a(25);
  ASSERT_TRUE(load(a, stamps));
  ASSERT_TRUE(a.flat());
  const std::size_t before = a.nonzeros();
  sn::SparseLu lu(a);
  lu.factor(a);
  ASSERT_TRUE(lu.holds(a));

  EXPECT_FALSE(load(a, grown));
  EXPECT_TRUE(a.flat());
  EXPECT_EQ(a.nonzeros(), before + 1);
  sn::SparseMatrix fresh(25);
  ASSERT_TRUE(load(fresh, grown));
  expect_bitwise_equal(a, fresh);
  EXPECT_FALSE(lu.holds(a));
  lu.factor(a);
  EXPECT_EQ(lu.analyze_count(), 2u);
  EXPECT_TRUE(load(a, grown));  // the grown load is the tape now
  lu.factor(a);
  EXPECT_EQ(lu.analyze_count(), 2u);
  EXPECT_EQ(lu.refactor_count(), 2u);
  EXPECT_TRUE(lu.holds(fresh));
}

TEST(FlatStore, HoldsComparesBitsAcrossMatrixObjects) {
  constexpr std::uint64_t kNan = 0x7ff8000000000001;
  constexpr std::uint64_t kOtherNan = 0x7ff8000000000002;
  const auto a = upper_row_system(0.0, kNan, true);
  sn::SparseLu lu(a);
  lu.factor(a);  // a refactor, which holds() vouches for
  ASSERT_EQ(lu.refactor_count(), 1u);
  for (const bool packed : {true, false}) {
    EXPECT_TRUE(lu.holds(upper_row_system(0.0, kNan, packed))) << packed;
    EXPECT_FALSE(lu.holds(upper_row_system(-0.0, kNan, packed))) << packed;
    EXPECT_FALSE(lu.holds(upper_row_system(0.0, kOtherNan, packed)))
        << packed;
  }
}

TEST(FlatStore, LoadsWithoutEndLoadSumLikeATapedLoad) {
  // Repeated begin_load() with no end_load() never records a tape: every
  // stamp takes the searched path, into the packed array from the second
  // load on.
  sn::SparseMatrix searched(3);
  for (int pass = 0; pass < 3; ++pass) {
    searched.begin_load();
    for (const Stamp& s : kTape) searched.add(s.r, s.c, s.v);
  }
  EXPECT_TRUE(searched.flat());
  sn::SparseMatrix taped(3);
  ASSERT_TRUE(load(taped, kTape));
  ASSERT_TRUE(load(taped, kTape));  // replays
  expect_bitwise_equal(searched, taped);
}
