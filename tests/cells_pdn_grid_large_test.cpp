// Large mesh-PDN transients: the direct (auto-ordered) policy against the
// preconditioned-iterative policy on a grid big enough for ordering and
// the Krylov path to engage. Registered with the `grid-large` ctest label
// and a long timeout in tests/CMakeLists.txt; sanitizer CI excludes the
// label so instrumented runs stay bounded. The AMD oracle's largest
// patterns live here for the same reason.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "amd_oracle.hpp"
#include "cells/pdn.hpp"
#include "devices/sources.hpp"
#include "measure/metrics.hpp"
#include "measure/waveform.hpp"
#include "numeric/ordering.hpp"
#include "numeric/sparse_matrix.hpp"
#include "sim/analyses.hpp"
#include "sim/stamper.hpp"

namespace sc = softfet::cells;
namespace sd = softfet::devices;
namespace sn = softfet::numeric;
namespace ss = softfet::sim;
using softfet::measure::Waveform;

namespace {

sc::PdnGrid build_grid(ss::Circuit& c, std::size_t side) {
  const auto grid = sc::make_pdn_grid(
      c, "pdn",
      sc::PdnGridParams::from_lumped(sc::PdnParams::zhang_islped13(), side,
                                     side));
  c.add<sd::ISource>("Iload", grid.tile(side / 4, side / 4), ss::kGroundNode,
                     sd::SourceSpec::pulse(0.0, 20e-3, 1e-9, 100e-12, 100e-12,
                                           1.0));
  return grid;
}

}  // namespace

TEST(PdnGridLarge, IterativePolicyMatchesDirectOnMesh) {
  constexpr std::size_t kSide = 32;

  ss::Circuit direct_c;
  const auto grid = build_grid(direct_c, kSide);
  ss::SimOptions direct_opt;  // default: kDirect policy, kAuto ordering
  const auto direct = ss::run_transient(direct_c, 4e-9, direct_opt);
  EXPECT_TRUE(direct.diagnostics.reordered);
  EXPECT_GT(direct.diagnostics.fill_ratio, 1.0);
  EXPECT_EQ(direct.diagnostics.krylov_solves, 0u);
  EXPECT_EQ(direct.diagnostics.symbolic_analyses, 1u);

  ss::Circuit iter_c;
  build_grid(iter_c, kSide);
  ss::SimOptions iter_opt;
  iter_opt.solver_policy = softfet::numeric::SolverPolicy::kIterative;
  const auto iterative = ss::run_transient(iter_c, 4e-9, iter_opt);
  EXPECT_GT(iterative.diagnostics.krylov_solves, 0u);
  // The iterative run answers most solves from the stale factorization.
  EXPECT_LT(iterative.diagnostics.refactorizations,
            direct.diagnostics.refactorizations);

  const Waveform rail_d =
      Waveform::from_tran(direct, grid.tile_signal(kSide / 4, kSide / 4));
  const Waveform rail_i =
      Waveform::from_tran(iterative, grid.tile_signal(kSide / 4, kSide / 4));
  for (int i = 1; i <= 20; ++i) {
    const double t = 4e-9 * i / 20.0;
    EXPECT_NEAR(rail_i.value(t), rail_d.value(t), 1e-6) << "t=" << t;
  }
}

namespace {

/// amd_order against the reference on `a`'s symmetrized pattern.
void expect_amd_oracle_match(const sn::SparseMatrix& a,
                             const std::string& what) {
  EXPECT_EQ(sn::amd_order(a), amd_oracle::amd_order(sn::pattern_adjacency(a)))
      << what;
}

/// The Jacobian of a side x side make_pdn_grid mesh at x = 0 under `ctx`.
sn::SparseMatrix pdn_jacobian(std::size_t side, const ss::LoadContext& ctx) {
  ss::Circuit c;
  (void)sc::make_pdn_grid(
      c, "pdn",
      sc::PdnGridParams::from_lumped(sc::PdnParams::zhang_islped13(), side,
                                     side));
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

}  // namespace

TEST(AmdOracleLarge, Mesh64MatchesReference) {
  constexpr std::size_t kSide = 64;
  sn::SparseMatrix a(kSide * kSide);
  for (std::size_t i = 0; i < kSide * kSide; ++i) {
    a.add(i, i, 4.0);
    if (i % kSide + 1 < kSide) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
    if (i + kSide < kSide * kSide) {
      a.add(i, i + kSide, -1.0);
      a.add(i + kSide, i, -1.0);
    }
  }
  expect_amd_oracle_match(a, "64x64 laplacian");
}

TEST(AmdOracleLarge, PdnJacobiansMatchReference) {
  ss::LoadContext dc;
  ss::LoadContext tran;
  tran.mode = ss::AnalysisMode::kTransient;
  tran.method = ss::IntegrationMethod::kTrapezoidal;
  tran.dt = tran.time = 1e-12;
  for (const std::size_t side : {16u, 64u}) {
    const std::string name = std::to_string(side) + "x" + std::to_string(side);
    expect_amd_oracle_match(pdn_jacobian(side, dc), name + " pdn dc");
    expect_amd_oracle_match(pdn_jacobian(side, tran), name + " pdn tran");
  }
}
