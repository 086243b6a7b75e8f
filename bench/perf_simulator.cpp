// Simulator kernel performance (google-benchmark): linear solves, the
// cached-refactorization path, DC operating points, transient steps/second,
// Monte Carlo scaling, and a full Soft-FET inverter characterization.
//
// Machine-readable trajectory: run with
//   perf_simulator --benchmark_format=json > BENCH_perf.json
// (or `cmake --build build --target perf_json`) so successive PRs can diff
// kernel throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "cells/inverter.hpp"
#include "core/characterize.hpp"
#include "core/variation.hpp"
#include "devices/capacitor.hpp"
#include "devices/ptm.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "numeric/batch_lu.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/krylov.hpp"
#include "numeric/ordering.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/vecmath.hpp"
#include "sim/analyses.hpp"
#include "sim/options.hpp"
#include "util/parallel.hpp"

namespace {

using namespace softfet;

numeric::SparseMatrix random_system(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  numeric::SparseMatrix a(n);
  for (std::size_t k = 0; k < 5 * n; ++k) a.add(pick(rng), pick(rng), dist(rng));
  for (std::size_t i = 0; i < n; ++i) a.add(i, i, 6.0);
  return a;
}

void BM_DenseLuSolve(benchmark::State& state) {
  std::mt19937 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_system(n, rng).to_dense();
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::DenseLu(a).solve(b));
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(16)->Arg(64)->Arg(128);

// Fresh CSR factorization each call (symbolic analysis every time).
void BM_SparseLuSolve(benchmark::State& state) {
  std::mt19937 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_system(n, rng);
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::SparseLu(a).solve(b));
  }
}
BENCHMARK(BM_SparseLuSolve)->Arg(64)->Arg(256)->Arg(1024);

// The hot path after this PR: analyze once, then numeric refactor + solve on
// every call with the values refreshed in place (fixed pattern), exactly the
// shape of a Newton iteration.
void BM_SparseLuRefactorSolve(benchmark::State& state) {
  std::mt19937 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_system(n, rng);
  const std::vector<double> b(n, 1.0);
  numeric::SparseLu lu(a);
  for (auto _ : state) {
    lu.factor(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  if (lu.analyze_count() != 1) {
    state.SkipWithError("refactor path fell back to analysis");
  }
  state.counters["refactors"] =
      static_cast<double>(lu.refactor_count());
}
BENCHMARK(BM_SparseLuRefactorSolve)->Arg(64)->Arg(256)->Arg(1024);

/// PDN-grid conductance matrix: a 5-point rail mesh plus one decap leaf
/// node per tile, with all rail nodes numbered before all leaf nodes —
/// the stamp order make_pdn_grid produces. Symmetric positive definite,
/// arg = grid side, 2*side^2 unknowns. The rail-to-leaf couplings put
/// nonzeros a full side^2 off the diagonal, which is what makes natural
/// (stamping) order fill the whole band and fill-reducing ordering pay.
numeric::SparseMatrix grid_system(std::size_t side) {
  const std::size_t tiles = side * side;
  numeric::SparseMatrix a(2 * tiles);
  const auto id = [side](std::size_t r, std::size_t c) {
    return r * side + c;
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      double diag = 1e-3;  // leak keeps the Laplacian nonsingular
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
      // Decap leaf through its ESR (the companion-model conductance).
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

// Natural-order factorization of the mesh: the banded worst case the AMD
// ordering exists to avoid. Capped at 16x16 — the trend line against
// BM_GridLuFactorAmd at the same Arg (and BM_GridOrderingFill's counters
// at the full scale) already tells the story; natural order at 32x32
// costs over a minute per factorization.
void BM_GridLuFactorNatural(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto a = grid_system(side);
  const std::vector<double> b(a.size(), 1.0);
  for (auto _ : state) {
    numeric::SparseLu lu;
    lu.set_ordering(numeric::OrderingKind::kNatural);
    lu.factor(a);
    benchmark::DoNotOptimize(lu.solve(b));
    state.counters["fill"] = lu.fill_ratio();
  }
}
BENCHMARK(BM_GridLuFactorNatural)->Arg(8)->Arg(16);

void BM_GridLuFactorAmd(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto a = grid_system(side);
  const std::vector<double> b(a.size(), 1.0);
  for (auto _ : state) {
    numeric::SparseLu lu;
    lu.set_ordering(numeric::OrderingKind::kAmd);
    lu.factor(a);
    benchmark::DoNotOptimize(lu.solve(b));
    state.counters["fill"] = lu.fill_ratio();
  }
}
BENCHMARK(BM_GridLuFactorAmd)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Ordering cost and predicted-fill comparison at the 4k-unknown scale the
// droop study runs at. The counters record the headline ratio: natural
// banded fill vs AMD fill on the same pattern.
void BM_GridOrderingFill(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto a = grid_system(side);
  const auto adjacency = numeric::pattern_adjacency(a);
  std::size_t fill_amd = 0;
  for (auto _ : state) {
    const auto order = numeric::amd_order(adjacency);
    fill_amd = numeric::symbolic_fill(adjacency, order);
    benchmark::DoNotOptimize(fill_amd);
  }
  const std::size_t fill_natural = numeric::symbolic_fill_natural(adjacency);
  state.counters["fill_natural"] = static_cast<double>(fill_natural);
  state.counters["fill_amd"] = static_cast<double>(fill_amd);
  state.counters["fill_reduction"] =
      static_cast<double>(fill_natural) / static_cast<double>(fill_amd);
}
BENCHMARK(BM_GridOrderingFill)->Arg(64);

// The transient hot path on the big mesh: AMD-ordered analyze once, then
// numeric refactor + solve per step.
void BM_GridLuRefactorSolve(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto a = grid_system(side);
  const std::vector<double> b(a.size(), 1.0);
  numeric::SparseLu lu;
  lu.set_ordering(numeric::OrderingKind::kAmd);
  lu.factor(a);
  for (auto _ : state) {
    lu.factor(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  if (lu.analyze_count() != 1) {
    state.SkipWithError("refactor path fell back to analysis");
  }
  state.counters["fill"] = lu.fill_ratio();
}
BENCHMARK(BM_GridLuRefactorSolve)->Arg(32)->Arg(64);

// Stale-preconditioner CG on the mesh: the LU of the unperturbed matrix
// keeps serving while the values drift 5% (a Newton/transient step), which
// is the iterative policy's steady state. Compare directly against
// BM_GridLuRefactorSolve at the same Arg.
void BM_GridCgStalePrecond(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto a = grid_system(side);
  numeric::SparseLu precond;
  precond.set_ordering(numeric::OrderingKind::kAmd);
  precond.factor(a);
  // Node-dependent drift: a uniform shift would make the stale LU a
  // perfect preconditioner (CG converges in one step) and hide the cost.
  auto drifted = grid_system(side);
  for (std::size_t i = 0; i < drifted.size(); ++i) {
    drifted.add(i, i, 0.05 * static_cast<double>(i % 8 + 1) / 8.0);
  }
  const std::vector<double> b(a.size(), 1.0);
  std::vector<double> x(a.size(), 0.0);
  numeric::KrylovResult result;
  for (auto _ : state) {
    x.assign(x.size(), 0.0);
    result = numeric::conjugate_gradient(drifted, b, x, &precond);
    benchmark::DoNotOptimize(x.data());
  }
  if (!result.converged) state.SkipWithError("CG did not converge");
  state.counters["iterations"] = static_cast<double>(result.iterations);
}
BENCHMARK(BM_GridCgStalePrecond)->Arg(32)->Arg(64);

void BM_RcLadderDcOp(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Circuit c;
    auto prev = c.node("in");
    c.add<devices::VSource>("V1", prev, sim::kGroundNode,
                            devices::SourceSpec::dc(1.0));
    for (int i = 0; i < stages; ++i) {
      const auto next = c.node("n" + std::to_string(i));
      c.add<devices::Resistor>("R" + std::to_string(i), prev, next, 100.0);
      c.add<devices::Resistor>("Rg" + std::to_string(i), next,
                               sim::kGroundNode, 10e3);
      prev = next;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim::dc_operating_point(c));
  }
}
BENCHMARK(BM_RcLadderDcOp)->Arg(10)->Arg(100);

void BM_RcTransient(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.add<devices::VSource>(
        "Vin", in, sim::kGroundNode,
        devices::SourceSpec::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 1.0));
    c.add<devices::Resistor>("R1", in, out, 1e3);
    c.add<devices::Capacitor>("C1", out, sim::kGroundNode, 1e-9);
    state.ResumeTiming();
    const auto result = sim::run_transient(c, 10e-6);
    state.counters["steps/s"] = benchmark::Counter(
        static_cast<double>(result.accepted_steps),
        benchmark::Counter::kIsIterationInvariantRate);
    benchmark::DoNotOptimize(result.accepted_steps);
  }
}
BENCHMARK(BM_RcTransient);

// RC-ladder transient above the dense threshold: every timestep rides the
// cached sparse refactorization.
void BM_RcLadderTransient(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Circuit c;
    auto prev = c.node("in");
    c.add<devices::VSource>(
        "Vin", prev, sim::kGroundNode,
        devices::SourceSpec::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 1.0));
    for (int i = 0; i < stages; ++i) {
      const auto next = c.node("n" + std::to_string(i));
      c.add<devices::Resistor>("R" + std::to_string(i), prev, next, 100.0);
      c.add<devices::Capacitor>("C" + std::to_string(i), next,
                                sim::kGroundNode, 1e-12);
      prev = next;
    }
    state.ResumeTiming();
    const auto result = sim::run_transient(c, 1e-6);
    state.counters["steps/s"] = benchmark::Counter(
        static_cast<double>(result.accepted_steps),
        benchmark::Counter::kIsIterationInvariantRate);
    benchmark::DoNotOptimize(result.accepted_steps);
  }
}
BENCHMARK(BM_RcLadderTransient)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_SoftFetInverterCharacterization(benchmark::State& state) {
  cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = devices::PtmParams{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::characterize_inverter(spec));
  }
}
BENCHMARK(BM_SoftFetInverterCharacterization);

// Monte Carlo variability study, serial vs. thread pool (arg = worker
// count; 0 lets the pool use every hardware thread). Statistics are
// identical across arguments — only the wall clock moves.
void BM_PtmMonteCarlo(benchmark::State& state) {
  cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = devices::PtmParams{};
  core::MonteCarloSpec mc;
  mc.samples = 8;
  mc.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ptm_monte_carlo(spec, mc));
  }
  state.counters["workers"] = static_cast<double>(
      mc.threads == 0 ? util::hardware_threads()
                      : static_cast<std::size_t>(mc.threads));
}
BENCHMARK(BM_PtmMonteCarlo)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Headline Monte-Carlo throughput for the batched lockstep engine: arg =
// lane width. 1 pins the scalar oracle path; 8 is the automatic batch
// width (what MonteCarloSpec::lanes = 0 resolves to). Statistics are
// bitwise identical across widths — only samples/s moves.
void BM_PtmMonteCarloLanes(benchmark::State& state) {
  cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = devices::PtmParams{};
  core::MonteCarloSpec mc;
  mc.samples = 64;
  mc.threads = 1;
  mc.lanes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ptm_monte_carlo(spec, mc));
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(mc.samples),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PtmMonteCarloLanes)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Same study under SimOptions::determinism = kRelaxedUlp: batched lanes
// evaluate device models through the numeric/vecmath SIMD kernels instead
// of one libm call per device per lane. Results agree with the bitwise
// engine to the documented ULP bounds (see tests/core_relaxed_equivalence
// for the oracle); this is the headline number for the relaxed mode.
void BM_PtmMonteCarloRelaxed(benchmark::State& state) {
  cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = devices::PtmParams{};
  core::MonteCarloSpec mc;
  mc.samples = 64;
  mc.threads = 1;
  mc.lanes = static_cast<int>(state.range(0));
  sim::SimOptions options;
  options.determinism = sim::Determinism::kRelaxedUlp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ptm_monte_carlo(spec, mc, options));
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(mc.samples),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PtmMonteCarloRelaxed)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Device-model kernel microbenchmarks: the vectorized exponential and the
// fused softplus+sigmoid (the Soft-FET conduction law's inner pair)
// against one libm call per element. items_processed = array elements, so
// the reported items/s compares directly across the four benches.
void BM_VecmathExp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-80.0, 80.0);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = dist(rng);
  for (auto _ : state) {
    numeric::vecmath::exp_v(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VecmathExp)->Arg(1024);

void BM_VecmathExpLibm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-80.0, 80.0);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = dist(rng);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VecmathExpLibm)->Arg(1024);

void BM_VecmathSoftplusSigmoid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-60.0, 60.0);
  std::vector<double> x(n), sp(n), sg(n);
  for (auto& v : x) v = dist(rng);
  for (auto _ : state) {
    numeric::vecmath::softplus_sigmoid_v(x.data(), sp.data(), sg.data(), n);
    benchmark::DoNotOptimize(sp.data());
    benchmark::DoNotOptimize(sg.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VecmathSoftplusSigmoid)->Arg(1024);

void BM_VecmathSoftplusSigmoidLibm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-60.0, 60.0);
  std::vector<double> x(n), sp(n), sg(n);
  for (auto& v : x) v = dist(rng);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      sp[i] = std::log1p(std::exp(-std::fabs(x[i]))) + std::max(x[i], 0.0);
      sg[i] = 1.0 / (1.0 + std::exp(-x[i]));
    }
    benchmark::DoNotOptimize(sp.data());
    benchmark::DoNotOptimize(sg.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VecmathSoftplusSigmoidLibm)->Arg(1024);

// Factor-path breakdown of the SoA batch kernel. The timed loop refills the
// lane-minor buffer and factors all 8 lanes, mirroring the per-Newton-
// iteration scatter + factor the lockstep engine pays; the counter reports
// per-system throughput so this compares directly against one-at-a-time
// BM_DenseLuFactor at the same Arg.
void BM_BatchLuFactor(benchmark::State& state) {
  constexpr std::size_t kLanes = 8;
  std::mt19937 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_system(n, rng).to_dense();
  numeric::BatchDenseLu lu;
  lu.configure(n, kLanes);
  std::vector<std::uint8_t> ok(kLanes, 0);
  for (auto _ : state) {
    double* v = lu.values();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t s = 0; s < kLanes; ++s) {
          v[(r * n + c) * kLanes + s] = a(r, c);
        }
      }
    }
    lu.factor(kLanes, ok.data());
    benchmark::DoNotOptimize(lu.values());
  }
  state.counters["systems/s"] = benchmark::Counter(
      static_cast<double>(kLanes),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BatchLuFactor)->Arg(8)->Arg(16);

// Scalar reference for BM_BatchLuFactor: the same matrix factored once per
// call through DenseLu (copy + factor, the scalar Newton path's cost shape).
void BM_DenseLuFactor(benchmark::State& state) {
  std::mt19937 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_system(n, rng).to_dense();
  numeric::DenseLu lu;
  for (auto _ : state) {
    lu.factor(a);
    benchmark::DoNotOptimize(lu.min_pivot());
  }
  state.counters["systems/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DenseLuFactor)->Arg(8)->Arg(16);

// Multi-RHS substitution throughput on a factored batch (the solve half of
// the lockstep Newton iteration).
void BM_BatchLuSolve(benchmark::State& state) {
  constexpr std::size_t kLanes = 8;
  std::mt19937 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_system(n, rng).to_dense();
  numeric::BatchDenseLu lu;
  lu.configure(n, kLanes);
  double* v = lu.values();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t s = 0; s < kLanes; ++s) {
        v[(r * n + c) * kLanes + s] = a(r, c);
      }
    }
  }
  std::vector<std::uint8_t> ok(kLanes, 0);
  lu.factor(kLanes, ok.data());
  std::vector<double> b(n * kLanes, 1.0);
  std::vector<double> x(n * kLanes, 0.0);
  for (auto _ : state) {
    lu.solve(kLanes, b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["systems/s"] = benchmark::Counter(
      static_cast<double>(kLanes),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BatchLuSolve)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
