// Relaxed-determinism mode (SimOptions::determinism = kRelaxedUlp) vs the
// scalar bitwise oracle: relaxed runs the bitwise engine, so trajectories
// and Monte-Carlo statistics equal the oracle bit for bit for every lane
// width and thread count, and the checkpoint tag guard still refuses
// strict<->relaxed resume in both directions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cells/inverter.hpp"
#include "core/checkpointing.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "sim/analyses.hpp"
#include "sim/batch.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace sc = softfet::core;
namespace sd = softfet::devices;
namespace ss = softfet::sim;
namespace su = softfet::util;

namespace {

softfet::cells::InverterTestbenchSpec soft_base() {
  softfet::cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = sd::PtmParams{};
  return spec;
}

ss::SimOptions relaxed_options() {
  ss::SimOptions options;
  options.determinism = ss::Determinism::kRelaxedUlp;
  return options;
}

void expect_tran_bitwise(const ss::TranResult& got,
                         const ss::TranResult& want) {
  ASSERT_EQ(got.time.size(), want.time.size());
  for (std::size_t i = 0; i < want.time.size(); ++i) {
    ASSERT_EQ(got.time[i], want.time[i]);
  }
  for (const auto& name : want.table.names()) {
    const auto& a = got.table.signal(name);
    const auto& b = want.table.signal(name);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << name << "[" << i << "]";
    }
  }
}

void expect_stats_bitwise(const sc::MonteCarloStats& a,
                          const sc::MonteCarloStats& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.failed_samples, b.failed_samples);
  EXPECT_EQ(a.imax_mean, b.imax_mean);
  EXPECT_EQ(a.imax_std, b.imax_std);
  EXPECT_EQ(a.imax_worst, b.imax_worst);
  EXPECT_EQ(a.delay_mean, b.delay_mean);
  EXPECT_EQ(a.delay_std, b.delay_std);
  EXPECT_EQ(a.delay_worst, b.delay_worst);
  EXPECT_EQ(a.fraction_below_baseline, b.fraction_below_baseline);
}

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

}  // namespace

// The default is — and must stay — the bitwise contract: a freshly
// constructed SimOptions runs the batched engine in kBitwise mode, whose
// results equal the scalar oracle bit for bit (the full memcmp suite in
// core_batch_equivalence_test runs on exactly these defaults).
TEST(RelaxedEquivalence, DefaultModeIsBitwise) {
  ss::SimOptions options;
  EXPECT_EQ(options.determinism, ss::Determinism::kBitwise);
  EXPECT_STREQ(ss::to_string(ss::Determinism::kBitwise), "bitwise");
  EXPECT_STREQ(ss::to_string(ss::Determinism::kRelaxedUlp), "relaxed");

  // Pin the explicit-enum path too, not just the default: a batch run with
  // determinism set to kBitwise by hand is bitwise equal to scalar.
  auto spec = soft_base();
  auto scalar_bench = softfet::cells::make_inverter_testbench(spec);
  const auto scalar =
      ss::run_transient(scalar_bench.circuit, scalar_bench.suggested_tstop);

  auto bench_a = softfet::cells::make_inverter_testbench(spec);
  auto bench_b = softfet::cells::make_inverter_testbench(spec);
  std::vector<ss::BatchLaneSpec> lanes;
  lanes.push_back({&bench_a.circuit, bench_a.suggested_tstop});
  lanes.push_back({&bench_b.circuit, bench_b.suggested_tstop});
  ss::SimOptions explicit_bitwise;
  explicit_bitwise.determinism = ss::Determinism::kBitwise;
  const auto outcomes = ss::run_transient_batch(lanes, explicit_bitwise);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    ASSERT_FALSE(outcome.evicted) << outcome.eviction_reason;
    expect_tran_bitwise(outcome.tran, scalar);
    EXPECT_EQ(outcome.tran.diagnostics.determinism, "bitwise");
  }
}

// Relaxed batched trajectories equal the scalar bitwise engine's bit for
// bit, and the diagnostics echo the requested mode.
TEST(RelaxedEquivalence, RelaxedTranBitwiseEqualsScalar) {
  const double v_imts[] = {0.33, 0.38, 0.44, 0.48};

  auto make_bench = [&](double v_imt) {
    auto spec = soft_base();
    spec.dut.ptm->v_imt = v_imt;
    return softfet::cells::make_inverter_testbench(spec);
  };

  std::vector<ss::TranResult> scalar;
  for (const double v_imt : v_imts) {
    auto bench = make_bench(v_imt);
    scalar.push_back(ss::run_transient(bench.circuit, bench.suggested_tstop));
  }

  std::vector<softfet::cells::InverterTestbench> benches;
  for (const double v_imt : v_imts) benches.push_back(make_bench(v_imt));
  std::vector<ss::BatchLaneSpec> lanes;
  for (auto& bench : benches) {
    lanes.push_back({&bench.circuit, bench.suggested_tstop});
  }
  const auto outcomes = ss::run_transient_batch(lanes, relaxed_options());

  ASSERT_EQ(outcomes.size(), scalar.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    ASSERT_FALSE(outcomes[k].evicted) << outcomes[k].eviction_reason;
    expect_tran_bitwise(outcomes[k].tran, scalar[k]);
    EXPECT_EQ(outcomes[k].tran.diagnostics.determinism, "relaxed");
  }
}

// Relaxed Monte-Carlo statistics equal the scalar bitwise oracle's bit for
// bit across lane widths {1, 4, 8, auto} and thread counts.
TEST(RelaxedEquivalence, McStatsBitwiseAcrossLanesAndThreads) {
  sc::MonteCarloSpec oracle_spec;
  oracle_spec.samples = 23;
  oracle_spec.seed = 42;
  oracle_spec.threads = 1;
  oracle_spec.lanes = 1;
  const auto oracle = sc::ptm_monte_carlo(soft_base(), oracle_spec);
  ASSERT_EQ(oracle.failed_samples, 0);

  for (const int lanes : {1, 4, 8, 0}) {
    for (const int threads : {1, 3}) {
      auto spec = oracle_spec;
      spec.lanes = lanes;
      spec.threads = threads;
      const auto got =
          sc::ptm_monte_carlo(soft_base(), spec, relaxed_options());
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      expect_stats_bitwise(got, oracle);
    }
  }
}

// Lane packing is a pure execution detail in relaxed mode: the same sample
// produces the same bits whether it runs in a 4-lane block, an 8-lane
// block, or a ragged tail — and for any thread count.
TEST(RelaxedEquivalence, RelaxedResultsBitwiseAcrossLanePackings) {
  sc::MonteCarloSpec base_spec;
  base_spec.samples = 23;
  base_spec.seed = 42;
  base_spec.threads = 1;
  base_spec.lanes = 4;
  const auto reference =
      sc::ptm_monte_carlo(soft_base(), base_spec, relaxed_options());

  for (const int lanes : {8, 7, 0}) {
    for (const int threads : {1, 3}) {
      auto spec = base_spec;
      spec.lanes = lanes;
      spec.threads = threads;
      const auto got =
          sc::ptm_monte_carlo(soft_base(), spec, relaxed_options());
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      expect_stats_bitwise(got, reference);
    }
  }
}

// Checkpoint determinism guard: a file written under one mode refuses to
// resume under the other, in both directions, with a diagnosable message.
TEST(RelaxedCheckpoint, CrossModeResumeRefusedBothWays) {
  TempFile bitwise_file("mc_det_bitwise.ckpt");
  TempFile relaxed_file("mc_det_relaxed.ckpt");

  sc::MonteCarloSpec mc;
  mc.samples = 4;
  mc.seed = 7;
  mc.threads = 1;
  mc.checkpoint.flush_every = 1;

  // Write one checkpoint per mode.
  mc.checkpoint.path = bitwise_file.path;
  (void)sc::ptm_monte_carlo(soft_base(), mc);
  mc.checkpoint.path = relaxed_file.path;
  (void)sc::ptm_monte_carlo(soft_base(), mc, relaxed_options());

  // bitwise file + relaxed run -> refused with the mode in the message.
  mc.checkpoint.path = bitwise_file.path;
  try {
    (void)sc::ptm_monte_carlo(soft_base(), mc, relaxed_options());
    FAIL() << "expected determinism-mode refusal";
  } catch (const softfet::Error& e) {
    EXPECT_NE(std::string(e.what()).find("determinism mode 'bitwise'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("relaxed"), std::string::npos)
        << e.what();
  }

  // relaxed file + bitwise run -> refused the other way around.
  mc.checkpoint.path = relaxed_file.path;
  try {
    (void)sc::ptm_monte_carlo(soft_base(), mc);
    FAIL() << "expected determinism-mode refusal";
  } catch (const softfet::Error& e) {
    EXPECT_NE(std::string(e.what()).find("determinism mode 'relaxed'"),
              std::string::npos)
        << e.what();
  }

  // A genuinely different study must still get the generic tag-mismatch
  // refusal, not a bogus determinism diagnosis.
  auto other = mc;
  other.seed = 8;
  other.checkpoint.path = relaxed_file.path;
  try {
    (void)sc::ptm_monte_carlo(soft_base(), other, relaxed_options());
    FAIL() << "expected tag-mismatch refusal";
  } catch (const softfet::Error& e) {
    EXPECT_EQ(std::string(e.what()).find("determinism mode"),
              std::string::npos)
        << e.what();
  }
}

// Same-mode relaxed resume: a killed relaxed batched run resumes to
// statistics bitwise equal to an uninterrupted relaxed run (hexfloat
// payloads make the resume exact).
TEST(RelaxedCheckpoint, SameModeRelaxedResumeReproduces) {
  TempFile file("mc_det_relaxed_resume.ckpt");

  sc::MonteCarloSpec mc;
  mc.samples = 16;
  mc.seed = 7;
  mc.threads = 1;
  mc.lanes = 8;
  mc.checkpoint.path = file.path;
  mc.checkpoint.flush_every = 1;

  // Kill at the second block's first sample: the checkpoint holds block 0.
  {
    su::CancelToken token;
    auto options = relaxed_options();
    options.budget.cancel = &token;
    auto killed = mc;
    killed.per_sample_hook = [&](std::size_t k,
                                 softfet::cells::InverterTestbenchSpec&) {
      if (k == 8) token.request();
    };
    try {
      (void)sc::ptm_monte_carlo(soft_base(), killed, options);
      FAIL() << "expected BudgetExceededError";
    } catch (const softfet::BudgetExceededError& e) {
      EXPECT_EQ(e.stop(), su::BudgetStop::kCancel);
    }
  }

  // Uninterrupted relaxed reference without a checkpoint.
  auto reference_spec = mc;
  reference_spec.checkpoint = sc::CheckpointSpec{};
  const auto reference =
      sc::ptm_monte_carlo(soft_base(), reference_spec, relaxed_options());

  // Resume under relaxed mode: only the unfinished samples simulate.
  std::vector<std::size_t> simulated;
  auto resumed_spec = mc;
  resumed_spec.per_sample_hook =
      [&](std::size_t k, softfet::cells::InverterTestbenchSpec&) {
        simulated.push_back(k);
      };
  const auto resumed =
      sc::ptm_monte_carlo(soft_base(), resumed_spec, relaxed_options());
  std::sort(simulated.begin(), simulated.end());
  EXPECT_EQ(simulated, (std::vector<std::size_t>{8, 9, 10, 11, 12, 13, 14, 15}));
  expect_stats_bitwise(resumed, reference);
}
