// Checkpoint/resume for the batch drivers: the payload codec is bitwise
// exact, a cancelled Monte-Carlo run resumes to statistics identical to an
// uninterrupted run, a finished sweep reloads without re-simulating, and a
// partial sweep file reruns only its open points.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/checkpointing.hpp"
#include "core/sweeps.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace sc = softfet::core;
namespace sd = softfet::devices;
namespace su = softfet::util;

namespace {

softfet::cells::InverterTestbenchSpec soft_base() {
  softfet::cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = sd::PtmParams{};
  return spec;
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

[[nodiscard]] bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

}  // namespace

TEST(CheckpointCodec, DoubleRoundTripIsBitwise) {
  const double cases[] = {
      0.0,
      -0.0,
      1.0 / 3.0,
      -1.23456789e-300,
      5e-324,  // smallest denormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (const double value : cases) {
    const double decoded = sc::decode_double(sc::encode_double(value));
    EXPECT_TRUE(same_bits(decoded, value)) << sc::encode_double(value);
  }
  EXPECT_TRUE(std::isnan(
      sc::decode_double(sc::encode_double(std::nan("")))));
}

TEST(CheckpointCodec, DoubleRejectsMalformedTokens) {
  EXPECT_THROW((void)sc::decode_double("abc"), softfet::Error);
  EXPECT_THROW((void)sc::decode_double(""), softfet::Error);
  EXPECT_THROW((void)sc::decode_double("0x1p+2junk"), softfet::Error);
}

TEST(CheckpointCodec, MetricsRoundTripDropsOnlyWaveforms) {
  sc::TransitionMetrics m;
  m.i_max = 123.456e-6;
  m.max_didt = -7.7e6;
  m.delay = 13e-12;
  m.output_transition = 1.0 / 3.0 * 1e-12;
  m.q_short = 4.5e-18;
  m.q_output = 6.7e-15;
  m.energy = 8.9e-15;
  m.imt_count = 3;
  m.mit_count = 2;
  m.tran.time = {0.0, 1e-12};  // must NOT survive the round trip

  const sc::TransitionMetrics r = sc::decode_metrics(sc::encode_metrics(m));
  EXPECT_TRUE(same_bits(r.i_max, m.i_max));
  EXPECT_TRUE(same_bits(r.max_didt, m.max_didt));
  EXPECT_TRUE(same_bits(r.delay, m.delay));
  EXPECT_TRUE(same_bits(r.output_transition, m.output_transition));
  EXPECT_TRUE(same_bits(r.q_short, m.q_short));
  EXPECT_TRUE(same_bits(r.q_output, m.q_output));
  EXPECT_TRUE(same_bits(r.energy, m.energy));
  EXPECT_EQ(r.imt_count, 3);
  EXPECT_EQ(r.mit_count, 2);
  EXPECT_TRUE(r.tran.time.empty());
}

TEST(CheckpointCodec, FailureRoundTrip) {
  sc::FailureRecord failure;
  failure.index = 99;  // implied by the slot, not the payload
  failure.context = "sample 17 (sigma 0.05)";
  failure.message = "line 1:\n\ttwo words % escaped";
  failure.retried = true;
  failure.budget_stop = su::BudgetStop::kWallClock;

  const sc::FailureRecord r =
      sc::decode_failure(17, sc::encode_failure(failure));
  EXPECT_EQ(r.index, 17u);
  EXPECT_EQ(r.context, failure.context);
  EXPECT_EQ(r.message, failure.message);
  EXPECT_TRUE(r.retried);
  EXPECT_EQ(r.budget_stop, su::BudgetStop::kWallClock);
}

TEST(CheckpointCodec, FailureRejectsMalformedTails) {
  EXPECT_THROW((void)sc::decode_failure(0, "1"), softfet::Error);
  EXPECT_THROW((void)sc::decode_failure(0, "1 99 ctx msg"), softfet::Error);
}

TEST(MonteCarloCheckpoint, CancelledRunResumesBitwise) {
  // The acceptance scenario: kill a run mid-flight (cooperative cancel at
  // sample 4 of 8), then resume against the checkpoint. The resumed
  // statistics must equal an uninterrupted run bit for bit, and the resume
  // must only simulate the samples the first run never finished.
  TempFile file("mc_resume.ckpt");
  sc::MonteCarloSpec mc;
  mc.samples = 8;
  mc.seed = 42;
  mc.threads = 1;  // deterministic kill point
  mc.checkpoint.path = file.path;
  mc.checkpoint.flush_every = 1;

  su::CancelToken token;
  softfet::sim::SimOptions options;
  options.budget.cancel = &token;

  auto killed = mc;
  // The kill point is only deterministic with per-sample sequencing: the
  // batched engine draws a whole block (hooks included) before simulating,
  // so a hook-injected cancel would fire before samples 0-3 complete.
  // Pinning the killed run to the scalar oracle keeps the cut exact; the
  // resume below stays on the default batched path, which doubles as a
  // scalar-written-checkpoint -> batched-resume interop check.
  killed.lanes = 1;
  killed.per_sample_hook = [&](std::size_t k,
                               softfet::cells::InverterTestbenchSpec&) {
    if (k == 4) token.request();
  };
  try {
    (void)sc::ptm_monte_carlo(soft_base(), killed, options);
    FAIL() << "expected BudgetExceededError";
  } catch (const softfet::BudgetExceededError& e) {
    EXPECT_EQ(e.stop(), su::BudgetStop::kCancel);
  }

  // Resume: only the unfinished samples run again. The cancel-poisoned
  // sample 4 must NOT have been checkpointed as a failure.
  auto resumed_spec = mc;
  std::vector<std::size_t> simulated;
  resumed_spec.per_sample_hook =
      [&](std::size_t k, softfet::cells::InverterTestbenchSpec&) {
        simulated.push_back(k);
      };
  const auto resumed = sc::ptm_monte_carlo(soft_base(), resumed_spec);
  EXPECT_EQ(simulated, (std::vector<std::size_t>{4, 5, 6, 7}));

  // Reference: the same study, never interrupted, no checkpoint.
  auto reference_spec = mc;
  reference_spec.checkpoint = sc::CheckpointSpec{};
  const auto reference = sc::ptm_monte_carlo(soft_base(), reference_spec);

  EXPECT_EQ(resumed.samples, reference.samples);
  EXPECT_EQ(resumed.failed_samples, reference.failed_samples);
  EXPECT_EQ(resumed.imax_mean, reference.imax_mean);
  EXPECT_EQ(resumed.imax_std, reference.imax_std);
  EXPECT_EQ(resumed.imax_worst, reference.imax_worst);
  EXPECT_EQ(resumed.delay_mean, reference.delay_mean);
  EXPECT_EQ(resumed.delay_std, reference.delay_std);
  EXPECT_EQ(resumed.delay_worst, reference.delay_worst);
  EXPECT_EQ(resumed.fraction_below_baseline,
            reference.fraction_below_baseline);
}

TEST(MonteCarloCheckpoint, RefusesDifferentStudy) {
  TempFile file("mc_tag.ckpt");
  sc::MonteCarloSpec mc;
  mc.samples = 2;
  mc.seed = 1;
  mc.threads = 1;
  mc.checkpoint.path = file.path;
  (void)sc::ptm_monte_carlo(soft_base(), mc);

  mc.seed = 2;  // different study, same file
  EXPECT_THROW((void)sc::ptm_monte_carlo(soft_base(), mc), softfet::Error);
}

TEST(SweepCheckpoint, FinishedSweepReloadsWithoutSimulating) {
  TempFile file("sweep.ckpt");
  const auto spec = soft_base();
  const std::vector<double> v_imts{0.35, 0.45};
  const std::vector<double> v_mits{0.2, 0.3};
  sc::CheckpointSpec checkpoint;
  checkpoint.path = file.path;
  checkpoint.flush_every = 1;

  const auto first =
      sc::sweep_vimt_vmit(spec, v_imts, v_mits, {}, checkpoint);
  ASSERT_EQ(first.size(), 4u);
  for (const auto& p : first) {
    ASSERT_FALSE(p.failure.has_value()) << p.v_imt << "/" << p.v_mit;
    EXPECT_FALSE(p.metrics.tran.time.empty());
  }

  // Second run against the same file: every point decodes from the
  // checkpoint (empty waveforms prove it), scalar metrics bitwise equal.
  const auto second =
      sc::sweep_vimt_vmit(spec, v_imts, v_mits, {}, checkpoint);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].v_imt, first[i].v_imt);
    EXPECT_EQ(second[i].v_mit, first[i].v_mit);
    EXPECT_FALSE(second[i].failure.has_value());
    EXPECT_TRUE(second[i].metrics.tran.time.empty());
    EXPECT_EQ(second[i].metrics.i_max, first[i].metrics.i_max);
    EXPECT_EQ(second[i].metrics.max_didt, first[i].metrics.max_didt);
    EXPECT_EQ(second[i].metrics.delay, first[i].metrics.delay);
    EXPECT_EQ(second[i].metrics.imt_count, first[i].metrics.imt_count);
  }
}

TEST(SweepCheckpoint, PartialFileResumesOnlyOpenPoints) {
  TempFile file("sweep_partial.ckpt");
  const auto spec = soft_base();
  const std::vector<double> v_imts{0.35, 0.45};
  const std::vector<double> v_mits{0.2, 0.3};
  sc::CheckpointSpec checkpoint;
  checkpoint.path = file.path;
  checkpoint.flush_every = 1;

  const auto first =
      sc::sweep_vimt_vmit(spec, v_imts, v_mits, {}, checkpoint);
  ASSERT_EQ(first.size(), 4u);

  // Drop point 2's slot line, as if the run had died before recording it.
  constexpr std::size_t kDropped = 2;
  std::string kept;
  int dropped_lines = 0;
  {
    std::ifstream in(file.path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("slot " + std::to_string(kDropped) + ' ', 0) == 0) {
        ++dropped_lines;
        continue;
      }
      kept += line + '\n';
    }
  }
  ASSERT_EQ(dropped_lines, 1);
  std::ofstream(file.path, std::ios::trunc) << kept;

  const auto second =
      sc::sweep_vimt_vmit(spec, v_imts, v_mits, {}, checkpoint);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const auto& a = second[i].metrics;
    const auto& b = first[i].metrics;
    EXPECT_FALSE(second[i].failure.has_value());
    // Only the reopened point was simulated again.
    EXPECT_EQ(a.tran.time.empty(), i != kDropped);
    EXPECT_TRUE(same_bits(a.i_max, b.i_max));
    EXPECT_TRUE(same_bits(a.max_didt, b.max_didt));
    EXPECT_TRUE(same_bits(a.delay, b.delay));
    EXPECT_TRUE(same_bits(a.output_transition, b.output_transition));
    EXPECT_TRUE(same_bits(a.q_short, b.q_short));
    EXPECT_TRUE(same_bits(a.q_output, b.q_output));
    EXPECT_TRUE(same_bits(a.energy, b.energy));
    EXPECT_EQ(a.imt_count, b.imt_count);
    EXPECT_EQ(a.mit_count, b.mit_count);
  }
}
