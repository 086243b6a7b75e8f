// Batched lockstep engine vs the scalar oracle: per-sample results must be
// bitwise identical for every lane width and thread count, and a faulted
// lane must evict to the scalar path without perturbing its batch mates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cells/inverter.hpp"
#include "core/characterize.hpp"
#include "core/sweeps.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "fault_injection.hpp"
#include "sim/analyses.hpp"
#include "sim/batch.hpp"
#include "sim/device.hpp"

namespace sc = softfet::core;
namespace sd = softfet::devices;
namespace ss = softfet::sim;

namespace {

softfet::cells::InverterTestbenchSpec soft_base() {
  softfet::cells::InverterTestbenchSpec spec;
  spec.input_transition = 30e-12;
  spec.input_rising = false;
  spec.dut.ptm = sd::PtmParams{};
  return spec;
}

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

void expect_tran_bitwise(const ss::TranResult& a, const ss::TranResult& b) {
  expect_bitwise(a.time, b.time, "time axis");
  ASSERT_EQ(a.table.names(), b.table.names());
  for (const auto& name : a.table.names()) {
    expect_bitwise(a.table.signal(name), b.table.signal(name), name.c_str());
  }
  EXPECT_EQ(a.accepted_steps, b.accepted_steps);
  EXPECT_EQ(a.rejected_steps, b.rejected_steps);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.recovered_steps, b.recovered_steps);
  ASSERT_EQ(a.diagnostics.attempts.size(), b.diagnostics.attempts.size());
  for (std::size_t i = 0; i < a.diagnostics.attempts.size(); ++i) {
    SCOPED_TRACE("attempt " + std::to_string(i));
    EXPECT_EQ(a.diagnostics.attempts[i].strategy,
              b.diagnostics.attempts[i].strategy);
    EXPECT_EQ(a.diagnostics.attempts[i].succeeded,
              b.diagnostics.attempts[i].succeeded);
    EXPECT_EQ(a.diagnostics.attempts[i].detail,
              b.diagnostics.attempts[i].detail);
  }
  EXPECT_FALSE(a.truncated);
  EXPECT_FALSE(b.truncated);
}

/// A one-sided VCCS drawing g * v(ctrl) out of `from` once the time reaches
/// t_on. From then on it stamps a Jacobian entry, (from, ctrl), that no
/// earlier load had: a mid-run stamp-pattern change. The eager variant
/// stamps the same entry as +0.0 before t_on, so only values change.
class LateStampDevice final : public ss::Device {
 public:
  LateStampDevice(std::string name, ss::NodeId from, ss::NodeId ctrl,
                  double t_on, bool eager)
      : Device(std::move(name)),
        from_node_(from),
        ctrl_node_(ctrl),
        t_on_(t_on),
        eager_(eager) {}

  void setup(ss::Circuit& circuit) override {
    from_ = circuit.node_unknown(from_node_);
    ctrl_ = circuit.node_unknown(ctrl_node_);
  }

  void load(const std::vector<double>& x, ss::Stamper& stamper,
            const ss::LoadContext& ctx) override {
    if (ctx.time >= t_on_) {
      stamper.add_residual(from_, kG * x[static_cast<std::size_t>(ctrl_)]);
      stamper.add_jacobian(from_, ctrl_, kG);
    } else if (eager_) {
      stamper.add_jacobian(from_, ctrl_, 0.0);
    }
  }

 private:
  static constexpr double kG = 1e-6;
  ss::NodeId from_node_;
  ss::NodeId ctrl_node_;
  double t_on_;
  bool eager_;
  int from_ = ss::kGround;
  int ctrl_ = ss::kGround;
};

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
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

// The acceptance statement: Monte-Carlo statistics are bitwise identical to
// the scalar oracle for every lane width and thread count. 23 samples is
// deliberately coprime to both widths so the ragged tail block (3 lanes at
// K=4, 2 lanes at K=7) is exercised, not just full blocks.
TEST(BatchEquivalence, McStatsBitwiseAcrossLanesAndThreads) {
  sc::MonteCarloSpec oracle_spec;
  oracle_spec.samples = 23;
  oracle_spec.seed = 42;
  oracle_spec.threads = 1;
  oracle_spec.lanes = 1;
  const auto oracle = sc::ptm_monte_carlo(soft_base(), oracle_spec);
  ASSERT_EQ(oracle.failed_samples, 0);

  for (const int lanes : {4, 7, 0}) {
    for (const int threads : {1, 3}) {
      auto spec = oracle_spec;
      spec.lanes = lanes;
      spec.threads = threads;
      const auto got = sc::ptm_monte_carlo(soft_base(), spec);
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      expect_stats_bitwise(got, oracle);
    }
  }
}

// Engine-level contract: every completed lane's TranResult — time axis,
// every table column, every counter, every recovery attempt — equals scalar
// run_transient on an identical circuit bit for bit. The last lane's
// Jacobian goes NaN for exactly one solve: a single dt_shrink cures it, so
// it stays in the batch and must reproduce the scalar shrink record too.
TEST(BatchEquivalence, RunTransientBatchMatchesScalarBitwise) {
  const double v_imts[] = {0.33, 0.38, 0.44, 0.38};
  constexpr std::size_t kShrinkLane = 3;

  auto make_bench = [&](std::size_t k) {
    auto spec = soft_base();
    spec.dut.ptm->v_imt = v_imts[k];
    auto bench = softfet::cells::make_inverter_testbench(spec);
    if (k == kShrinkLane) {
      bench.circuit.add<softfet::testing::FaultDevice>(
          "FNAN", bench.circuit.find_node("out"),
          softfet::testing::FaultMode::kNanJacobian, 50e-12, 1e-9,
          /*fault_budget=*/1);
    }
    return bench;
  };

  // Scalar oracle runs on its own circuit instances.
  std::vector<ss::TranResult> scalar;
  for (std::size_t k = 0; k < std::size(v_imts); ++k) {
    auto bench = make_bench(k);
    scalar.push_back(
        ss::run_transient(bench.circuit, bench.suggested_tstop));
  }
  ASSERT_FALSE(scalar[kShrinkLane].diagnostics.attempts.empty());
  EXPECT_EQ(scalar[kShrinkLane].diagnostics.attempts[0].strategy,
            "dt_shrink");

  std::vector<softfet::cells::InverterTestbench> benches;
  for (std::size_t k = 0; k < std::size(v_imts); ++k) {
    benches.push_back(make_bench(k));
  }
  std::vector<ss::BatchLaneSpec> lanes;
  for (auto& bench : benches) {
    lanes.push_back({&bench.circuit, bench.suggested_tstop});
  }
  const auto outcomes = ss::run_transient_batch(lanes, {});

  ASSERT_EQ(outcomes.size(), scalar.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    ASSERT_FALSE(outcomes[k].evicted) << outcomes[k].eviction_reason;
    expect_tran_bitwise(outcomes[k].tran, scalar[k]);
  }
}

// Lanes climb the recovery ladder inside the batch. With escalation on the
// first failure, a NaN-residual budget of 1, 2 or 3 solves makes the
// predictor reset, the gmin ramp or the source ramp the curing rung (the
// arithmetic of fault_injection.hpp). No lane leaves the batch, and each
// one equals its scalar run bit for bit, attempt log included.
TEST(BatchEquivalence, LadderRecoveredLanesStayInBatch) {
  const double v_imts[] = {0.33, 0.38, 0.44, 0.48};
  const int fault_budgets[] = {0, 1, 2, 3};
  const char* const cured_by[] = {nullptr, "predictor_reset", "gmin_ramp",
                                  "source_ramp"};
  ss::SimOptions options;
  options.recovery_escalate_after = 1;

  auto make_bench = [&](std::size_t k) {
    auto spec = soft_base();
    spec.dut.ptm->v_imt = v_imts[k];
    auto bench = softfet::cells::make_inverter_testbench(spec);
    if (fault_budgets[k] > 0) {
      bench.circuit.add<softfet::testing::FaultDevice>(
          "FNAN", bench.circuit.find_node("out"),
          softfet::testing::FaultMode::kNanResidual, 50e-12, 1e-9,
          fault_budgets[k]);
    }
    return bench;
  };

  std::vector<ss::TranResult> scalar;
  for (std::size_t k = 0; k < std::size(v_imts); ++k) {
    auto bench = make_bench(k);
    scalar.push_back(
        ss::run_transient(bench.circuit, bench.suggested_tstop, options));
    if (cured_by[k] == nullptr) continue;
    SCOPED_TRACE(cured_by[k]);
    EXPECT_EQ(scalar[k].recovered_steps, 1u);
    const auto& attempts = scalar[k].diagnostics.attempts;
    ASSERT_FALSE(attempts.empty());
    EXPECT_EQ(attempts.back().strategy, cured_by[k]);
    EXPECT_TRUE(attempts.back().succeeded);
  }

  std::vector<softfet::cells::InverterTestbench> benches;
  for (std::size_t k = 0; k < std::size(v_imts); ++k) {
    benches.push_back(make_bench(k));
  }
  std::vector<ss::BatchLaneSpec> lanes;
  for (auto& bench : benches) {
    lanes.push_back({&bench.circuit, bench.suggested_tstop});
  }
  const auto outcomes = ss::run_transient_batch(lanes, options);

  ASSERT_EQ(outcomes.size(), scalar.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    ASSERT_FALSE(outcomes[k].evicted) << outcomes[k].eviction_reason;
    expect_tran_bitwise(outcomes[k].tran, scalar[k]);
  }
}

// A lane whose Jacobian goes NaN (and stays NaN, so the scalar engine's
// recovery ladder would engage) must be evicted — and the other lanes must
// finish bitwise identical to scalar runs, proving the dead lane never
// contaminates the shared SoA factor/solve.
TEST(BatchEquivalence, NanJacobianLaneEvictsOthersUnchanged) {
  const double v_imts[] = {0.33, 0.38, 0.44, 0.48};
  constexpr std::size_t kFaultLane = 1;

  auto make_bench = [&](double v_imt) {
    auto spec = soft_base();
    spec.dut.ptm->v_imt = v_imt;
    return softfet::cells::make_inverter_testbench(spec);
  };

  std::vector<ss::TranResult> scalar;
  for (std::size_t k = 0; k < 4; ++k) {
    if (k == kFaultLane) continue;
    auto bench = make_bench(v_imts[k]);
    scalar.push_back(
        ss::run_transient(bench.circuit, bench.suggested_tstop));
  }

  std::vector<softfet::cells::InverterTestbench> benches;
  for (const double v_imt : v_imts) benches.push_back(make_bench(v_imt));
  // Unlimited fault budget: every solve in the window is sabotaged, so no
  // amount of dt shrinking cures it and the lane must leave the batch.
  benches[kFaultLane].circuit.add<softfet::testing::FaultDevice>(
      "FNAN", benches[kFaultLane].circuit.find_node("out"),
      softfet::testing::FaultMode::kNanJacobian, 50e-12, 1e-9, -1);

  std::vector<ss::BatchLaneSpec> lanes;
  for (auto& bench : benches) {
    lanes.push_back({&bench.circuit, bench.suggested_tstop});
  }
  const auto outcomes = ss::run_transient_batch(lanes, {});
  ASSERT_EQ(outcomes.size(), 4u);

  EXPECT_TRUE(outcomes[kFaultLane].evicted);
  EXPECT_FALSE(outcomes[kFaultLane].eviction_reason.empty());

  std::size_t scalar_idx = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    if (k == kFaultLane) continue;
    SCOPED_TRACE("lane " + std::to_string(k));
    ASSERT_FALSE(outcomes[k].evicted) << outcomes[k].eviction_reason;
    expect_tran_bitwise(outcomes[k].tran, scalar[scalar_idx++]);
  }
}

// A lane whose device starts stamping a new Jacobian entry mid-run leaves
// the batch with the pattern-change reason, and only that lane does. The
// scalar engine grows its pattern instead: run on its own, that sample
// equals the eager variant (entry present from the start as +0.0) bit for
// bit, so the sums after the growth are exact.
TEST(BatchEquivalence, StampPatternChangeEvictsOnlyThatLane) {
  const double v_imts[] = {0.33, 0.38, 0.44, 0.48};
  constexpr std::size_t kLateLane = 2;
  constexpr double kTOn = 50e-12;

  auto make_bench = [&](std::size_t k, bool late, bool eager) {
    auto spec = soft_base();
    spec.dut.ptm->v_imt = v_imts[k];
    auto bench = softfet::cells::make_inverter_testbench(spec);
    if (late) {
      bench.circuit.add<LateStampDevice>(
          "GLATE", bench.circuit.find_node("load_out"),
          bench.circuit.find_node("in"), kTOn, eager);
    }
    return bench;
  };

  std::vector<ss::TranResult> scalar;
  for (std::size_t k = 0; k < std::size(v_imts); ++k) {
    auto bench = make_bench(k, k == kLateLane, false);
    scalar.push_back(ss::run_transient(bench.circuit, bench.suggested_tstop));
  }
  auto eager = make_bench(kLateLane, true, true);
  expect_tran_bitwise(scalar[kLateLane],
                      ss::run_transient(eager.circuit, eager.suggested_tstop));

  std::vector<softfet::cells::InverterTestbench> benches;
  for (std::size_t k = 0; k < std::size(v_imts); ++k) {
    benches.push_back(make_bench(k, k == kLateLane, false));
  }
  std::vector<ss::BatchLaneSpec> lanes;
  for (auto& bench : benches) {
    lanes.push_back({&bench.circuit, bench.suggested_tstop});
  }
  const auto outcomes = ss::run_transient_batch(lanes, {});
  ASSERT_EQ(outcomes.size(), std::size(v_imts));

  EXPECT_TRUE(outcomes[kLateLane].evicted);
  EXPECT_EQ(outcomes[kLateLane].eviction_reason,
            "stamp pattern changed mid-run");
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (k == kLateLane) continue;
    SCOPED_TRACE("lane " + std::to_string(k));
    ASSERT_FALSE(outcomes[k].evicted) << outcomes[k].eviction_reason;
    expect_tran_bitwise(outcomes[k].tran, scalar[k]);
  }
}

// Same fault through the Monte-Carlo driver: the evicted sample reruns on
// the scalar path, fails there exactly as a scalar-only study would, and
// the surviving samples' statistics stay bitwise equal to the oracle's.
TEST(BatchEquivalence, McFaultedSampleFailsIdenticallyToScalar) {
  constexpr std::size_t kFaultSample = 2;
  sc::MonteCarloSpec mc;
  mc.samples = 8;
  mc.seed = 42;
  mc.threads = 1;
  mc.per_sample_hook = [](std::size_t k,
                          softfet::cells::InverterTestbenchSpec& spec) {
    if (k != kFaultSample) return;
    spec.instrument = [](ss::Circuit& circuit) {
      circuit.add<softfet::testing::FaultDevice>(
          "FNAN", circuit.find_node("out"),
          softfet::testing::FaultMode::kNanJacobian, 50e-12, 1e-9, -1);
    };
  };

  auto scalar_spec = mc;
  scalar_spec.lanes = 1;
  const auto scalar = sc::ptm_monte_carlo(soft_base(), scalar_spec);

  auto batched_spec = mc;
  batched_spec.lanes = 8;
  const auto batched = sc::ptm_monte_carlo(soft_base(), batched_spec);

  expect_stats_bitwise(batched, scalar);
  ASSERT_EQ(batched.failed_samples, 1);
  ASSERT_EQ(batched.failures.size(), 1u);
  EXPECT_EQ(batched.failures[0].index, kFaultSample);
  EXPECT_EQ(scalar.failures[0].index, kFaultSample);
  EXPECT_EQ(batched.failures[0].message, scalar.failures[0].message);
}

// The design-space sweep shares the Monte-Carlo driver's lane blocks: every
// metric, the time axis and the final checkpoint file are bitwise identical
// for the scalar oracle, 3-lane blocks and the auto width. The grid has 8
// feasible points, so the tail block at K=3 is ragged.
TEST(BatchEquivalence, SweepBitwiseAcrossLaneWidths) {
  const std::vector<double> v_imts{0.3, 0.4, 0.5};
  const std::vector<double> v_mits{0.1, 0.2, 0.35};
  constexpr int kWidths[] = {1, 3, 0};  // scalar oracle first
  std::vector<std::vector<sc::DesignSpacePoint>> sweeps;
  std::vector<std::string> files;
  for (const int lanes : kWidths) {
    TempFile file("sweep_lanes_" + std::to_string(lanes) + ".ckpt");
    sc::CheckpointSpec checkpoint;
    checkpoint.path = file.path;
    sweeps.push_back(sc::sweep_vimt_vmit(soft_base(), v_imts, v_mits, {},
                                         checkpoint, lanes));
    files.push_back(read_file(file.path));
  }
  const auto scalars = [](const sc::TransitionMetrics& m) {
    return std::vector<double>{m.i_max,   m.max_didt, m.delay,
                               m.output_transition, m.q_short,
                               m.q_output, m.energy};
  };
  const auto& oracle = sweeps.front();
  ASSERT_EQ(oracle.size(), 8u);
  ASSERT_FALSE(files.front().empty());
  for (std::size_t w = 1; w < sweeps.size(); ++w) {
    SCOPED_TRACE("lanes=" + std::to_string(kWidths[w]));
    ASSERT_EQ(sweeps[w].size(), oracle.size());
    EXPECT_EQ(files[w], files.front());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      const auto& a = sweeps[w][i];
      const auto& b = oracle[i];
      ASSERT_FALSE(a.failure.has_value());
      ASSERT_FALSE(b.failure.has_value());
      expect_bitwise(scalars(a.metrics), scalars(b.metrics), "metrics");
      EXPECT_EQ(a.metrics.imt_count, b.metrics.imt_count);
      EXPECT_EQ(a.metrics.mit_count, b.metrics.mit_count);
      EXPECT_FALSE(a.metrics.tran.time.empty());
      expect_bitwise(a.metrics.tran.time, b.metrics.tran.time, "time axis");
    }
  }
}
