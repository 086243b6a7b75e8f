// Workload mc_inverter: the Soft-FET inverter PTM Monte-Carlo study run
// three ways on one seed — scalar oracle, batched bitwise, batched relaxed.
#include <cmath>
#include <cstring>
#include <map>
#include <optional>

#include "cells/inverter.hpp"
#include "common.hpp"
#include "core/characterize.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "numeric/batch_lu.hpp"
#include "numeric/dense_lu.hpp"
#include "sim/analyses.hpp"
#include "sim/batch.hpp"
#include "sim/mna_system.hpp"
#include "sim/stamper.hpp"

namespace perfbench {
namespace {

using namespace softfet;

enum Mode { kScalar, kBatched, kRelaxed, kModes };
constexpr const char* kModeName[kModes] = {"scalar", "batched", "relaxed"};
constexpr double kRelaxedRtol = 2e-3;  // EXPERIMENTS.md relaxed-stats bound
constexpr std::size_t kBatchLanes = 8;
/// Samples per timing window: a multiple of both auto lane widths (8
/// bitwise, 16 relaxed), so on the batched paths every window boundary is
/// a block start.
constexpr std::size_t kWindow = 16;

cells::InverterTestbenchSpec soft_base() {
  cells::InverterTestbenchSpec spec;
  spec.dut.ptm = devices::PtmParams{};
  return spec;
}

sim::SimOptions mode_options(Mode mode) {
  sim::SimOptions options;
  if (mode == kRelaxed) options.determinism = sim::Determinism::kRelaxedUlp;
  return options;
}

core::MonteCarloSpec mode_spec(Mode mode, int samples, unsigned seed) {
  core::MonteCarloSpec mc;
  mc.samples = samples;
  mc.seed = seed;
  mc.threads = 1;
  mc.lanes = mode == kScalar ? 1 : 0;
  return mc;
}

bool stats_bitwise_equal(const core::MonteCarloStats& a,
                         const core::MonteCarloStats& b) {
  const double da[] = {a.imax_mean,  a.imax_std,  a.imax_worst,
                       a.delay_mean, a.delay_std, a.delay_worst,
                       a.fraction_below_baseline};
  const double db[] = {b.imax_mean,  b.imax_std,  b.imax_worst,
                       b.delay_mean, b.delay_std, b.delay_worst,
                       b.fraction_below_baseline};
  return a.samples == b.samples && a.failed_samples == b.failed_samples &&
         std::memcmp(da, db, sizeof da) == 0;
}

/// The relaxed-mode bound of EXPERIMENTS.md: identical survivor and failure
/// counts, statistics within 2e-3 relative, the below-baseline fraction
/// within one survivor.
bool stats_close(const core::MonteCarloStats& got,
                 const core::MonteCarloStats& want, std::string& why) {
  if (got.samples != want.samples || got.failed_samples != want.failed_samples) {
    why = "survivor/failure counts differ";
    return false;
  }
  const auto close = [&](double a, double b, const char* what) {
    const double scale = std::max(std::fabs(a), std::fabs(b));
    if (std::fabs(a - b) <= kRelaxedRtol * scale) return true;
    why = std::string(what) + " " + hexfloat(a) + " vs " + hexfloat(b);
    return false;
  };
  const int survivors = want.samples - want.failed_samples;
  const bool fraction_ok =
      std::fabs(got.fraction_below_baseline - want.fraction_below_baseline) <=
      (survivors > 0 ? 1.0 / survivors + 1e-12 : 1e-12);
  if (!fraction_ok) why = "fraction_below_baseline";
  return close(got.imax_mean, want.imax_mean, "imax_mean") &&
         close(got.imax_std, want.imax_std, "imax_std") &&
         close(got.imax_worst, want.imax_worst, "imax_worst") &&
         close(got.delay_mean, want.delay_mean, "delay_mean") &&
         close(got.delay_std, want.delay_std, "delay_std") &&
         close(got.delay_worst, want.delay_worst, "delay_worst") && fraction_ok;
}

/// Spec indices whose draws the traced run captures and replays: a seeded
/// choice of whole lane blocks, so the batch replay sees real neighbours.
std::vector<std::size_t> replay_subset(std::uint64_t seed, int samples,
                                       std::size_t count) {
  const std::size_t blocks =
      static_cast<std::size_t>(samples) / kBatchLanes;
  std::vector<std::size_t> out;
  std::uint64_t state = derive_seed(seed, 2);
  std::vector<std::size_t> chosen;
  while (chosen.size() * kBatchLanes < count && chosen.size() < blocks) {
    state = splitmix64(state);
    const std::size_t block = state % blocks;
    if (std::find(chosen.begin(), chosen.end(), block) == chosen.end())
      chosen.push_back(block);
  }
  std::sort(chosen.begin(), chosen.end());
  for (const std::size_t block : chosen) {
    for (std::size_t k = 0; k < kBatchLanes; ++k)
      out.push_back(block * kBatchLanes + k);
  }
  return out;
}

/// Repeats `body` until at least `min_ms` has passed (and `min_reps` calls),
/// returning the per-call mean [ms]. For layer calls far below clock
/// resolution.
template <typename F>
double per_call_ms(F&& body, double min_ms = 2.0, int min_reps = 5) {
  int reps = 0;
  const auto t0 = Clock::now();
  do {
    body();
    ++reps;
  } while (reps < min_reps || ms_since(t0) < min_ms);
  return ms_since(t0) / reps;
}

struct Replay {
  std::vector<double> stamp_map_ms, stamp_tape_ms, dense_lu_ms, batch_lu_ms,
      batch_ms_per_lane, relaxed_ms_per_lane;
  std::size_t accepted = 0, rejected = 0, newton = 0, recovered = 0,
              events = 0, evictions = 0, lanes_started = 0, lanes_done = 0;
};

/// One-spec layer replay: testbench, DC op, scalar transient, the whole
/// characterization (for its self time), and the stamp / LU kernels on the
/// operating-point Jacobian.
void replay_scalar(const cells::InverterTestbenchSpec& spec, Tracer& tracer,
                   Replay& out) {
  std::optional<cells::InverterTestbench> tb;
  {
    Tracer::Span span(tracer, "cells.testbench");
    tb.emplace(cells::make_inverter_testbench(spec));
    tb->circuit.prepare();
  }
  sim::OpResult op;
  {
    Tracer::Span span(tracer, "sim.op");
    op = sim::dc_operating_point(tb->circuit);
  }
  {
    Tracer::Span span(tracer, "sim.tran");
    const sim::TranResult tran =
        sim::run_transient(tb->circuit, tb->suggested_tstop);
    out.accepted += tran.accepted_steps;
    out.rejected += tran.rejected_steps;
    out.newton += tran.newton_iterations;
    out.recovered += tran.recovered_steps;
    out.events += tran.event_count;
  }
  {
    // characterize_inverter's children are the testbench build and the
    // transient timed above on the same spec; its self time is the rest
    // (stop-time retries and the waveform measurements).
    Tracer::Span span(tracer, "core.characterize");
    (void)core::characterize_inverter(spec);
  }

  // Kernels on the operating-point Jacobian of a fresh, prepared testbench.
  cells::InverterTestbench kb = cells::make_inverter_testbench(spec);
  kb.circuit.prepare();
  const sim::SimOptions options;
  sim::LoadContext ctx;
  sim::MnaSystem system(kb.circuit, options, ctx);
  const std::size_t n = system.size();
  numeric::SparseMatrix jac(n);
  std::vector<double> residual(n, 0.0);
  out.stamp_map_ms.push_back(per_call_ms([&] {
    jac.set_zero_keep_structure();
    std::fill(residual.begin(), residual.end(), 0.0);
    system.load(op.x, jac, residual);
  }));
  sim::FlatJacobian flat;
  flat.reset(n);
  const auto tape_load = [&] {
    flat.begin_load();
    std::fill(residual.begin(), residual.end(), 0.0);
    sim::Stamper stamper(flat, residual);
    for (const auto& device : kb.circuit.devices())
      device->load(op.x, stamper, ctx);
    (void)flat.end_load();
  };
  tape_load();  // records the tape; the timed loads replay it
  out.stamp_tape_ms.push_back(per_call_ms(tape_load));

  numeric::DenseMatrix dense;
  jac.to_dense_into(dense);
  std::vector<double> rhs(n, 1.0);
  out.dense_lu_ms.push_back(per_call_ms([&] {
    numeric::DenseLu lu;
    lu.factor(dense);
    (void)lu.solve(rhs);
  }));

  numeric::BatchDenseLu batch;
  batch.configure(n, kBatchLanes);
  std::vector<std::uint8_t> ok(kBatchLanes, 0);
  std::vector<double> b(n * kBatchLanes, 1.0);
  std::vector<double> x(n * kBatchLanes, 0.0);
  out.batch_lu_ms.push_back(per_call_ms([&] {
    double* values = batch.values();
    for (std::size_t s = 0; s < kBatchLanes; ++s) {
      batch.clear_lane(s);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
          values[(r * n + c) * kBatchLanes + s] = dense(r, c);
    }
    batch.factor(kBatchLanes, ok.data());
    batch.solve(kBatchLanes, b.data(), x.data());
  }));
}

/// One lockstep batch of captured specs through run_transient_batch.
void replay_batch(const std::vector<cells::InverterTestbenchSpec>& specs,
                  Mode mode, Tracer& tracer, Replay& out) {
  std::vector<cells::InverterTestbench> tbs;
  tbs.reserve(specs.size());
  std::vector<sim::BatchLaneSpec> lanes;
  for (const auto& spec : specs) {
    tbs.push_back(cells::make_inverter_testbench(spec));
  }
  for (auto& tb : tbs) lanes.push_back({&tb.circuit, tb.suggested_tstop});
  const char* name = mode == kRelaxed ? "sim.batch_relaxed" : "sim.batch";
  std::vector<sim::BatchLaneOutcome> outcomes;
  {
    Tracer::Span span(tracer, name);
    outcomes = sim::run_transient_batch(lanes, mode_options(mode));
  }
  const double per_lane =
      tracer.durations_ms(name).back() / static_cast<double>(lanes.size());
  (mode == kRelaxed ? out.relaxed_ms_per_lane : out.batch_ms_per_lane)
      .push_back(per_lane);
  if (mode == kBatched) {
    for (const auto& o : outcomes) {
      ++out.lanes_started;
      if (o.evicted) {
        ++out.evictions;
      } else {
        ++out.lanes_done;
      }
    }
  }
}

}  // namespace

Report run_mc_inverter(const RunConfig& config) {
  Report report;
  const int samples = config.smoke ? 16 : 1000;
  const auto seed = static_cast<unsigned>(derive_seed(config.seed, 1));
  const cells::InverterTestbenchSpec base = soft_base();

  // Set-up: elaborate and prepare the testbench, then warm every engine
  // with a short study. It is repeated for a median, before the timed
  // rounds and again after each, so the median samples the whole run, not
  // one moment of the host. The warm-up draws are the same for every seed,
  // so set-up time does not vary with the seed.
  std::vector<double> setup_ms;
  const auto set_up = [&] {
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      cells::InverterTestbench tb = cells::make_inverter_testbench(base);
      tb.circuit.prepare();
      for (int m = 0; m < kModes; ++m) {
        (void)core::ptm_monte_carlo(base, mode_spec(Mode(m), 16, 1),
                                    mode_options(Mode(m)));
      }
      setup_ms.push_back(ms_since(t0));
    }
  };
  set_up();

  // Timed rounds: each runs the same study in all three modes. Under
  // --trace 1 the tracer records only in every other round: those rounds
  // carry a span per study and capture the replay subset through
  // per_sample_hook, and their extra time is the tracing overhead reported.
  //
  // The hook also stamps the first call at every kWindow-th sample. A
  // window's fastest round is its cost without the host's bursts of
  // contention, so the path metrics are studies made of those minima.
  const std::vector<std::size_t> subset =
      replay_subset(config.seed, samples, config.smoke ? 8 : 16);
  std::map<std::size_t, cells::InverterTestbenchSpec> captured;
  Tracer tracer(false);
  std::vector<double> mode_ms[kModes];
  Windows windows[kModes];
  std::vector<double> round_plain_ms, round_traced_ms;
  std::optional<core::MonteCarloStats> first[kModes];
  double measured_ms = 0.0;  // the rounds only, not the set-up between them
  for (int round = 0;; ++round) {
    const bool traced = config.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    core::MonteCarloStats stats[kModes];
    const auto round_t0 = Clock::now();
    for (int m = 0; m < kModes; ++m) {
      core::MonteCarloSpec mc = mode_spec(Mode(m), samples, seed);
      std::map<std::size_t, Clock::time_point> stamps;
      const bool capture = traced && m == kScalar;
      mc.per_sample_hook = [&](std::size_t k,
                               cells::InverterTestbenchSpec& spec) {
        if (k % kWindow == 0) stamps.emplace(k, Clock::now());
        if (capture && std::binary_search(subset.begin(), subset.end(), k))
          captured.insert_or_assign(k, spec);
      };
      ++report.attempted;
      const auto t0 = Clock::now();
      try {
        Tracer::Span span(tracer, std::string("core.mc_") + kModeName[m]);
        stats[m] = core::ptm_monte_carlo(base, mc, mode_options(Mode(m)));
      } catch (const std::exception& e) {
        ++report.failed;
        report.check(false, std::string("mc_") + kModeName[m] + "_runs",
                     e.what());
        return report;
      }
      stamps.emplace(samples, Clock::now());
      mode_ms[m].push_back(ms_since(t0));
      for (auto it = stamps.begin(); std::next(it) != stamps.end(); ++it)
        windows[m][it->first].push_back(
            ms_between(it->second, std::next(it)->second));
    }
    const double round_ms = ms_since(round_t0);
    measured_ms += round_ms;
    (traced ? round_traced_ms : round_plain_ms).push_back(round_ms);

    report.check(stats_bitwise_equal(stats[kScalar], stats[kBatched]),
                 "mc_batched_bitwise_equals_scalar");
    std::string why;
    report.check(stats_close(stats[kRelaxed], stats[kScalar], why),
                 "mc_relaxed_within_2e-3", why);
    for (int m = 0; m < kModes; ++m) {
      if (!first[m]) {
        first[m] = stats[m];
      } else {
        report.check(stats_bitwise_equal(stats[m], *first[m]),
                     std::string("mc_") + kModeName[m] + "_repeats_exactly");
      }
    }
    const bool enough_rounds = !config.trace || round >= 1;
    if (measured_ms / 1e3 >= config.seconds && enough_rounds) break;
    set_up();
  }
  if (!report.failed_checks.empty()) return report;

  const core::MonteCarloStats& s = *first[kScalar];
  report.counters["core.failed_samples"] = s.failed_samples;
  report.counters["mc.samples"] = s.samples;
  report.notes.push_back("mc: imax_mean=" + hexfloat(s.imax_mean) +
                         " delay_mean=" + hexfloat(s.delay_mean));
  const std::pair<const char*, double> stat_fields[] = {
      {"imax_mean", s.imax_mean},   {"imax_std", s.imax_std},
      {"imax_worst", s.imax_worst}, {"delay_mean", s.delay_mean},
      {"delay_std", s.delay_std},   {"delay_worst", s.delay_worst},
      {"fraction_below_baseline", s.fraction_below_baseline}};
  for (const auto& [name, value] : stat_fields)
    report.counters[std::string("mc.stats.") + name] = value;

  double per_sample[kModes];
  for (int m = 0; m < kModes; ++m)
    per_sample[m] = window_sum_ms(windows[m], 0.0) / samples;
  report.end_to_end["setup_s"] = {median(setup_ms) / 1e3, "s"};
  report.end_to_end["path_a_ms"] = {per_sample[kScalar], "ms"};
  report.end_to_end["path_b_ms"] = {per_sample[kBatched], "ms"};
  report.end_to_end["path_c_ms"] = {per_sample[kRelaxed], "ms"};
  for (int m = 0; m < kModes; ++m) {
    report.notes.push_back(
        std::string(kModeName[m]) + "_samples_per_s = " +
        fmt(1e3 / per_sample[m]) + " 1/s (fastest of " +
        std::to_string(mode_ms[m].size()) + " rounds per " +
        std::to_string(kWindow) + "-sample window; median round " +
        fmt(samples * 1e3 / window_sum_ms(windows[m], 0.5)) +
        " 1/s, median whole study " +
        fmt(samples * 1e3 / median(mode_ms[m])) + " 1/s)");
  }

  if (!config.trace) return report;
  tracer.set_enabled(true);

  // Replay of the captured specs: per-layer spans plus exact counters.
  Replay replay;
  std::vector<cells::InverterTestbenchSpec> specs;
  for (const std::size_t k : subset) {
    const auto it = captured.find(k);
    report.check(it != captured.end(), "mc_replay_subset_captured",
                 "sample " + std::to_string(k));
    if (it == captured.end()) return report;
    specs.push_back(it->second);
  }
  for (const auto& spec : specs) replay_scalar(spec, tracer, replay);
  for (std::size_t begin = 0; begin < specs.size(); begin += kBatchLanes) {
    const std::vector<cells::InverterTestbenchSpec> block(
        specs.begin() + static_cast<long>(begin),
        specs.begin() +
            static_cast<long>(std::min(begin + kBatchLanes, specs.size())));
    replay_batch(block, kBatched, tracer, replay);
    replay_batch(block, kRelaxed, tracer, replay);
  }

  const auto self = tracer.self_ms("core.characterize");
  std::vector<double> characterize_self;
  const auto testbench = tracer.durations_ms("cells.testbench");
  const auto tran = tracer.durations_ms("sim.tran");
  for (std::size_t i = 0; i < self.size(); ++i)
    characterize_self.push_back(self[i] - testbench[i] - tran[i]);

  auto& L = report.per_layer;
  L["cells.testbench_us"] = {median(testbench) * 1e3, "us"};
  L["sim.op_ms"] = {tracer.median_ms("sim.op"), "ms"};
  L["sim.tran_ms"] = {median(tran), "ms"};
  L["core.characterize_self_ms"] = {median(characterize_self), "ms"};
  L["sim.stamp_map_us"] = {median(replay.stamp_map_ms) * 1e3, "us"};
  L["sim.stamp_tape_us"] = {median(replay.stamp_tape_ms) * 1e3, "us"};
  L["numeric.dense_lu_us"] = {median(replay.dense_lu_ms) * 1e3, "us"};
  L["numeric.batch_lu_us"] = {median(replay.batch_lu_ms) * 1e3, "us"};
  L["sim.batch_ms_per_lane"] = {median(replay.batch_ms_per_lane), "ms"};
  L["sim.batch_relaxed_ms_per_lane"] = {median(replay.relaxed_ms_per_lane),
                                        "ms"};
  const double steps = static_cast<double>(replay.accepted + replay.rejected);
  auto& C = report.counters;
  C["sim.accepted_steps"] = static_cast<double>(replay.accepted);
  C["sim.rejected_steps"] = static_cast<double>(replay.rejected);
  C["sim.step_accept_ratio"] =
      steps > 0 ? static_cast<double>(replay.accepted) / steps : 0.0;
  C["sim.newton_iters"] = static_cast<double>(replay.newton);
  C["sim.recovered_steps"] = static_cast<double>(replay.recovered);
  C["devices.ptm_events"] = static_cast<double>(replay.events);
  C["sim.batch_evictions"] = static_cast<double>(replay.evictions);
  C["sim.batch_lane_yield"] =
      replay.lanes_started > 0 ? static_cast<double>(replay.lanes_done) /
                                     static_cast<double>(replay.lanes_started)
                               : 0.0;

  const double plain = median(round_plain_ms);
  L["trace.overhead_pct"] = {
      plain > 0 ? (median(round_traced_ms) / plain - 1.0) * 100.0 : 0.0, "%"};
  return report;
}

}  // namespace perfbench
