// PTM sensitivity (central differences, one flat parallel batch) and the
// Monte-Carlo variability study. ptm_monte_carlo owns only its study: the
// seeded per-sample draws, the baseline, the payload codec and the
// statistics; run_points (core/checkpointing.hpp) owns the checkpointed,
// lane-blocked, failure-isolating loop.
#include "core/variation.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <sstream>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace softfet::core {

namespace {

using ParamAccessor = double devices::PtmParams::*;

struct ParamInfo {
  const char* name;
  ParamAccessor member;
};

constexpr ParamInfo kParams[] = {
    {"r_ins", &devices::PtmParams::r_ins},
    {"r_met", &devices::PtmParams::r_met},
    {"v_imt", &devices::PtmParams::v_imt},
    {"v_mit", &devices::PtmParams::v_mit},
    {"t_ptm", &devices::PtmParams::t_ptm},
};

constexpr std::size_t kParamCount = std::size(kParams);

void require_softfet(const cells::InverterTestbenchSpec& base,
                     const char* who) {
  if (!base.dut.ptm) {
    throw Error(std::string(who) + ": base spec must be a Soft-FET inverter");
  }
}

}  // namespace

std::vector<SensitivityRow> ptm_sensitivity(
    const cells::InverterTestbenchSpec& base, double delta_fraction,
    const sim::SimOptions& options) {
  require_softfet(base, "ptm_sensitivity");
  if (!(delta_fraction > 0.0) || delta_fraction >= 0.5) {
    throw Error("ptm_sensitivity: delta_fraction must be in (0, 0.5)");
  }

  const auto metrics_at = [&](const ParamInfo& info, double scale) {
    auto spec = base;
    (*spec.dut.ptm).*(info.member) = ((*base.dut.ptm).*(info.member)) * scale;
    // Perturbations can make the hysteresis window collapse; surface
    // that as an invalid-parameter error instead of a crash.
    spec.dut.ptm->validate();
    return characterize_inverter(spec, options);
  };

  // The unperturbed characterization is identical for every parameter, so
  // it runs once; the 2 perturbed runs per parameter are all independent.
  // Flatten everything into one parallel batch (task 0 is the baseline,
  // then hi/lo pairs per parameter).
  TransitionMetrics mid;
  std::vector<TransitionMetrics> hi(kParamCount);
  std::vector<TransitionMetrics> lo(kParamCount);
  util::parallel_for(
      1 + 2 * kParamCount,
      [&](std::size_t task) {
        if (task == 0) {
          mid = characterize_inverter(base, options);
          return;
        }
        const std::size_t p = (task - 1) / 2;
        const bool is_hi = (task - 1) % 2 == 0;
        auto& out = is_hi ? hi[p] : lo[p];
        out = metrics_at(kParams[p],
                         is_hi ? 1.0 + delta_fraction : 1.0 - delta_fraction);
      },
      0, options.budget.cancel);
  // Partially filled hi/lo tables would silently skew the central
  // differences; a cancel must surface instead.
  throw_if_cancelled(options, "ptm_sensitivity");

  const auto central = [&](double y_hi, double y_lo, double y_mid) {
    // %metric per %param.
    return ((y_hi - y_lo) / y_mid) / (2.0 * delta_fraction);
  };

  std::vector<SensitivityRow> rows;
  rows.reserve(kParamCount);
  for (std::size_t p = 0; p < kParamCount; ++p) {
    SensitivityRow row;
    row.parameter = kParams[p].name;
    row.nominal = (*base.dut.ptm).*(kParams[p].member);
    row.imax_sensitivity = central(hi[p].i_max, lo[p].i_max, mid.i_max);
    row.didt_sensitivity =
        central(hi[p].max_didt, lo[p].max_didt, mid.max_didt);
    row.delay_sensitivity = central(hi[p].delay, lo[p].delay, mid.delay);
    rows.push_back(std::move(row));
  }
  return rows;
}

MonteCarloStats ptm_monte_carlo(const cells::InverterTestbenchSpec& base,
                                const MonteCarloSpec& mc,
                                const sim::SimOptions& options) {
  require_softfet(base, "ptm_monte_carlo");
  if (mc.samples < 2) throw Error("ptm_monte_carlo: need >= 2 samples");
  throw_if_cancelled(options, "ptm_monte_carlo");

  const auto sample_count = static_cast<std::size_t>(mc.samples);
  double baseline_imax = 0.0;
  std::vector<double> imaxes(sample_count, 0.0);
  std::vector<double> delays(sample_count, 0.0);

  // Every sample owns an independent RNG stream seeded from mc.seed + k, so
  // the draws — and therefore the statistics — are identical for any worker
  // count and lane width: batched lanes and the scalar oracle both draw
  // through this one maker.
  const int draw_budget = std::max(mc.max_draw_attempts, 1);
  const auto make_spec = [&](std::size_t k) {
    auto spec = base;
    std::mt19937 rng(mc.seed + static_cast<unsigned>(k));
    std::normal_distribution<double> gauss(0.0, 1.0);
    const auto draw = [&](double nominal, double sigma_rel) {
      // Truncate at +-3 sigma so extreme tails can't invert the hysteresis.
      double z = gauss(rng);
      z = std::clamp(z, -3.0, 3.0);
      return nominal * (1.0 + sigma_rel * z);
    };
    auto& p = *spec.dut.ptm;
    for (int attempt = 0; attempt < draw_budget; ++attempt) {
      p.r_ins = draw(base.dut.ptm->r_ins, mc.sigma_resistance);
      p.r_met = draw(base.dut.ptm->r_met, mc.sigma_resistance);
      p.v_imt = draw(base.dut.ptm->v_imt, mc.sigma_threshold);
      p.v_mit = draw(base.dut.ptm->v_mit, mc.sigma_threshold);
      p.t_ptm = draw(base.dut.ptm->t_ptm, mc.sigma_tptm);
      if (p.r_ins > p.r_met && p.v_imt > p.v_mit && p.v_mit > 0.0 &&
          p.t_ptm > 0.0) {
        break;
      }
    }
    try {
      p.validate();  // p may keep the last (invalid) draw
    } catch (const Error& e) {
      throw Error("ptm_monte_carlo: sample " + std::to_string(k) +
                  " found no valid PTM parameter draw in " +
                  std::to_string(draw_budget) + " attempts (" + e.what() +
                  "); check the sigma_* spreads against the card");
    }
    if (mc.per_sample_hook) mc.per_sample_hook(k, spec);
    return spec;
  };

  // Checkpoint slot 0 is the PTM-less baseline, slot k+1 is sample k. The
  // tag pins the file to this exact study so a stale file cannot
  // contaminate it.
  auto failure_slots = run_points(
      {.who = "ptm_monte_carlo",
       .tag = "mc seed=" + std::to_string(mc.seed) +
              " samples=" + std::to_string(mc.samples) +
              " sig_th=" + encode_double(mc.sigma_threshold) +
              " sig_r=" + encode_double(mc.sigma_resistance) +
              " sig_t=" + encode_double(mc.sigma_tptm),
       .points = sample_count,
       .lanes = mc.lanes,
       .threads = static_cast<std::size_t>(std::max(mc.threads, 0)),
       .make_spec = make_spec,
       .label = [](std::size_t k) { return "sample " + std::to_string(k); },
       .keep =
           [&](std::size_t k, TransitionMetrics&& m) {
             imaxes[k] = m.i_max;
             delays[k] = m.delay;
             return encode_double(m.i_max) + ' ' + encode_double(m.delay);
           },
       .restore =
           [&](std::size_t k, const std::string& tail) {
             std::istringstream in(tail);
             std::string imax_token, delay_token;
             if (!(in >> imax_token >> delay_token)) return false;
             imaxes[k] = decode_double(imax_token);
             delays[k] = decode_double(delay_token);
             return true;
           },
       .baseline =
           [&] {
             auto spec = base;
             spec.dut.ptm.reset();
             baseline_imax = characterize_inverter(spec, options).i_max;
             return "base " + encode_double(baseline_imax);
           },
       .restore_baseline =
           [&](const std::string& payload) {
             std::istringstream in(payload);
             std::string keyword, token;
             if (!(in >> keyword >> token) || keyword != "base") return false;
             baseline_imax = decode_double(token);
             return true;
           }},
      mc.checkpoint, options);

  // Compact survivors serially in index order so the floating-point
  // accumulation order — hence the result — is thread-count independent.
  MonteCarloStats stats;
  stats.samples = mc.samples;
  std::vector<double> ok_imaxes;
  std::vector<double> ok_delays;
  ok_imaxes.reserve(sample_count);
  ok_delays.reserve(sample_count);
  for (std::size_t k = 0; k < sample_count; ++k) {
    if (failure_slots[k].has_value()) {
      stats.failures.push_back(std::move(*failure_slots[k]));
    } else {
      ok_imaxes.push_back(imaxes[k]);
      ok_delays.push_back(delays[k]);
    }
  }
  stats.failed_samples = static_cast<int>(stats.failures.size());
  if (ok_imaxes.size() < 2) {
    throw Error("ptm_monte_carlo: only " + std::to_string(ok_imaxes.size()) +
                " of " + std::to_string(mc.samples) +
                " samples survived; first failure: " +
                stats.failures.front().message);
  }

  int beat_baseline = 0;
  for (const double imax : ok_imaxes) {
    if (imax < baseline_imax) ++beat_baseline;
  }
  const auto mean_std = [](const std::vector<double>& v, double& mean,
                           double& stddev, double& worst) {
    mean = 0.0;
    worst = 0.0;
    for (const double x : v) {
      mean += x;
      worst = std::max(worst, x);
    }
    mean /= static_cast<double>(v.size());
    double var = 0.0;
    for (const double x : v) var += (x - mean) * (x - mean);
    stddev = std::sqrt(var / static_cast<double>(v.size() - 1));
  };
  mean_std(ok_imaxes, stats.imax_mean, stats.imax_std, stats.imax_worst);
  mean_std(ok_delays, stats.delay_mean, stats.delay_std, stats.delay_worst);
  stats.fraction_below_baseline =
      static_cast<double>(beat_baseline) / static_cast<double>(ok_imaxes.size());
  return stats;
}

}  // namespace softfet::core
