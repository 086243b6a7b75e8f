// Parameter sweeps of the Soft-FET inverter. sweep_vimt_vmit enumerates
// its feasible grid and hands it to run_points (core/checkpointing.hpp),
// the resumable, lane-blocked driver it shares with ptm_monte_carlo; the
// smaller sweeps run one isolated scalar characterization per task.
#include "core/sweeps.hpp"

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace softfet::core {

namespace {
void require_softfet(const cells::InverterTestbenchSpec& base,
                     const char* who) {
  if (!base.dut.ptm) {
    throw Error(std::string(who) + ": base spec must be a Soft-FET inverter");
  }
}
}  // namespace

std::vector<DesignSpacePoint> sweep_vimt_vmit(
    const cells::InverterTestbenchSpec& base, const std::vector<double>& v_imt,
    const std::vector<double>& v_mit, const sim::SimOptions& options,
    const CheckpointSpec& checkpoint_spec, int lanes) {
  require_softfet(base, "sweep_vimt_vmit");
  throw_if_cancelled(options, "sweep_vimt_vmit");

  // Enumerate the feasible grid first so the characterizations can run as
  // one flat parallel batch with a stable output order.
  std::vector<DesignSpacePoint> points;
  for (const double imt : v_imt) {
    for (const double mit : v_mit) {
      if (mit >= imt) continue;  // infeasible hysteresis window
      DesignSpacePoint point;
      point.v_imt = imt;
      point.v_mit = mit;
      points.push_back(std::move(point));
    }
  }

  // One checkpoint slot per feasible grid point; the tag pins the file to
  // this exact grid (bit-exact axis values), refusing stale files.
  std::string tag = "vimt_vmit imt=";
  for (std::size_t i = 0; i < v_imt.size(); ++i) {
    tag += (i == 0 ? "" : ",") + encode_double(v_imt[i]);
  }
  tag += " mit=";
  for (std::size_t i = 0; i < v_mit.size(); ++i) {
    tag += (i == 0 ? "" : ",") + encode_double(v_mit[i]);
  }
  auto failures = run_points(
      {.who = "sweep_vimt_vmit",
       .tag = std::move(tag),
       .points = points.size(),
       .lanes = lanes,
       .make_spec =
           [&](std::size_t i) {
             auto spec = base;
             spec.dut.ptm->v_imt = points[i].v_imt;
             spec.dut.ptm->v_mit = points[i].v_mit;
             return spec;
           },
       .label =
           [&](std::size_t i) {
             return "v_imt=" + util::format_si(points[i].v_imt, 3, "V") +
                    " v_mit=" + util::format_si(points[i].v_mit, 3, "V");
           },
       .keep =
           [&](std::size_t i, TransitionMetrics&& m) {
             points[i].metrics = std::move(m);
             return encode_metrics(points[i].metrics);
           },
       .restore =
           [&](std::size_t i, const std::string& tail) {
             points[i].metrics = decode_metrics(tail);
             return true;
           }},
      checkpoint_spec, options);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].failure = std::move(failures[i]);
  }
  return points;
}

// The remaining sweeps stay on the scalar path deliberately: they are
// small (tens of points), run once per study, and two of them interleave
// soft/baseline topologies per task — different circuits cannot share a
// lane batch. The V_IMT/V_MIT grid above is the only sweep whose point
// count grows quadratically with resolution.
std::vector<TptmPoint> sweep_tptm(const cells::InverterTestbenchSpec& base,
                                  const std::vector<double>& t_ptm_values,
                                  const sim::SimOptions& options) {
  require_softfet(base, "sweep_tptm");
  std::vector<TptmPoint> points(t_ptm_values.size());
  util::parallel_for(
      points.size(),
      [&](std::size_t i) {
        auto spec = base;
        spec.dut.ptm->t_ptm = t_ptm_values[i];
        points[i].t_ptm = t_ptm_values[i];
        points[i].failure = run_isolated(
            i, "t_ptm=" + util::format_si(t_ptm_values[i], 3, "s"), options,
            [&](const sim::SimOptions& opts) {
              points[i].metrics = characterize_inverter(spec, opts);
            });
      },
      0, options.budget.cancel);
  throw_if_cancelled(options, "sweep_tptm");
  return points;
}

std::vector<SlewPoint> sweep_slew(const cells::InverterTestbenchSpec& base,
                                  const std::vector<double>& transitions,
                                  const sim::SimOptions& options) {
  require_softfet(base, "sweep_slew");
  auto baseline_spec = base;
  baseline_spec.dut.ptm.reset();
  std::vector<SlewPoint> points(transitions.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].input_transition = transitions[i];
  }
  // Two independent characterizations per slew point; flatten to 2N tasks.
  // Failures land in per-task slots (two tasks share one point, so writing
  // points[i].failure directly from both would race) and merge serially.
  std::vector<std::optional<FailureRecord>> slots(2 * points.size());
  util::parallel_for(
      2 * points.size(),
      [&](std::size_t task) {
        const std::size_t i = task / 2;
        const std::string context =
            "slew=" + util::format_si(transitions[i], 3, "s") +
            (task % 2 == 0 ? " (soft)" : " (baseline)");
        slots[task] =
            run_isolated(i, context, options, [&](const sim::SimOptions& opts) {
              if (task % 2 == 0) {
                auto soft = base;
                soft.input_transition = transitions[i];
                points[i].soft = characterize_inverter(soft, opts);
              } else {
                auto plain = baseline_spec;
                plain.input_transition = transitions[i];
                points[i].baseline = characterize_inverter(plain, opts);
              }
            });
      },
      0, options.budget.cancel);
  throw_if_cancelled(options, "sweep_slew");
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].failure = slots[2 * i] ? slots[2 * i] : slots[2 * i + 1];
  }
  return points;
}

std::vector<RatioPoint> sweep_slew_tptm_ratio(
    const cells::InverterTestbenchSpec& base, const std::vector<double>& slews,
    const std::vector<double>& t_ptms, const sim::SimOptions& options) {
  require_softfet(base, "sweep_slew_tptm_ratio");
  auto baseline_spec = base;
  baseline_spec.dut.ptm.reset();

  // Per-slew baseline references, computed in parallel.
  std::vector<TransitionMetrics> refs(slews.size());
  std::vector<std::optional<FailureRecord>> ref_failures(slews.size());
  util::parallel_for(
      slews.size(),
      [&](std::size_t s) {
        ref_failures[s] = run_isolated(
            s, "baseline slew=" + util::format_si(slews[s], 3, "s"), options,
            [&](const sim::SimOptions& opts) {
              auto plain = baseline_spec;
              plain.input_transition = slews[s];
              refs[s] = characterize_inverter(plain, opts);
            });
      },
      0, options.budget.cancel);
  throw_if_cancelled(options, "sweep_slew_tptm_ratio");

  // The full (slew, t_ptm) grid as one flat batch. Points whose per-slew
  // baseline reference failed inherit that failure without re-simulating.
  std::vector<RatioPoint> points(slews.size() * t_ptms.size());
  util::parallel_for(
      points.size(),
      [&](std::size_t task) {
        const std::size_t s = task / t_ptms.size();
        const std::size_t t = task % t_ptms.size();
        RatioPoint& point = points[task];
        point.slew = slews[s];
        point.t_ptm = t_ptms[t];
        point.ratio = slews[s] / t_ptms[t];
        if (ref_failures[s].has_value()) {
          point.failure = ref_failures[s];
          point.failure->index = task;
          return;
        }
        point.failure = run_isolated(
            task,
            "slew=" + util::format_si(slews[s], 3, "s") +
                " t_ptm=" + util::format_si(t_ptms[t], 3, "s"),
            options, [&](const sim::SimOptions& opts) {
              auto spec = base;
              spec.input_transition = slews[s];
              spec.dut.ptm->t_ptm = t_ptms[t];
              const TransitionMetrics m = characterize_inverter(spec, opts);
              point.imax_reduction_pct =
                  100.0 * (1.0 - m.i_max / refs[s].i_max);
              point.delay_penalty = m.delay / refs[s].delay;
            });
      },
      0, options.budget.cancel);
  throw_if_cancelled(options, "sweep_slew_tptm_ratio");
  return points;
}

}  // namespace softfet::core
