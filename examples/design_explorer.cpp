// PTM design-space explorer: sweep the PTM card against your own gate and
// dump a CSV of (V_IMT, V_MIT, T_PTM) -> (I_MAX, di/dt, delay, transitions)
// so device engineers can pick a material target (paper Section IV).
//
//   $ ./design_explorer [out.csv] [--resume state.ckpt] [--timeout seconds]
//                       [--determinism bitwise|relaxed]
//
// --resume checkpoints completed grid points (one file per T_PTM slice,
// "<state.ckpt>.t<i>") with atomic saves; a rerun with the same flag skips
// them and reproduces the uninterrupted CSV bitwise. Ctrl-C or SIGTERM
// requests a cooperative stop (in-flight points finish, checkpoints flush,
// exit 130/143); a second signal hard-exits. --timeout bounds each wall
// clock; timed-out points are recorded as failures and skipped in the CSV.
// --determinism only labels the run and its checkpoint tag: both modes run
// the bitwise engine, so the CSV is the same either way.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/softfet.hpp"
#include "util/budget.hpp"
#include "util/build_info.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace softfet;
  std::string out_path = "design_space.csv";
  std::string resume_path;
  double timeout_seconds = 0.0;
  sim::Determinism determinism = sim::Determinism::kBitwise;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--timeout" && i + 1 < argc) {
      const auto parsed = util::parse_spice_number(argv[++i]);
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr, "--timeout needs a positive number of seconds\n");
        return 2;
      }
      timeout_seconds = *parsed;
    } else if (arg == "--determinism" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "bitwise") {
        determinism = sim::Determinism::kBitwise;
      } else if (mode == "relaxed") {
        determinism = sim::Determinism::kRelaxedUlp;
      } else {
        std::fprintf(stderr,
                     "--determinism must be 'bitwise' or 'relaxed' (got "
                     "'%s')\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--version") {
      std::printf("%s\n", util::build_info_line().c_str());
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      out_path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: design_explorer [out.csv] [--resume state.ckpt] "
                   "[--timeout seconds] [--determinism bitwise|relaxed] "
                   "[--version]\n");
      return 2;
    }
  }

  util::install_signal_cancel();
  sim::SimOptions options;
  options.budget.max_wall_seconds = timeout_seconds;
  options.budget.cancel = &util::sigint_cancel_token();
  options.determinism = determinism;

  cells::InverterTestbenchSpec base;
  base.vcc = 1.0;
  base.input_transition = 30e-12;
  base.input_rising = false;
  base.dut.ptm = devices::PtmParams{};

  std::vector<double> v_imts{0.25, 0.3, 0.35, 0.4, 0.45, 0.5};
  std::vector<double> v_mits{0.15, 0.2, 0.25, 0.3};
  std::vector<double> t_ptms{5e-12, 10e-12, 20e-12};

  try {
    const core::TransitionMetrics baseline = [&] {
      auto spec = base;
      spec.dut.ptm.reset();
      return core::characterize_inverter(spec, options);
    }();

    std::ofstream file(out_path);
    util::CsvWriter csv(file, {"v_imt", "v_mit", "t_ptm", "i_max", "max_didt",
                               "delay", "imt_count", "imax_reduction_pct",
                               "delay_penalty"});

    double best_score = 0.0;
    std::size_t failed_points = 0;
    devices::PtmParams best;
    for (std::size_t t = 0; t < t_ptms.size(); ++t) {
      const double t_ptm = t_ptms[t];
      auto spec = base;
      spec.dut.ptm->t_ptm = t_ptm;
      // One checkpoint file per T_PTM slice: each sweep_vimt_vmit call is
      // its own batch with its own grid tag.
      core::CheckpointSpec checkpoint;
      if (!resume_path.empty()) {
        checkpoint.path = resume_path + ".t" + std::to_string(t);
      }
      const auto points =
          core::sweep_vimt_vmit(spec, v_imts, v_mits, options, checkpoint);
      for (const auto& p : points) {
        if (p.failure.has_value()) {
          ++failed_points;
          std::fprintf(stderr, "skipping failed point %s: %s\n",
                       p.failure->context.c_str(), p.failure->message.c_str());
          continue;
        }
        const double reduction = 1.0 - p.metrics.i_max / baseline.i_max;
        const double penalty = p.metrics.delay / baseline.delay;
        csv.write_row({p.v_imt, p.v_mit, t_ptm, p.metrics.i_max,
                       p.metrics.max_didt, p.metrics.delay,
                       static_cast<double>(p.metrics.imt_count),
                       100.0 * reduction, penalty});
        // Score: reward I_MAX reduction, penalize delay (paper's tradeoff).
        const double score = reduction / penalty;
        if (score > best_score) {
          best_score = score;
          best = *spec.dut.ptm;
          best.v_imt = p.v_imt;
          best.v_mit = p.v_mit;
        }
      }
    }

    std::printf("wrote %zu design points to %s\n", csv.rows_written(),
                out_path.c_str());
    if (failed_points > 0) {
      std::printf("skipped %zu failed points (see stderr)\n", failed_points);
    }
    std::printf(
        "best reduction-per-delay card: V_IMT=%.2f V, V_MIT=%.2f V, "
        "T_PTM=%.0f ps\n",
        best.v_imt, best.v_mit, best.t_ptm * 1e12);
    std::printf("baseline reference: I_MAX=%.1f uA, delay=%.1f ps\n",
                baseline.i_max * 1e6, baseline.delay * 1e12);
    return 0;
  } catch (const BudgetExceededError& e) {
    std::fprintf(stderr, "budget stop: %s\n", e.what());
    if (!resume_path.empty()) {
      std::fprintf(stderr, "rerun with --resume %s to continue\n",
                   resume_path.c_str());
    }
    // 128 + signo (130 SIGINT, 143 SIGTERM) after a cooperative drain;
    // plain budget exhaustion keeps the scripted exit code 3.
    return e.stop() == util::BudgetStop::kCancel ? util::cancel_exit_code() : 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
