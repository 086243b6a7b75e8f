// Workload grid_droop: the 64x64 mesh PDN of pdn_grid_droop under a
// staircase aggressor, solved once per solver policy, each run followed by
// the full per-tile droop map.
#include <optional>

#include "cells/pdn.hpp"
#include "common.hpp"
#include "devices/sources.hpp"
#include "measure/metrics.hpp"
#include "measure/waveform.hpp"
#include "numeric/krylov.hpp"
#include "numeric/ordering.hpp"
#include "numeric/sparse_lu.hpp"
#include "sim/analyses.hpp"
#include "sim/device.hpp"
#include "sim/mna_system.hpp"

namespace perfbench {
namespace {

using namespace softfet;

constexpr double kIStep = 20e-3;  // aggressor magnitude [A]
constexpr double kEdge = 100e-12;
constexpr double kT0 = 1e-9;
constexpr double kTstop = 6e-9;
/// Accepted transient steps per timing window.
constexpr std::size_t kStepsPerWindow = 8;

/// A device that stamps nothing and records the host time at the end of
/// every accepted transient step: the benchmark's view of a run's progress.
class StepClock final : public sim::Device {
 public:
  explicit StepClock(std::string name) : Device(std::move(name)) {}
  void setup(sim::Circuit& /*circuit*/) override {}
  void load(const std::vector<double>& /*x*/, sim::Stamper& /*stamper*/,
            const sim::LoadContext& /*ctx*/) override {}
  void accept_step(const std::vector<double>& /*x*/,
                   const sim::LoadContext& /*ctx*/) override {
    stamps.push_back(Clock::now());
  }

  std::vector<Clock::time_point> stamps;
};

/// Cuts one transient's host time into windows of kStepsPerWindow accepted
/// steps, keyed by position; the last window ends at `end`.
void add_step_windows(Clock::time_point start,
                      const std::vector<Clock::time_point>& steps,
                      Clock::time_point end, Windows& windows) {
  Clock::time_point from = start;
  std::size_t w = 0;
  for (std::size_t i = kStepsPerWindow - 1; i < steps.size();
       i += kStepsPerWindow) {
    windows[w++].push_back(ms_between(from, steps[i]));
    from = steps[i];
  }
  windows[w].push_back(ms_between(from, end));
}

/// The Soft-FET-charged gate's load: the full step in four staircase
/// sub-steps 500 ps apart (pdn_grid_droop's "soft" edge).
devices::SourceSpec staircase() {
  std::vector<numeric::PwlPoint> pts{{0.0, 0.0}, {kT0, 0.0}};
  for (int k = 1; k <= 4; ++k) {
    const double t = kT0 + (k - 1) * 500e-12;
    pts.push_back({t + kEdge, kIStep * k / 4.0});
    if (k < 4) pts.push_back({t + 500e-12, kIStep * k / 4.0});
  }
  return devices::SourceSpec::pwl(std::move(pts));
}

struct Grid {
  sim::Circuit circuit;
  cells::PdnGrid grid;
  cells::PdnGridParams params;
  StepClock* clock = nullptr;  ///< owned by `circuit`
};

std::unique_ptr<Grid> build_grid(std::size_t n) {
  auto g = std::make_unique<Grid>();
  g->params = cells::PdnGridParams::from_lumped(
      cells::PdnParams::zhang_islped13(), n, n);
  g->grid = cells::make_pdn_grid(g->circuit, "grid", g->params);
  g->circuit.add<devices::ISource>("Iload", g->grid.tile(n / 4, n / 4),
                                   sim::kGroundNode, staircase());
  g->clock = g->circuit.add<StepClock>("Xstep_clock");
  g->circuit.prepare();
  return g;
}

struct DroopMap {
  double worst = 0.0;
  std::size_t row = 0;
  std::size_t col = 0;
};

/// The worst droop over every tile; `rows`, when given, receives each
/// row's host time keyed by row.
DroopMap droop_map(const Grid& g, const sim::TranResult& tran,
                   Windows* rows = nullptr) {
  DroopMap map;
  for (std::size_t r = 0; r < g.grid.rows; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < g.grid.cols; ++c) {
      const double droop = measure::worst_droop(
          measure::Waveform::from_tran(tran, g.grid.tile_signal(r, c)),
          g.params.vcc);
      if (droop > map.worst) map = {droop, r, c};
    }
    if (rows != nullptr) (*rows)[r].push_back(ms_since(t0));
  }
  return map;
}

sim::SimOptions policy_options(numeric::SolverPolicy policy) {
  sim::SimOptions options;
  options.solver_policy = policy;
  return options;
}

/// The counters a run must repeat exactly.
std::vector<std::pair<std::string, double>> run_counters(
    const sim::TranResult& t) {
  const SolverDiagnostics& d = t.diagnostics;
  return {{"sim.accepted_steps", static_cast<double>(t.accepted_steps)},
          {"sim.rejected_steps", static_cast<double>(t.rejected_steps)},
          {"sim.newton_iters", static_cast<double>(t.newton_iterations)},
          {"numeric.symbolic_analyses", static_cast<double>(d.symbolic_analyses)},
          {"numeric.refactorizations", static_cast<double>(d.refactorizations)},
          {"numeric.fill_ratio", d.fill_ratio},
          {"numeric.krylov_solves", static_cast<double>(d.krylov_solves)},
          {"numeric.krylov_iterations", static_cast<double>(d.krylov_iterations)},
          {"numeric.krylov_fallbacks", static_cast<double>(d.krylov_fallbacks)}};
}

template <typename F>
double median_of(int reps, F&& body) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    body();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

}  // namespace

Report run_grid_droop(const RunConfig& config) {
  Report report;
  const std::size_t n = config.smoke ? 16 : 64;
  const std::size_t hot = n / 4;

  // Set-up: build + prepare the mesh, repeated for a median, before the
  // timed rounds and again after each, so the median samples the whole run,
  // not one moment of the host. The mesh of the first set-up is the circuit
  // the timed runs solve.
  std::vector<double> setup_ms;
  const auto set_up = [&] {
    std::unique_ptr<Grid> g;
    for (int rep = 0; rep < 11; ++rep) {
      const auto t0 = Clock::now();
      g = build_grid(n);
      setup_ms.push_back(ms_since(t0));
    }
    return g;
  };
  const std::unique_ptr<Grid> grid = set_up();

  const numeric::SolverPolicy policies[2] = {numeric::SolverPolicy::kDirect,
                                             numeric::SolverPolicy::kIterative};
  const char* policy_name[2] = {"direct", "iterative"};
  std::vector<double> study_ms[2], map_ms, round_plain_ms, round_traced_ms;
  Windows step_windows[2], row_windows;
  std::optional<std::vector<std::pair<std::string, double>>> counters[2];
  double worst[2] = {0.0, 0.0};
  Tracer tracer(false);
  std::optional<sim::TranResult> direct_tran;

  // Timed rounds. Under --trace 1 the tracer records only in every other
  // round, whose spans (per policy, transient and map) are the tracing
  // overhead reported.
  double measured_ms = 0.0;  // the rounds only, not the set-up between them
  for (int round = 0;; ++round) {
    const bool traced = config.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    const auto round_t0 = Clock::now();
    for (int p = 0; p < 2; ++p) {
      ++report.attempted;
      grid->clock->stamps.clear();
      const auto t0 = Clock::now();
      sim::TranResult tran;
      DroopMap map;
      try {
        Tracer::Span span(tracer, std::string("grid.") + policy_name[p]);
        {
          Tracer::Span tran_span(tracer, "grid.tran");
          tran = sim::run_transient(grid->circuit, kTstop,
                                    policy_options(policies[p]));
        }
        add_step_windows(t0, grid->clock->stamps, Clock::now(),
                         step_windows[p]);
        const auto map_t0 = Clock::now();
        {
          Tracer::Span map_span(tracer, "grid.droop_map");
          map = droop_map(*grid, tran, &row_windows);
        }
        map_ms.push_back(ms_since(map_t0));
      } catch (const std::exception& e) {
        ++report.failed;
        report.check(false, std::string("grid_") + policy_name[p] + "_runs",
                     e.what());
        return report;
      }
      study_ms[p].push_back(ms_since(t0));

      report.check(!tran.truncated, "grid_run_complete");
      report.check(map.row == hot && map.col == hot,
                   std::string("grid_") + policy_name[p] + "_worst_at_aggressor",
                   "(" + std::to_string(map.row) + "," +
                       std::to_string(map.col) + ")");
      worst[p] = map.worst;
      const auto c = run_counters(tran);
      if (!counters[p]) {
        counters[p] = c;
      } else {
        report.check(c == *counters[p],
                     std::string("grid_") + policy_name[p] + "_repeats_exactly");
      }
      if (p == 0 && config.trace && !direct_tran) direct_tran = std::move(tran);
    }
    const double round_ms = ms_since(round_t0);
    measured_ms += round_ms;
    (traced ? round_traced_ms : round_plain_ms).push_back(round_ms);
    const bool enough_rounds = !config.trace || round >= 1;
    if (measured_ms / 1e3 >= config.seconds && enough_rounds) break;
    (void)set_up();
  }
  if (!report.failed_checks.empty()) return report;

  // Both policies must print the same droop to the bench's precision.
  report.check(fmt(worst[0] * 1e3, 4) == fmt(worst[1] * 1e3, 4),
               "grid_iterative_matches_direct",
               fmt(worst[0] * 1e3, 6) + " vs " + fmt(worst[1] * 1e3, 6) + " mV");
  // The grid is not seeded: at 64x64 it must print the EXPERIMENTS.md value.
  report.check(config.smoke || fmt(worst[0] * 1e3, 4) == "12.48",
               "grid_worst_droop_12.48mV", fmt(worst[0] * 1e3, 6) + " mV");
  report.counters["grid.worst_droop_mV_4g"] =
      std::stod(fmt(worst[0] * 1e3, 4));
  // Both runs' counters are exact; the per-layer names take the step and
  // factorization counts from the direct run and the Krylov counts from
  // the iterative run, where that path is exercised.
  for (int p = 0; p < 2; ++p) {
    for (const auto& [name, value] : *counters[p]) {
      report.counters[std::string(policy_name[p]) + "." + name] = value;
      if ((p == 1) == (name.rfind("numeric.krylov", 0) == 0))
        report.counters[name] = value;
    }
  }
  report.notes.push_back("grid: " + std::to_string(n) + "x" +
                         std::to_string(n) + ", " +
                         std::to_string(grid->circuit.unknown_count()) +
                         " unknowns, worst droop " + fmt(worst[0] * 1e3, 4) +
                         " mV at (" + std::to_string(hot) + "," +
                         std::to_string(hot) + ")");
  // Every round repeats the same accepted steps and the same map, so each
  // window of kStepsPerWindow steps, and each row of the map (same work
  // under both policies), is taken at its fastest round: that leaves out
  // the host's bursts of contention, even ones longer than a round.
  const double map_best_ms = window_sum_ms(row_windows, 0.0);
  const double direct_ms = window_sum_ms(step_windows[0], 0.0) + map_best_ms;
  const double iterative_ms =
      window_sum_ms(step_windows[1], 0.0) + map_best_ms;
  report.end_to_end["setup_s"] = {median(setup_ms) / 1e3, "s"};
  report.end_to_end["path_a_ms"] = {direct_ms, "ms"};
  report.end_to_end["path_b_ms"] = {iterative_ms, "ms"};
  report.end_to_end["path_c_ms"] = {map_best_ms, "ms"};
  report.notes.push_back(
      "direct_s = " + fmt(direct_ms / 1e3) + " s, iterative_s = " +
      fmt(iterative_ms / 1e3) + " s (fastest of " +
      std::to_string(study_ms[0].size()) + " runs per " +
      std::to_string(kStepsPerWindow) + "-step window and map row; median runs " +
      fmt(median(study_ms[0]) / 1e3) + " s and " +
      fmt(median(study_ms[1]) / 1e3) + " s)");

  if (!config.trace) return report;
  tracer.set_enabled(true);

  // Layer replay on a fresh mesh.
  std::unique_ptr<Grid> g;
  {
    Tracer::Span span(tracer, "cells.grid_build");
    g = build_grid(n);
  }
  sim::OpResult op;
  {
    Tracer::Span span(tracer, "sim.op");
    op = sim::dc_operating_point(g->circuit);
  }
  const sim::SimOptions options;
  sim::LoadContext ctx;
  sim::MnaSystem system(g->circuit, options, ctx);
  const std::size_t size = system.size();
  numeric::SparseMatrix jac(size);
  std::vector<double> residual(size, 0.0);
  const double stamp_ms = median_of(5, [&] {
    jac.set_zero_keep_structure();
    std::fill(residual.begin(), residual.end(), 0.0);
    system.load(op.x, jac, residual);
  });
  const double amd_ms = median_of(3, [&] { (void)numeric::amd_order(jac); });
  numeric::SparseLu lu;
  const double analyze_ms = median_of(config.smoke ? 3 : 2, [&] {
    lu = numeric::SparseLu();
    lu.factor(jac);
  });
  const double refactor_ms = median_of(10, [&] { lu.factor(jac); });
  report.check(lu.analyze_count() == 1 && lu.refactor_count() == 10,
               "grid_replay_refactor_path");
  const double solve_ms = median_of(10, [&] { (void)lu.solve(residual); });

  // BiCGSTAB with the operating-point LU as a stale preconditioner, on the
  // Jacobian the direct run's last accepted step leaves behind.
  std::vector<double> x_end(size);
  const auto& labels = g->circuit.unknown_labels();
  for (std::size_t i = 0; i < size; ++i)
    x_end[i] = direct_tran->table.signal(labels[i]).back();
  {
    // Device state must sit at the end of a transient for a transient-mode
    // load: rerun it on the replay circuit (traced as the scalar transient).
    Tracer::Span span(tracer, "sim.tran");
    (void)sim::run_transient(g->circuit, kTstop, options);
  }
  const std::size_t last = direct_tran->time.size() - 1;
  ctx.mode = sim::AnalysisMode::kTransient;
  ctx.method = sim::IntegrationMethod::kTrapezoidal;
  ctx.time = direct_tran->time[last];
  ctx.dt = direct_tran->time[last] - direct_tran->time[last - 1];
  numeric::SparseMatrix jac_late(size);
  std::vector<double> residual_late(size, 0.0);
  system.load(x_end, jac_late, residual_late);
  numeric::KrylovOptions kopt;
  kopt.rtol = 1e-12;
  kopt.max_iterations = 120;
  numeric::KrylovResult kres;
  const double bicgstab_ms = median_of(3, [&] {
    std::vector<double> x(size, 0.0);
    kres = numeric::bicgstab(jac_late, residual_late, x, &lu, kopt);
  });
  report.check(kres.converged, "grid_replay_bicgstab_converged");

  const double scan_ms = median_of(3, [&] { (void)droop_map(*g, *direct_tran); });

  auto& L = report.per_layer;
  L["cells.grid_build_ms"] = {tracer.median_ms("cells.grid_build"), "ms"};
  L["sim.op_ms"] = {tracer.median_ms("sim.op"), "ms"};
  L["sim.tran_ms"] = {tracer.median_ms("sim.tran"), "ms"};
  L["sim.stamp_map_us"] = {stamp_ms * 1e3, "us"};
  L["numeric.amd_ms"] = {amd_ms, "ms"};
  L["numeric.analyze_ms"] = {analyze_ms, "ms"};
  L["numeric.refactor_ms"] = {refactor_ms, "ms"};
  L["numeric.solve_ms"] = {solve_ms, "ms"};
  L["numeric.bicgstab_ms"] = {bicgstab_ms, "ms"};
  L["measure.droop_scan_ms"] = {scan_ms, "ms"};
  report.counters["numeric.bicgstab_iters"] =
      static_cast<double>(kres.iterations);

  // Estimated shares of the direct run, each over direct path time.
  const auto& dc = *counters[0];
  const auto count = [&](const char* name) {
    for (const auto& [k, v] : dc)
      if (k == name) return v;
    return 0.0;
  };
  const double newton = count("sim.newton_iters");
  const double lu_ms = count("numeric.symbolic_analyses") * analyze_ms +
                       count("numeric.refactorizations") * refactor_ms +
                       newton * solve_ms;
  L["numeric.est_share_direct"] = {lu_ms / direct_ms, "ratio"};
  L["sim.est_stamp_share_direct"] = {newton * stamp_ms / direct_ms, "ratio"};

  const double plain = median(round_plain_ms);
  L["trace.overhead_pct"] = {
      plain > 0 ? (median(round_traced_ms) / plain - 1.0) * 100.0 : 0.0, "%"};
  return report;
}

}  // namespace perfbench
