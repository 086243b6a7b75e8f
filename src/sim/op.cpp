// DC operating point with gmin-stepping and source-stepping homotopies.
#include <cmath>

#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "sim/mna_system.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace softfet::sim {

namespace detail {

numeric::NewtonOptions newton_options(const SimOptions& options) {
  numeric::NewtonOptions nopt;
  nopt.max_iterations = options.newton_max_iter;
  nopt.reltol = options.reltol;
  nopt.solver = options.solver;
  return nopt;
}

void fill_solver_stats(SolverDiagnostics& diag,
                       const numeric::LinearSolver& solver) {
  const numeric::LinearSolverStats stats = solver.stats();
  diag.symbolic_analyses = stats.symbolic_analyses;
  diag.refactorizations = stats.refactorizations;
  diag.fill_ratio = stats.fill_ratio;
  diag.reordered = stats.reordered;
  diag.krylov_solves = stats.krylov_solves;
  diag.krylov_iterations = stats.krylov_iterations;
  diag.krylov_fallbacks = stats.krylov_fallbacks;
}

/// Shared by dc_operating_point / dc_sweep / run_transient. `x` carries the
/// warm start in and the solution out. Returns Newton iterations used.
int solve_dc(Circuit& circuit, const SimOptions& options, LoadContext& ctx,
             std::vector<double>& x, numeric::LinearSolver* solver,
             SolverDiagnostics* diag, const util::BudgetTimer* budget) {
  MnaSystem system(circuit, options, ctx);
  numeric::NewtonOptions nopt = newton_options(options);
  numeric::LinearSolver local_solver(options.solver_config());
  nopt.solver_instance = solver != nullptr ? solver : &local_solver;
  nopt.budget = budget;
  int total_iterations = 0;

  ctx.mode = AnalysisMode::kDcOp;
  ctx.dt = 0.0;
  ctx.source_scale = 1.0;

  numeric::NewtonResult last;
  std::vector<double> last_x;
  const auto attempt = [&](std::vector<double>& guess) {
    last = numeric::solve_newton(system, guess, nopt);
    total_iterations += last.iterations;
    if (last.failure == numeric::NewtonFailure::kBudgetExhausted) {
      // Not a homotopy failure: stop the whole DC solve, skipping the
      // remaining (expensive) rungs.
      util::BudgetStop stop = budget != nullptr ? budget->check_now()
                                                : util::BudgetStop::kNone;
      if (stop == util::BudgetStop::kNone) stop = util::BudgetStop::kWallClock;
      SolverDiagnostics d;
      if (diag != nullptr) d = *diag;
      d.analysis = "dc operating point";
      d.determinism = to_string(options.determinism);
      d.failure = std::string("run budget: ") + util::to_string(stop);
      d.total_iterations = total_iterations;
      fill_solver_stats(d, *nopt.solver_instance);
      throw BudgetExceededError("dc operating point", stop, std::move(d));
    }
    if (!last.converged) last_x = guess;
    return last.converged;
  };
  // Record a homotopy rung in the caller's diagnostics (when given).
  const auto note = [&](const char* strategy, bool succeeded) {
    if (diag != nullptr) {
      diag->record_attempt({strategy, succeeded,
                            succeeded ? ""
                                      : numeric::to_string(last.failure)});
    }
  };

  // 1. Direct Newton from the warm start. A clean solve records nothing:
  // the attempt log is the history of escalations, not of routine work.
  std::vector<double> trial = x;
  if (attempt(trial)) {
    x = trial;
    return total_iterations;
  }
  note("direct_newton", false);

  // 2. gmin stepping: start heavily regularized, relax decade by decade.
  trial = x;
  bool ok = true;
  double g = 1e-2;
  while (true) {
    system.set_gmin(g);
    if (!attempt(trial)) {
      ok = false;
      break;
    }
    if (g <= options.gmin * 1.001) break;
    g = std::max(g / 10.0, options.gmin);
  }
  system.set_gmin(options.gmin);
  note("gmin_stepping", ok);
  if (ok) {
    x = trial;
    return total_iterations;
  }
  util::log_debug("dc: gmin stepping failed, trying source stepping");

  // 3. Source stepping: ramp all independent sources from 0 to full value.
  trial.assign(x.size(), 0.0);
  ok = true;
  for (int k = 1; k <= options.source_steps; ++k) {
    ctx.source_scale =
        static_cast<double>(k) / static_cast<double>(options.source_steps);
    if (!attempt(trial)) {
      ok = false;
      break;
    }
  }
  ctx.source_scale = 1.0;
  note("source_stepping", ok);
  if (!ok) {
    SolverDiagnostics d;
    if (diag != nullptr) d = *diag;
    d.analysis = "dc operating point";
    d.determinism = to_string(options.determinism);
    d.failure = std::string("all homotopies failed (last: ") +
                numeric::to_string(last.failure) + ")";
    d.iterations = last.iterations;
    d.total_iterations = total_iterations;
    d.worst_residual = last.worst_residual;
    d.iteration_trace = last.trace;
    if (last.worst_unknown != numeric::kNoUnknown) {
      d.worst_node = system.unknown_label(last.worst_unknown);
      d.worst_device = system.blame_device(last_x, last.worst_unknown);
    }
    fill_solver_stats(d, *nopt.solver_instance);
    if (diag != nullptr) *diag = d;
    throw ConvergenceError("dc operating point", std::move(d));
  }
  x = trial;
  return total_iterations;
}

std::vector<std::string> signal_names(const Circuit& circuit) {
  std::vector<std::string> names = circuit.unknown_labels();
  for (const auto& device : circuit.devices()) {
    for (const auto& [probe_name, value] : device->probes()) {
      (void)value;
      names.push_back(probe_name);
    }
  }
  return names;
}

void sample_row_into(const Circuit& circuit, const std::vector<double>& x,
                     std::vector<double>& row) {
  row.assign(x.begin(), x.end());
  for (const auto& device : circuit.devices()) {
    device->probe_values(row);
  }
}

}  // namespace detail

OpResult dc_operating_point(Circuit& circuit, const SimOptions& options) {
  circuit.prepare();
  LoadContext ctx;
  numeric::LinearSolver solver(options.solver_config());
  std::vector<double> x(circuit.unknown_count(), 0.0);
  SolverDiagnostics diag;
  diag.analysis = "dc operating point";
  diag.determinism = to_string(options.determinism);
  const util::BudgetTimer budget(options.budget);
  const int iterations =
      detail::solve_dc(circuit, options, ctx, x, &solver, &diag, &budget);
  // Let hysteretic devices settle their quasistatic state, re-solving until
  // the (state, solution) pair is self-consistent.
  constexpr int kMaxStateIterations = 20;
  for (int i = 0; i < kMaxStateIterations; ++i) {
    bool changed = false;
    for (const auto& device : circuit.devices()) {
      changed = device->update_quasistatic_state(x) || changed;
    }
    if (!changed) break;
    detail::solve_dc(circuit, options, ctx, x, &solver, &diag, &budget);
  }
  for (const auto& device : circuit.devices()) device->init_state(x);

  OpResult result;
  result.x = std::move(x);
  result.labels = circuit.unknown_labels();
  result.iterations = iterations;
  detail::fill_solver_stats(diag, solver);
  result.diagnostics = std::move(diag);
  return result;
}

}  // namespace softfet::sim
