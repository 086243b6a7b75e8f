// DC operating point: the one-lane drive of the lane's OP entry (direct
// Newton, then gmin stepping, then source stepping; step_control.hpp), plus
// the quasistatic settle loop every DC bias point runs.
#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "sim/step_control.hpp"
#include "util/error.hpp"

namespace softfet::sim {

namespace detail {

void fill_solver_stats(SolverDiagnostics& diag,
                       const numeric::LinearSolver& solver) {
  const numeric::LinearSolverStats stats = solver.stats();
  diag.symbolic_analyses = stats.symbolic_analyses;
  diag.refactorizations = stats.refactorizations;
  diag.value_reuses = stats.value_reuses;
  diag.fill_ratio = stats.fill_ratio;
  diag.reordered = stats.reordered;
  diag.krylov_solves = stats.krylov_solves;
  diag.krylov_iterations = stats.krylov_iterations;
  diag.krylov_fallbacks = stats.krylov_fallbacks;
}

namespace {

/// One DC solve on the lane's OP entry from the warm start `x` (the
/// solution out). Returns its Newton iterations; throws when the budget
/// trips or every homotopy fails.
int solve_once(Circuit& circuit, const SimOptions& options,
               std::vector<double>& x, numeric::LinearSolver& solver,
               const util::BudgetTimer& budget, SolverDiagnostics* diag) {
  TranResult out;  // the lane's counters and attempt log
  if (diag != nullptr) out.diagnostics = std::move(*diag);
  out.diagnostics.analysis = "dc operating point";
  out.diagnostics.determinism = to_string(options.determinism);
  TransientLane lane(circuit, options, 0.0, out, budget);
  lane.start_op(x);
  drive(lane, solver);
  if (lane.state() == TransientLane::State::kDone) {
    if (diag != nullptr) *diag = std::move(out.diagnostics);
    x.swap(lane.x_new);
    return static_cast<int>(out.newton_iterations);
  }
  // A budget trip is not a homotopy failure: it blames no solve.
  const bool truncated = lane.state() == TransientLane::State::kTruncated;
  SolverDiagnostics d = truncated ? std::move(out.diagnostics)
                                  : lane.failure_diagnostics();
  if (truncated) {
    d.failure = lane.failure();
    d.total_iterations = static_cast<int>(out.newton_iterations);
  }
  if (diag == nullptr) d.attempts.clear();  // the caller keeps no log
  fill_solver_stats(d, solver);
  if (truncated) {
    throw BudgetExceededError("dc operating point", lane.stop, std::move(d));
  }
  throw ConvergenceError("dc operating point", std::move(d));
}

}  // namespace

int solve_dc(Circuit& circuit, const SimOptions& options,
             std::vector<double>& x, numeric::LinearSolver& solver,
             const util::BudgetTimer& budget, SolverDiagnostics* diag) {
  const int iterations = solve_once(circuit, options, x, solver, budget, diag);
  // Hysteretic devices (PTM) may flip phase at this bias: re-solve until
  // the (state, solution) pair is self-consistent.
  constexpr int kMaxStateIterations = 20;
  for (int i = 0; i < kMaxStateIterations; ++i) {
    bool changed = false;
    for (const auto& device : circuit.devices()) {
      changed = device->update_quasistatic_state(x) || changed;
    }
    if (!changed) break;
    (void)solve_once(circuit, options, x, solver, budget, diag);
  }
  for (const auto& device : circuit.devices()) device->init_state(x);
  return iterations;
}

std::vector<std::string> signal_names(const Circuit& circuit) {
  std::vector<std::string> names = circuit.unknown_labels();
  for (const Device* device : circuit.hooks().probes) {
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
  for (const Device* device : circuit.hooks().probes) {
    device->probe_values(row);
  }
}

OpResult operating_point(Circuit& circuit, const SimOptions& options,
                         const util::BudgetTimer& budget) {
  circuit.prepare();
  numeric::LinearSolver solver(options.solver_config());
  std::vector<double> x(circuit.unknown_count(), 0.0);
  SolverDiagnostics diag;
  const int iterations =
      detail::solve_dc(circuit, options, x, solver, budget, &diag);

  OpResult result;
  result.x = std::move(x);
  result.labels = circuit.unknown_labels();
  result.iterations = iterations;
  detail::fill_solver_stats(diag, solver);
  result.diagnostics = std::move(diag);
  return result;
}

}  // namespace detail

OpResult dc_operating_point(Circuit& circuit, const SimOptions& options) {
  return detail::operating_point(circuit, options,
                                 util::BudgetTimer(options.budget));
}

}  // namespace softfet::sim
