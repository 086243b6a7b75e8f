// DC sweep with solution and quasistatic-state continuation.
#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "util/error.hpp"

namespace softfet::sim {

SweepResult dc_sweep(Circuit& circuit, const std::string& source_name,
                     const std::vector<double>& values,
                     const SimOptions& options) {
  circuit.prepare();
  Device* device = circuit.find_device(source_name);
  if (device == nullptr) {
    throw InvalidCircuitError("dc_sweep: no device named '" + source_name +
                              "'");
  }
  auto* settable = dynamic_cast<DcSettable*>(device);
  if (settable == nullptr) {
    throw InvalidCircuitError("dc_sweep: device '" + source_name +
                              "' is not a sweepable source");
  }

  SweepResult result;
  result.table = SignalTable(detail::signal_names(circuit));
  LoadContext ctx;
  // The sweep re-solves the same circuit at every bias point; one solver
  // keeps the factorization structure cached across the whole sweep.
  numeric::LinearSolver solver(options.solver_config());
  std::vector<double> x(circuit.unknown_count(), 0.0);
  std::vector<double> row;

  for (const double value : values) {
    settable->set_dc(value);
    detail::solve_dc(circuit, options, ctx, x, &solver);

    // Hysteretic devices (PTM) may flip phase at this bias; iterate until
    // the quasistatic state is self-consistent.
    constexpr int kMaxStateIterations = 20;
    for (int i = 0; i < kMaxStateIterations; ++i) {
      bool changed = false;
      for (const auto& dev : circuit.devices()) {
        changed = dev->update_quasistatic_state(x) || changed;
      }
      if (!changed) break;
      detail::solve_dc(circuit, options, ctx, x, &solver);
    }

    for (const auto& dev : circuit.devices()) dev->init_state(x);
    result.axis.push_back(value);
    detail::sample_row_into(circuit, x, row);
    result.table.append_row(row);
  }
  return result;
}

}  // namespace softfet::sim
