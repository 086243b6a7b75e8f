#include "sim/mna_system.hpp"

#include <cmath>

#include "util/error.hpp"

namespace softfet::sim {

MnaSystem::MnaSystem(Circuit& circuit, const SimOptions& options,
                     LoadContext& context)
    : circuit_(circuit),
      context_(context),
      gmin_(options.gmin),
      scales_{&options, circuit.node_count() - 1} {
  if (!circuit.prepared()) {
    throw InvalidCircuitError("MnaSystem: circuit not prepared");
  }
}

std::size_t MnaSystem::size() const { return circuit_.unknown_count(); }

void MnaSystem::load(const std::vector<double>& x,
                     numeric::SparseMatrix& jacobian,
                     std::vector<double>& residual) {
  Stamper stamper(jacobian, residual);
  for (const auto& device : circuit_.devices()) {
    device->load(x, stamper, context_);
  }
  stamp_gmin_shunts(stamper, x, scales_.voltage_unknowns, gmin_);
}

void stamp_gmin_shunts(Stamper& stamper, const std::vector<double>& x,
                       std::size_t voltage_unknowns, double gmin) {
  for (std::size_t i = 0; i < voltage_unknowns; ++i) {
    const int unknown = static_cast<int>(i);
    stamper.add_residual(unknown, gmin * x[i]);
    stamper.add_jacobian(unknown, unknown, gmin);
  }
}

double MnaSystem::abstol(std::size_t unknown) const {
  return scales_.abstol(unknown);
}

double MnaSystem::max_step(std::size_t unknown) const {
  return scales_.max_step(unknown);
}

std::string MnaSystem::unknown_label(std::size_t unknown) const {
  const auto& labels = circuit_.unknown_labels();
  if (unknown < labels.size()) return labels[unknown];
  return NonlinearSystem::unknown_label(unknown);
}

std::string MnaSystem::blame_device(const std::vector<double>& x,
                                    std::size_t unknown) const {
  const std::size_t n = circuit_.unknown_count();
  if (x.size() != n) return "";
  numeric::SparseMatrix jacobian(n);
  std::vector<double> residual(n, 0.0);
  std::string best;
  double best_magnitude = 0.0;
  for (const auto& device : circuit_.devices()) {
    jacobian.reset(n);
    std::fill(residual.begin(), residual.end(), 0.0);
    Stamper stamper(jacobian, residual);
    device->load(x, stamper, context_);
    // A device emitting NaN/Inf anywhere is the offender regardless of row.
    for (const double r : residual) {
      if (!std::isfinite(r)) return device->name();
    }
    for (std::size_t row = 0; row < n; ++row) {
      for (const auto& e : jacobian.row(row)) {
        if (!std::isfinite(e.value)) return device->name();
      }
    }
    if (unknown < n && std::fabs(residual[unknown]) > best_magnitude) {
      best_magnitude = std::fabs(residual[unknown]);
      best = device->name();
    }
  }
  return best;
}

}  // namespace softfet::sim
