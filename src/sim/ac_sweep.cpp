#include "sim/ac.hpp"

#include <cmath>
#include <numbers>

#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace softfet::sim {

// Default Device::load_ac: no AC contribution. Every conducting element
// overrides this; leaving it virtual-with-default keeps exotic user devices
// compiling until they opt into AC.
void Device::load_ac(const std::vector<double>& x_op, AcStamper& ac,
                     double omega) {
  (void)x_op;
  (void)ac;
  (void)omega;
}

const std::vector<numeric::Complex>& AcResult::signal(
    const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (util::iequals(names_[i], name)) return columns_[i];
  }
  throw Error("AcResult: no signal '" + name + "'");
}

std::vector<double> AcResult::magnitude(const std::string& name) const {
  const auto& column = signal(name);
  std::vector<double> out;
  out.reserve(column.size());
  for (const auto& v : column) out.push_back(std::abs(v));
  return out;
}

std::vector<double> AcResult::phase_deg(const std::string& name) const {
  const auto& column = signal(name);
  std::vector<double> out;
  out.reserve(column.size());
  for (const auto& v : column) {
    out.push_back(std::arg(v) * 180.0 / std::numbers::pi);
  }
  return out;
}

void AcResult::append_point(const std::vector<numeric::Complex>& x) {
  if (x.size() != columns_.size()) throw Error("AcResult: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) columns_[i].push_back(x[i]);
}

std::vector<double> decade_frequencies(double f_start, double f_stop,
                                       int per_decade) {
  if (!(f_start > 0.0) || !(f_stop > f_start) || per_decade < 1) {
    throw Error("decade_frequencies: need 0 < f_start < f_stop, points >= 1");
  }
  std::vector<double> freqs;
  const double step = 1.0 / per_decade;
  for (double e = std::log10(f_start);
       e <= std::log10(f_stop) + 1e-12; e += step) {
    freqs.push_back(std::pow(10.0, e));
  }
  return freqs;
}

AcResult ac_sweep(Circuit& circuit, const std::vector<double>& frequencies,
                  const SimOptions& options) {
  const util::BudgetTimer budget(options.budget);  // bounds OP and sweep
  const OpResult op = detail::operating_point(circuit, options, budget);

  const std::size_t n = circuit.unknown_count();
  const std::size_t voltage_unknowns = circuit.node_count() - 1;
  AcResult result(circuit.unknown_labels(), frequencies);

  numeric::ComplexMatrix matrix(n, n);
  std::vector<numeric::Complex> rhs(n);
  numeric::ComplexLu lu;  // reused: factor() recycles its storage per point
  for (const double f : frequencies) {
    if (const util::BudgetStop stop = budget.check_now();
        stop != util::BudgetStop::kNone) {
      throw BudgetExceededError("ac sweep", stop);
    }
    if (!(f >= 0.0)) throw Error("ac_sweep: negative frequency");
    const double omega = 2.0 * std::numbers::pi * f;
    matrix.set_zero();
    std::fill(rhs.begin(), rhs.end(), numeric::Complex{});
    AcStamper stamper(matrix, rhs);
    for (const auto& device : circuit.devices()) {
      device->load_ac(op.x, stamper, omega);
    }
    for (std::size_t i = 0; i < voltage_unknowns; ++i) {
      matrix(i, i) += kGmin;  // same regularization as DC
    }
    lu.factor(matrix);
    result.append_point(lu.solve(rhs));
  }
  return result;
}

}  // namespace softfet::sim
