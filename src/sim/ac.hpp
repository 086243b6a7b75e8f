// AC small-signal analysis: complex MNA assembled at the DC operating
// point, solved per frequency point.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "numeric/dense_lu.hpp"
#include "sim/circuit.hpp"
#include "sim/options.hpp"

namespace softfet::sim {

/// Assembly target for device AC stamps: direct A·x = b (AC is linear, so
/// there is no residual form; constants go to the right-hand side).
class AcStamper {
 public:
  AcStamper(numeric::ComplexMatrix& matrix, std::vector<numeric::Complex>& rhs)
      : matrix_(matrix), rhs_(rhs) {}

  AcStamper(const AcStamper&) = delete;
  AcStamper& operator=(const AcStamper&) = delete;

  void add_matrix(int row, int col, numeric::Complex value) {
    if (row == kGround || col == kGround) return;
    matrix_(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) +=
        value;
  }

  void add_rhs(int row, numeric::Complex value) {
    if (row == kGround) return;
    rhs_[static_cast<std::size_t>(row)] += value;
  }

  /// Two-terminal admittance y between unknowns a and b.
  void add_admittance(int a, int b, numeric::Complex y) {
    add_matrix(a, a, y);
    add_matrix(b, b, y);
    add_matrix(a, b, -y);
    add_matrix(b, a, -y);
  }

 private:
  numeric::ComplexMatrix& matrix_;
  std::vector<numeric::Complex>& rhs_;
};

/// AC sweep result: complex solution per unknown per frequency.
class AcResult {
 public:
  AcResult(std::vector<std::string> names, std::vector<double> freq)
      : names_(std::move(names)), freq_(std::move(freq)),
        columns_(names_.size()) {}

  [[nodiscard]] const std::vector<double>& freq() const noexcept {
    return freq_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<numeric::Complex>& signal(
      const std::string& name) const;
  /// |x(f)| for one signal.
  [[nodiscard]] std::vector<double> magnitude(const std::string& name) const;
  /// Phase in degrees.
  [[nodiscard]] std::vector<double> phase_deg(const std::string& name) const;

  void append_point(const std::vector<numeric::Complex>& x);

 private:
  std::vector<std::string> names_;
  std::vector<double> freq_;
  std::vector<std::vector<numeric::Complex>> columns_;
};

/// Linearize at the DC operating point and solve at each frequency [Hz].
/// AC magnitudes come from sources' SourceSpec ac values. options.budget
/// bounds the operating point and the sweep together (checked once per
/// frequency point); tripping it throws softfet::BudgetExceededError.
[[nodiscard]] AcResult ac_sweep(Circuit& circuit,
                                const std::vector<double>& frequencies,
                                const SimOptions& options = {});

/// Log-spaced frequency grid: `per_decade` points from f_start to f_stop.
[[nodiscard]] std::vector<double> decade_frequencies(double f_start,
                                                     double f_stop,
                                                     int per_decade);

}  // namespace softfet::sim
