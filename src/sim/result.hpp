// Analysis result containers: a generic signal table plus per-analysis
// wrappers (operating point, DC sweep, transient).
#pragma once

#include <string>
#include <vector>

#include "util/budget.hpp"
#include "util/error.hpp"

namespace softfet::sim {

/// Column-oriented table of named signals sampled over a common axis
/// (time for transients, the swept value for DC sweeps). Names match
/// case-insensitively through an index built once with the table; where two
/// columns share a name, lookups by name return the first.
class SignalTable {
 public:
  SignalTable() = default;
  explicit SignalTable(std::vector<std::string> names);

  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] bool has(const std::string& name) const;

  /// Samples of one signal; throws softfet::Error for unknown names
  /// (listing close candidates).
  [[nodiscard]] const std::vector<double>& signal(const std::string& name) const;

  /// Indices of the columns named in `wanted` (case-insensitive), in table
  /// order; every column when `wanted` is empty.
  [[nodiscard]] std::vector<std::size_t> select(
      const std::vector<std::string>& wanted) const;

  /// Samples of column `index` (an index from select()).
  [[nodiscard]] const std::vector<double>& column(std::size_t index) const {
    return columns_[index];
  }

  /// Append one sample row (size must equal names().size()).
  void append_row(const std::vector<double>& row);

  [[nodiscard]] std::size_t rows() const noexcept {
    return columns_.empty() ? 0 : columns_.front().size();
  }
  [[nodiscard]] std::size_t columns() const noexcept { return names_.size(); }

 private:
  /// Index of the first column named `name`, or columns() when none is.
  [[nodiscard]] std::size_t find(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;
  /// Column indices sorted by case-insensitive name, ties by index.
  std::vector<std::size_t> by_name_;
};

/// DC operating point.
struct OpResult {
  std::vector<double> x;                 ///< raw unknown vector
  std::vector<std::string> labels;       ///< unknown labels ("v(out)", ...)
  int iterations = 0;
  /// Homotopy strategies the solve had to escalate through (direct Newton,
  /// gmin stepping, source stepping); empty attempts = clean direct solve.
  SolverDiagnostics diagnostics;
  /// Convenience: value of a labelled unknown, e.g. voltage("out").
  [[nodiscard]] double voltage(const std::string& node) const;
  [[nodiscard]] double unknown(const std::string& label) const;
};

/// DC sweep: `axis` holds the swept values.
struct SweepResult {
  std::vector<double> axis;
  SignalTable table;
};

/// Transient: `time` holds accepted step times (non-uniform).
struct TranResult {
  std::vector<double> time;
  SignalTable table;
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_iterations = 0;
  std::size_t event_count = 0;  ///< discrete device events (PTM transitions)
  /// Steps accepted only thanks to an escalated recovery rung (predictor
  /// reset, gmin ramp, source ramp) — dt shrinks alone don't count.
  std::size_t recovered_steps = 0;
  /// Recovery-attempt log and last-failure context (populated even when the
  /// run ultimately succeeds; attempts empty = no Newton trouble at all).
  SolverDiagnostics diagnostics;
  /// True when the run stopped early because SimOptions::budget tripped (or
  /// a cancel was requested). `time`/`table` then hold the partial waveform
  /// up to the stop; `stop_reason` and `diagnostics.failure` say why.
  bool truncated = false;
  util::BudgetStop stop_reason = util::BudgetStop::kNone;
};

}  // namespace softfet::sim
