// The one path from an elaborated netlist to its analyses. It decides
// which analysis cards run, in what order and under which options;
// netlist_runner and the service's netlist job only format what it hands
// them, so both entry points give the same numbers for the same deck.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "netlist/elaborate.hpp"
#include "netlist/measure_eval.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace softfet::netlist {

enum class Analysis { kOp, kDc, kTran, kAc };

/// "op", "dc", "tran" or "ac".
[[nodiscard]] const char* to_string(Analysis analysis);

/// One finished analysis. The references point into run()'s own results
/// and are valid only during the callback.
struct AnalysisTable {
  Analysis kind;
  /// Axis column name: the swept source (dc), "time" (tran), "freq" (ac);
  /// empty for the operating point.
  std::string axis_name;
  /// Axis values, one per table row; empty for the operating point.
  const std::vector<double>& axis;
  /// op: one row, one column per unknown. dc, tran: every unknown and
  /// device probe. ac: `mag(<unknown>)`, |x(f)| of every unknown.
  const sim::SignalTable& table;
  /// tran only: step counters and truncation (a truncated run still hands
  /// its partial waveform over).
  const sim::TranResult* tran = nullptr;
  /// tran only: the `.measure` values, evaluated on a complete run.
  std::vector<MeasureValue> measures = {};

  /// Table columns selected by `wanted` (every column when it is empty),
  /// by case-insensitive name; an ac column `mag(v(x))` is selected by
  /// `v(x)`.
  [[nodiscard]] std::vector<std::size_t> select(
      const std::vector<std::string>& wanted) const;
};

using AnalysisCallback = std::function<void(const AnalysisTable&)>;

/// Run the analyses of `net` under `options` and hand each to `on_table`
/// as it finishes:
///   - `.op` runs when there is an `.op` card, or no `.tran`, `.dc` or
///     `.ac` card;
///   - the order is op, dc, tran, ac;
///   - `.tran` caps the step at 10 x tstep;
///   - after a truncated transient (budget stop or cancel) nothing more
///     runs and no `.measure` is evaluated: the caller reports it from
///     AnalysisTable::tran.
/// Errors (parse, convergence, budget stops outside the transient, and
/// anything `on_table` throws) propagate.
void run(ElaboratedNetlist& net, const sim::SimOptions& options,
         const AnalysisCallback& on_table);

}  // namespace softfet::netlist
