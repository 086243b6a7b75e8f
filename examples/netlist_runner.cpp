// softfet-spice: run a SPICE-style netlist through the softfet simulator.
//
//   $ ./netlist_runner circuit.sp [--csv out.csv] [--signals v(out),i(vdd)]
//                      [--timeout seconds]
//
// --timeout puts a wall-clock budget on every analysis; a transient that
// trips it still writes the partial waveform to --csv, prints a one-line
// diagnostic, and exits with code 3 (130 when stopped by Ctrl-C, 143 by
// SIGTERM). The first SIGINT/SIGTERM requests a cooperative stop — the
// partial waveform still flushes — and a second signal hard-exits.
//
// Supports .op, .dc, .tran and .ac (driven by the netlist's directives
// through netlist::run: .op runs when asked for, or when the deck has no
// other analysis), the element cards R C L V I E G S D M P X, .model cards
// (nmos/pmos/ptm/d/sw), .param expressions, and .subckt hierarchy.
// --signals picks the CSV columns of every sweep; for .ac, v(x) picks
// mag(v(x)). The 'P' element is the PTM hysteretic resistor, so Soft-FET
// circuits are plain netlists:
//
//   * soft-fet inverter
//   .model vo2 ptm rins=500k rmet=5k vimt=0.4 vmit=0.3 tptm=10p
//   .model nch nmos
//   .model pch pmos
//   Vdd vdd 0 1
//   Vin in 0 PWL(0 1 100p 1 130p 0)
//   P1 in g vo2
//   MP out g vdd vdd pch W=240n L=40n
//   MN out g 0 0 nch W=120n L=40n
//   Cl out 0 2f
//   .tran 1p 1n
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "netlist/run.hpp"
#include "util/budget.hpp"
#include "util/build_info.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

using namespace softfet;
using netlist::Analysis;

// Distinct exit codes so scripts can tell "netlist/convergence problem"
// from "ran out of budget" from "user/service-manager interrupted"
// (128 + signo: 130 for SIGINT, 143 for SIGTERM).
constexpr int kExitBudget = 3;
constexpr int kExitCancel = 130;

[[nodiscard]] int exit_code_for(util::BudgetStop stop) {
  return stop == util::BudgetStop::kCancel ? util::cancel_exit_code(kExitCancel)
                                           : kExitBudget;
}

/// The axis plus the `wanted` columns of one sweep as CSV.
void write_csv(const std::string& path, const netlist::AnalysisTable& t,
               const std::vector<std::string>& wanted) {
  const std::vector<std::size_t> selected = t.select(wanted);
  std::vector<std::string> columns{t.axis_name};
  for (const std::size_t i : selected) columns.push_back(t.table.names()[i]);
  std::ofstream file(path);
  if (!file) throw Error("cannot open output file '" + path + "'");
  util::CsvWriter writer(file, columns);
  std::vector<double> values;
  for (std::size_t row = 0; row < t.axis.size(); ++row) {
    values.assign(1, t.axis[row]);
    for (const std::size_t i : selected) {
      values.push_back(t.table.column(i)[row]);
    }
    writer.write_row(values);
  }
  if (t.kind == Analysis::kAc) {
    std::printf("wrote %zu rows to %s\n", t.axis.size(), path.c_str());
  } else {
    std::printf("wrote %zu rows x %zu signals to %s\n", t.axis.size(),
                selected.size(), path.c_str());
  }
}

constexpr const char* kUsage =
    "usage: netlist_runner <file.sp> [--csv out.csv] [--signals a,b,...] "
    "[--timeout seconds] [--version]\n";

int run(int argc, char** argv) {
  std::string netlist_path;
  std::string csv_path;
  std::vector<std::string> signals;
  double timeout_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--signals" && i + 1 < argc) {
      signals = util::split(argv[++i], ",");
    } else if (arg == "--timeout" && i + 1 < argc) {
      const auto parsed = util::parse_spice_number(argv[++i]);
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr, "--timeout needs a positive number of seconds\n");
        return 2;
      }
      timeout_seconds = *parsed;
    } else if (arg == "--version") {
      std::printf("%s\n", util::build_info_line().c_str());
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      netlist_path = arg;
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (netlist_path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  util::install_signal_cancel();
  sim::SimOptions options;
  options.budget.max_wall_seconds = timeout_seconds;
  options.budget.cancel = &util::sigint_cancel_token();

  auto net = netlist::compile_netlist_file(netlist_path);
  if (!net.title.empty()) std::printf("* %s\n", net.title.c_str());
  net.circuit->prepare();
  std::printf("circuit: %zu nodes, %zu devices, %zu unknowns\n",
              net.circuit->node_count(), net.circuit->devices().size(),
              net.circuit->unknown_count());

  int exit_code = 0;
  netlist::run(net, options, [&](const netlist::AnalysisTable& t) {
    switch (t.kind) {
      case Analysis::kOp:
        std::printf("\n.op results:\n");
        for (std::size_t i = 0; i < t.table.columns(); ++i) {
          std::printf("  %-20s %+.6g\n", t.table.names()[i].c_str(),
                      t.table.column(i)[0]);
        }
        return;
      case Analysis::kDc:
        std::printf("\n.dc sweep of %s: %zu points\n", t.axis_name.c_str(),
                    t.axis.size());
        break;
      case Analysis::kTran:
        std::printf("\n.tran to %g s: %zu accepted steps, %zu rejected, "
                    "%zu Newton iterations, %zu PTM events\n",
                    net.tran->tstop, t.tran->accepted_steps,
                    t.tran->rejected_steps, t.tran->newton_iterations,
                    t.tran->event_count);
        break;
      case Analysis::kAc:
        std::printf("\n.ac sweep: %zu frequency points\n", t.axis.size());
        break;
    }
    if (!csv_path.empty() && !t.axis.empty()) write_csv(csv_path, t, signals);
    if (t.tran != nullptr && t.tran->truncated) {
      // Partial CSV (if any) is already on disk; one line says why and how
      // far the run got, then the budget-specific exit code.
      const double reached = t.axis.empty() ? 0.0 : t.axis.back();
      std::fprintf(stderr, "budget stop: %s at t=%g s of %g s (%s)\n",
                   util::to_string(t.tran->stop_reason), reached,
                   net.tran->tstop, t.tran->diagnostics.summary().c_str());
      exit_code = exit_code_for(t.tran->stop_reason);
    }
    if (!t.measures.empty()) {
      std::printf("\n.measure results:\n");
      for (const auto& m : t.measures) {
        std::printf("  %-16s = %.6g\n", m.name.c_str(), m.value);
      }
    }
  });
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // One clean diagnostic line per failure class, nonzero exit. ParseError
  // carries the netlist line; ConvergenceError carries the structured
  // solver diagnostics (worst node, offending device, time, attempts)
  // already rendered into its what().
  try {
    return run(argc, argv);
  } catch (const softfet::ParseError& e) {
    // what() already carries the "line N:" prefix; line() stays available
    // for callers that want the number on its own.
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  } catch (const softfet::BudgetExceededError& e) {
    // A budget stop outside the transient (e.g. the .op phase) surfaces as
    // a throw; same one-line contract and exit codes as the truncated path.
    std::fprintf(stderr, "budget stop: %s\n", e.what());
    return exit_code_for(e.stop());
  } catch (const softfet::ConvergenceError& e) {
    std::fprintf(stderr, "convergence error: %s\n", e.what());
    return 1;
  } catch (const softfet::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 1;
  }
}
