#include "netlist/run.hpp"

#include <complex>

#include "sim/ac.hpp"
#include "sim/analyses.hpp"

namespace softfet::netlist {

const char* to_string(Analysis analysis) {
  switch (analysis) {
    case Analysis::kOp: return "op";
    case Analysis::kDc: return "dc";
    case Analysis::kTran: return "tran";
    case Analysis::kAc: return "ac";
  }
  return "?";
}

std::vector<std::size_t> AnalysisTable::select(
    const std::vector<std::string>& wanted) const {
  if (kind != Analysis::kAc) return table.select(wanted);
  std::vector<std::string> magnitudes;
  magnitudes.reserve(wanted.size());
  for (const auto& name : wanted) magnitudes.push_back("mag(" + name + ")");
  return table.select(magnitudes);
}

void run(ElaboratedNetlist& net, const sim::SimOptions& options,
         const AnalysisCallback& on_table) {
  sim::Circuit& circuit = *net.circuit;
  if (net.op || (!net.tran && !net.dc && !net.ac)) {
    const auto op = sim::dc_operating_point(circuit, options);
    sim::SignalTable values(op.labels);
    values.append_row(op.x);
    on_table({Analysis::kOp, "", {}, values});
  }
  if (net.dc) {
    const auto sweep =
        sim::dc_sweep(circuit, net.dc->source, net.dc->points(), options);
    on_table({Analysis::kDc, net.dc->source, sweep.axis, sweep.table});
  }
  if (net.tran) {
    sim::SimOptions tran_options = options;
    if (net.tran->tstep > 0.0) tran_options.dtmax = net.tran->tstep * 10.0;
    const auto tran =
        sim::run_transient(circuit, net.tran->tstop, tran_options);
    AnalysisTable table{Analysis::kTran, "time", tran.time, tran.table, &tran};
    if (!tran.truncated) table.measures = evaluate_measures(net.measures, tran);
    on_table(table);
    if (tran.truncated) return;
  }
  if (net.ac) {
    const auto ac = sim::ac_sweep(circuit, net.ac->frequencies(), options);
    std::vector<std::string> names;
    std::vector<const std::vector<std::complex<double>>*> columns;
    for (const auto& name : ac.names()) {
      names.push_back("mag(" + name + ")");
      columns.push_back(&ac.signal(name));
    }
    sim::SignalTable magnitudes(std::move(names));
    std::vector<double> row(columns.size());
    for (std::size_t point = 0; point < ac.freq().size(); ++point) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] = std::abs((*columns[i])[point]);
      }
      magnitudes.append_row(row);
    }
    on_table({Analysis::kAc, "freq", ac.freq(), magnitudes});
  }
}

}  // namespace softfet::netlist
