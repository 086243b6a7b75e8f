#include "core/case_studies.hpp"

#include <algorithm>

#include "core/failure.hpp"
#include "measure/metrics.hpp"
#include "measure/waveform.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace softfet::core {

using measure::CrossDirection;
using measure::Waveform;

namespace {

/// Run a case-study leg; when classify_failure() grants a rerun, run it
/// once more under tightened options and flag the outcome. Any other
/// failure, and a second one, propagates — unlike the batch sweeps, a case
/// study has nothing meaningful to report without both legs.
template <typename Runner>
[[nodiscard]] auto with_retry(const Runner& runner,
                              const sim::SimOptions& options) {
  try {
    return runner(options);
  } catch (const std::exception& e) {
    if (classify_failure(e) != FailureClass::kRerun) throw;
    util::log_warn(std::string("case study: retrying with tightened "
                               "options after: ") +
                   e.what());
    auto outcome = runner(tightened_options(options));
    outcome.retried = true;
    return outcome;
  }
}

[[nodiscard]] PowerGateOutcome run_power_gate_once(
    const cells::PowerGateSpec& spec, const sim::SimOptions& options) {
  cells::PowerGateTestbench tb = cells::make_power_gate_testbench(spec);
  PowerGateOutcome out;
  out.tran = sim::run_transient(tb.circuit, tb.suggested_tstop, options);
  require_complete(out.tran, "power gate study");

  const Waveform rail = Waveform::from_tran(out.tran, tb.rail_signal);
  const Waveform vvdd = Waveform::from_tran(out.tran, tb.virtual_rail_signal);
  const Waveform i_header =
      Waveform::from_tran(out.tran, tb.header_current_signal);

  // The pre-wake rail sits slightly below VCC (neighbour IR drop); droop is
  // measured from that settled level.
  const double settled = rail.value(0.9 * tb.enable_delay);
  out.droop = measure::worst_droop(rail.window(tb.enable_delay,
                                               out.tran.time.back()),
                                   settled);
  out.peak_current = i_header.peak_magnitude();
  out.max_didt = i_header.max_abs_derivative(1e-12);

  const Waveform gate = Waveform::from_tran(out.tran, tb.gate_signal);
  const double t_enable =
      gate.first_crossing(0.5 * tb.vcc, CrossDirection::kFalling, 0.0);
  if (vvdd.has_crossing(0.95 * settled, CrossDirection::kRising, t_enable)) {
    out.wake_time =
        vvdd.first_crossing(0.95 * settled, CrossDirection::kRising, t_enable) -
        t_enable;
  } else {
    out.wake_time = out.tran.time.back() - t_enable;  // did not finish
  }
  return out;
}

[[nodiscard]] IoBufferOutcome run_io_buffer_once(
    const cells::IoBufferSpec& spec, const sim::SimOptions& options) {
  cells::IoBufferTestbench tb = cells::make_io_buffer_testbench(spec);
  IoBufferOutcome out;
  out.tran = sim::run_transient(tb.circuit, tb.suggested_tstop, options);
  require_complete(out.tran, "io buffer study");

  const Waveform vddi = Waveform::from_tran(out.tran, tb.vddi_signal);
  const Waveform vssi = Waveform::from_tran(out.tran, tb.vssi_signal);
  out.vcc_bounce = measure::worst_bounce(vddi, spec.vcc);
  out.gnd_bounce = measure::worst_bounce(vssi, 0.0);
  out.ssn = std::max(out.vcc_bounce, out.gnd_bounce);

  const Waveform icc =
      Waveform::from_tran(out.tran, tb.supply_current_signal).scaled(-1.0);
  out.peak_current = icc.peak_magnitude();

  const Waveform vin = Waveform::from_tran(out.tran, "v(in)");
  const Waveform pad = Waveform::from_tran(out.tran, tb.pad_signal);
  const double t_in = vin.first_crossing(
      0.5 * spec.vcc, CrossDirection::kEither, 0.9 * tb.input_delay);
  out.pad_delay =
      pad.first_crossing(0.5 * spec.vcc, CrossDirection::kEither, t_in) - t_in;
  return out;
}

}  // namespace

PowerGateStudy run_power_gate_study(cells::PowerGateSpec spec,
                                    const sim::SimOptions& options) {
  PowerGateStudy study;
  const auto ptm = spec.ptm ? *spec.ptm
                            : cells::PowerGateSpec::default_header_ptm();
  spec.ptm.reset();
  study.baseline = with_retry(
      [&](const sim::SimOptions& o) { return run_power_gate_once(spec, o); },
      options);
  spec.ptm = ptm;
  study.soft = with_retry(
      [&](const sim::SimOptions& o) { return run_power_gate_once(spec, o); },
      options);
  return study;
}

IoBufferStudy run_io_buffer_study(cells::IoBufferSpec spec,
                                  const sim::SimOptions& options) {
  IoBufferStudy study;
  const auto ptm =
      spec.ptm ? *spec.ptm : cells::IoBufferSpec::default_driver_ptm();
  spec.ptm.reset();
  study.baseline = with_retry(
      [&](const sim::SimOptions& o) { return run_io_buffer_once(spec, o); },
      options);
  spec.ptm = ptm;
  study.soft = with_retry(
      [&](const sim::SimOptions& o) { return run_io_buffer_once(spec, o); },
      options);
  return study;
}

}  // namespace softfet::core
