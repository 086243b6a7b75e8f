#include "devices/ptm.hpp"

#include "sim/ac.hpp"
#include <algorithm>
#include <cmath>

#include "devices/common.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace softfet::devices {

namespace {
// Tolerance band so a step that lands exactly on a threshold (event cut)
// triggers the flip.
constexpr double kThresholdSlack = 1e-9;
}  // namespace

void PtmParams::validate() const {
  if (!(r_ins > r_met) || !(r_met > 0.0)) {
    throw InvalidCircuitError("ptm: need r_ins > r_met > 0");
  }
  if (!(v_imt > v_mit) || !(v_mit > 0.0)) {
    throw InvalidCircuitError("ptm: need v_imt > v_mit > 0");
  }
  if (!(t_ptm > 0.0)) {
    throw InvalidCircuitError("ptm: t_ptm must be positive");
  }
}

Ptm::Ptm(std::string name, sim::NodeId p, sim::NodeId n,
         const PtmParams& params)
    : Device(std::move(name)), p_(p), n_(n), params_(params) {
  params_.validate();
  log_r_ins_ = std::log(params_.r_ins);
  log_r_met_ = std::log(params_.r_met);
  const std::string lname = util::to_lower(this->name());
  probe_i_ = "i(" + lname + ")";
  probe_r_ = "r(" + lname + ")";
  probe_s_ = "s(" + lname + ")";
}

void Ptm::setup(sim::Circuit& circuit) {
  up_ = circuit.node_unknown(p_);
  un_ = circuit.node_unknown(n_);
}

double Ptm::resistance_at(const PtmParams& params, double s) {
  if (params.law == PtmResistanceLaw::kLinear) {
    return (1.0 - s) * params.r_ins + s * params.r_met;
  }
  const double log_r =
      (1.0 - s) * std::log(params.r_ins) + s * std::log(params.r_met);
  return std::exp(log_r);
}

double Ptm::resistance_cached(double s) const {
  if (params_.law == PtmResistanceLaw::kLinear) {
    return (1.0 - s) * params_.r_ins + s * params_.r_met;
  }
  return std::exp((1.0 - s) * log_r_ins_ + s * log_r_met_);
}

double Ptm::resistance() const noexcept { return resistance_cached(s_); }

double Ptm::voltage_across(const std::vector<double>& x) const {
  return voltage_of(x, up_) - voltage_of(x, un_);
}

double Ptm::projected_phase(double dt) const {
  const double direction = (target_ == PtmPhase::kMetallic) ? 1.0 : -1.0;
  return std::clamp(s_ + direction * dt / params_.t_ptm, 0.0, 1.0);
}

void Ptm::load(const std::vector<double>& x, sim::Stamper& stamper,
               const sim::LoadContext& ctx) {
  const double s_eval = (ctx.mode == sim::AnalysisMode::kTransient)
                            ? projected_phase(ctx.dt)
                            : s_;
  const double g = 1.0 / resistance_cached(s_eval);
  stamper.add_conductance(up_, un_, g, voltage_of(x, up_),
                          voltage_of(x, un_));
}

void Ptm::load_ac(const std::vector<double>& /*x_op*/, sim::AcStamper& ac,
                  double /*omega*/) {
  // Small-signal: the phase is frozen at its quasistatic position.
  ac.add_admittance(up_, un_, 1.0 / resistance());
}

void Ptm::maybe_flip_target(double v) {
  const double mag = std::fabs(v);
  if (target_ == PtmPhase::kInsulating &&
      mag >= params_.v_imt * (1.0 - kThresholdSlack)) {
    target_ = PtmPhase::kMetallic;
    ++imt_count_;
  } else if (target_ == PtmPhase::kMetallic &&
             mag <= params_.v_mit * (1.0 + kThresholdSlack)) {
    target_ = PtmPhase::kInsulating;
    ++mit_count_;
  }
}

void Ptm::init_state(const std::vector<double>& x_op) {
  v_prev_ = voltage_across(x_op);
  last_i_ = v_prev_ / resistance();
}

void Ptm::accept_step(const std::vector<double>& x,
                      const sim::LoadContext& ctx) {
  s_ = projected_phase(ctx.dt);
  const double v = voltage_across(x);
  maybe_flip_target(v);
  v_prev_ = v;
  last_i_ = v / resistance();
}

double Ptm::event_time(const std::vector<double>& x, double t_start,
                       double t_end) const {
  const double v0 = std::fabs(v_prev_);
  const double v1 = std::fabs(voltage_across(x));
  double threshold = 0.0;
  bool crossed = false;
  if (target_ == PtmPhase::kInsulating) {
    threshold = params_.v_imt;
    crossed = v0 < threshold && v1 >= threshold;
  } else {
    threshold = params_.v_mit;
    crossed = v0 > threshold && v1 <= threshold;
  }
  if (!crossed) return sim::kNeverTime;
  const double frac = (threshold - v0) / (v1 - v0);
  return t_start + frac * (t_end - t_start);
}

double Ptm::max_timestep() const {
  const double s_target = (target_ == PtmPhase::kMetallic) ? 1.0 : 0.0;
  if (s_ != s_target) return params_.t_ptm / 5.0;
  return sim::kNeverTime;
}

bool Ptm::update_quasistatic_state(const std::vector<double>& x) {
  const double v = voltage_across(x);
  const double mag = std::fabs(v);
  if (target_ == PtmPhase::kInsulating && mag >= params_.v_imt) {
    target_ = PtmPhase::kMetallic;
    s_ = 1.0;
    ++imt_count_;
    return true;
  }
  if (target_ == PtmPhase::kMetallic && mag <= params_.v_mit) {
    target_ = PtmPhase::kInsulating;
    s_ = 0.0;
    ++mit_count_;
    return true;
  }
  // In DC the phase must sit at its target (no partial transition).
  const double s_target = (target_ == PtmPhase::kMetallic) ? 1.0 : 0.0;
  if (s_ != s_target) {
    s_ = s_target;
    return true;
  }
  return false;
}

std::vector<sim::Probe> Ptm::probes() const {
  return {{probe_i_, last_i_}, {probe_r_, resistance()}, {probe_s_, s_}};
}

}  // namespace softfet::devices
