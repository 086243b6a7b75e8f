#include "devices/mosfet.hpp"

#include "sim/ac.hpp"
#include <cmath>

#include "devices/common.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace softfet::devices {

namespace {

// ln(1 + e^x), overflow-safe.
[[nodiscard]] double softplus(double x) {
  if (x > 30.0) return x + std::exp(-x);  // log1p(e^-x) ~ e^-x
  return std::log1p(std::exp(x));
}

// d softplus / dx = logistic(x), overflow-safe.
[[nodiscard]] double logistic(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

// Smoothing temperature of the square-law cutoff softening [V].
constexpr double kSmooth = 5e-3;

/// Smoothed Shichman-Hodges Level-1, forward mode (vds >= 0). Hard cutoffs
/// are softened over a few mV so Newton sees continuous derivatives.
[[nodiscard]] MosOperatingPoint evaluate_square_law(const MosfetModel& m,
                                                    const MosfetDims& dims,
                                                    double vgs, double vds) {
  // Smooth overdrive: vov = softplus((vgs - vt0)/kSmooth)*kSmooth.
  const double a = (vgs - m.vt0) / kSmooth;
  const double vov = kSmooth * softplus(a);
  const double dvov = logistic(a);
  const double b = (vov - vds) / kSmooth;
  const double beta = m.kp * (dims.w / dims.l) * dims.m;

  // Smooth min(vds, vov): vdse = vov - kSmooth*softplus((vov - vds)/kSmooth).
  const double sg_b = logistic(b);
  const double vdse = vov - kSmooth * softplus(b);
  const double dvdse_dvov = 1.0 - sg_b;
  const double dvdse_dvds = sg_b;

  // I = beta * (vov - vdse/2) * vdse * (1 + lambda*vds).
  const double clm = 1.0 + m.lambda * vds;
  const double core = (vov - 0.5 * vdse) * vdse;
  const double dcore_dvov = vdse + (vov - vdse) * dvdse_dvov;
  const double dcore_dvds = (vov - vdse) * dvdse_dvds;

  MosOperatingPoint op;
  op.id = beta * core * clm;
  op.gm = beta * clm * dcore_dvov * dvov;
  op.gds = beta * (clm * dcore_dvds + core * m.lambda);
  return op;
}

/// Forward-mode evaluation, requires vds >= 0.
[[nodiscard]] MosOperatingPoint evaluate_forward(const MosfetModel& m,
                                                 const MosfetDims& dims,
                                                 double vgs, double vds) {
  if (m.level == MosfetLevel::kSquareLaw) {
    return evaluate_square_law(m, dims, vgs, vds);
  }
  const double nvt2 = 2.0 * m.n * m.v_thermal;
  const double af = (vgs - m.vt0) / nvt2;
  const double ar = (vgs - m.vt0 - m.n * vds) / nvt2;
  const double lf = softplus(af);
  const double lr = softplus(ar);
  const double sf = logistic(af);
  const double sr = logistic(ar);
  const double i_s =
      2.0 * m.n * m.kp * (dims.w / dims.l) * dims.m * m.v_thermal * m.v_thermal;

  const double base = lf * lf - lr * lr;
  const double dbase_dvgs = 2.0 * (lf * sf - lr * sr) / nvt2;
  const double dbase_dvds = 2.0 * lr * sr / (2.0 * m.v_thermal);  // -d(lr^2)/dvds

  const double clm = 1.0 + m.lambda * vds;

  // Smooth gate overdrive for the mobility term: ~ (vgs - vt0) when on, ~0 off.
  const double vov = nvt2 * lf;
  const double dvov_dvgs = sf;
  const double mob = 1.0 / (1.0 + m.theta * vov);
  const double dmob_dvgs = -m.theta * dvov_dvgs * mob * mob;

  MosOperatingPoint op;
  op.id = i_s * base * clm * mob;
  op.gm = i_s * clm * (mob * dbase_dvgs + base * dmob_dvgs);
  op.gds = i_s * mob * (base * m.lambda + clm * dbase_dvds);
  return op;
}

}  // namespace

MosOperatingPoint mosfet_evaluate(const MosfetModel& model,
                                  const MosfetDims& dims, double vgs,
                                  double vds) {
  if (vds >= 0.0) return evaluate_forward(model, dims, vgs, vds);
  // Source/drain exchange: id(vgs, vds) = -id'(vgs - vds, -vds).
  const MosOperatingPoint fwd = evaluate_forward(model, dims, vgs - vds, -vds);
  return {.id = -fwd.id, .gm = -fwd.gm, .gds = fwd.gm + fwd.gds};
}

Mosfet::Mosfet(std::string name, sim::NodeId drain, sim::NodeId gate,
               sim::NodeId source, sim::NodeId bulk, const MosfetModel& model,
               const MosfetDims& dims)
    : Device(std::move(name)), d_(drain), g_(gate), s_(source), b_(bulk),
      model_(model), dims_(dims) {
  if (!(dims.w > 0.0) || !(dims.l > 0.0) || !(dims.m > 0.0)) {
    throw InvalidCircuitError("mosfet " + this->name() +
                              ": dimensions must be positive");
  }
  probe_name_ = "id(" + util::to_lower(this->name()) + ")";
}

double Mosfet::gate_capacitance() const noexcept {
  const double c_half = 0.5 * model_.cox * dims_.w * dims_.l;
  const double c_ov = model_.cov * dims_.w;
  return 2.0 * (c_half + c_ov) * dims_.m;
}

void Mosfet::setup(sim::Circuit& circuit) {
  ud_ = circuit.node_unknown(d_);
  ug_ = circuit.node_unknown(g_);
  us_ = circuit.node_unknown(s_);
  ub_ = circuit.node_unknown(b_);

  const double c_g = (0.5 * model_.cox * dims_.w * dims_.l +
                      model_.cov * dims_.w) * dims_.m;
  const double c_j = model_.cj * dims_.w * dims_.m;
  cgs_ = CapBranch{{}, ug_, us_, c_g};
  cgd_ = CapBranch{{}, ug_, ud_, c_g};
  cdb_ = CapBranch{{}, ud_, ub_, c_j};
  csb_ = CapBranch{{}, us_, ub_, c_j};
}

double Mosfet::channel_current(const std::vector<double>& x,
                               MosOperatingPoint* op) const {
  const double vd = voltage_of(x, ud_);
  const double vg = voltage_of(x, ug_);
  const double vs = voltage_of(x, us_);
  const double sign = (model_.polarity == MosPolarity::kNmos) ? 1.0 : -1.0;
  const MosOperatingPoint eq =
      mosfet_evaluate(model_, dims_, sign * (vg - vs), sign * (vd - vs));
  if (op != nullptr) *op = eq;
  return sign * eq.id;
}

void Mosfet::stamp_cap(CapBranch& cap, const std::vector<double>& x,
                       sim::Stamper& stamper,
                       const sim::LoadContext& ctx) const {
  const double q =
      cap.c * (voltage_of(x, cap.ua) - voltage_of(x, cap.ub));
  const double i = cap.companion.current(q, ctx);
  const double geq = sim::CompanionCap::scale(ctx) * cap.c;
  stamper.add_residual(cap.ua, i);
  stamper.add_residual(cap.ub, -i);
  stamper.add_jacobian(cap.ua, cap.ua, geq);
  stamper.add_jacobian(cap.ub, cap.ub, geq);
  stamper.add_jacobian(cap.ua, cap.ub, -geq);
  stamper.add_jacobian(cap.ub, cap.ua, -geq);
}

void Mosfet::load(const std::vector<double>& x, sim::Stamper& stamper,
                  const sim::LoadContext& ctx) {
  MosOperatingPoint eq;
  const double id = channel_current(x, &eq);

  // With v_eq = sign*(v - vs) the chain rule gives polarity-independent
  // partials: d id / d vg = gm, d id / d vd = gds, d id / d vs = -(gm+gds).
  const double gm = eq.gm;
  const double gds = eq.gds;

  stamper.add_residual(ud_, id);
  stamper.add_residual(us_, -id);
  stamper.add_jacobian(ud_, ug_, gm);
  stamper.add_jacobian(ud_, ud_, gds);
  stamper.add_jacobian(ud_, us_, -(gm + gds));
  stamper.add_jacobian(us_, ug_, -gm);
  stamper.add_jacobian(us_, ud_, -gds);
  stamper.add_jacobian(us_, us_, gm + gds);

  if (ctx.mode == sim::AnalysisMode::kTransient) {
    stamp_cap(cgs_, x, stamper, ctx);
    stamp_cap(cgd_, x, stamper, ctx);
    stamp_cap(cdb_, x, stamper, ctx);
    stamp_cap(csb_, x, stamper, ctx);
  }
}

void Mosfet::load_ac(const std::vector<double>& x_op, sim::AcStamper& ac,
                     double omega) {
  MosOperatingPoint eq;
  (void)channel_current(x_op, &eq);
  // Same polarity-independent partials as the transient Jacobian.
  ac.add_matrix(ud_, ug_, eq.gm);
  ac.add_matrix(ud_, ud_, eq.gds);
  ac.add_matrix(ud_, us_, -(eq.gm + eq.gds));
  ac.add_matrix(us_, ug_, -eq.gm);
  ac.add_matrix(us_, ud_, -eq.gds);
  ac.add_matrix(us_, us_, eq.gm + eq.gds);
  for (const CapBranch* cap : {&cgs_, &cgd_, &cdb_, &csb_}) {
    ac.add_admittance(cap->ua, cap->ub, numeric::Complex(0.0, omega * cap->c));
  }
}

void Mosfet::init_state(const std::vector<double>& x_op) {
  const auto init_cap = [&](CapBranch& cap) {
    cap.companion.init(cap.c *
                       (voltage_of(x_op, cap.ua) - voltage_of(x_op, cap.ub)));
  };
  init_cap(cgs_);
  init_cap(cgd_);
  init_cap(cdb_);
  init_cap(csb_);
  last_id_ = channel_current(x_op);
}

void Mosfet::accept_step(const std::vector<double>& x,
                         const sim::LoadContext& ctx) {
  const auto accept_cap = [&](CapBranch& cap) {
    cap.companion.accept(
        cap.c * (voltage_of(x, cap.ua) - voltage_of(x, cap.ub)), ctx);
  };
  accept_cap(cgs_);
  accept_cap(cgd_);
  accept_cap(cdb_);
  accept_cap(csb_);
  last_id_ = channel_current(x);
}

std::vector<sim::Probe> Mosfet::probes() const {
  return {{probe_name_, last_id_}};
}

}  // namespace softfet::devices
