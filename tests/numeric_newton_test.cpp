// The engine's one Newton iteration, driven through the DC operating point:
// convergence on small residual systems, step limiting, the non-finite and
// singular failure paths, reported non-convergence, and the homotopy rungs
// that rescue a failed direct solve.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "devices/diode.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "fault_injection.hpp"
#include "numeric/newton.hpp"
#include "sim/analyses.hpp"
#include "util/error.hpp"

namespace sd = softfet::devices;
namespace sn = softfet::numeric;
namespace ss = softfet::sim;
using softfet::testing::FaultMode;
using softfet::testing::make_fault_bench;

namespace {

/// F(x) = 0 as a device. Its unknowns hold x - guess, so the operating
/// point's zero start is a Newton start from `guess`. Branch unknowns (no
/// `nodes`) get iabstol and no step clamp; node unknowns get vabstol, the
/// v_max_step clamp and a gmin shunt.
class Residual final : public ss::Device {
 public:
  using Function = std::function<void(const std::vector<double>& x,
                                      std::vector<double>& f,
                                      std::vector<std::vector<double>>& j)>;

  Residual(std::vector<double> guess, std::vector<ss::NodeId> nodes,
           Function function)
      : Device("FX"),
        guess_(std::move(guess)),
        nodes_(std::move(nodes)),
        function_(std::move(function)) {}

  void setup(ss::Circuit& circuit) override {
    unknowns_.clear();
    for (std::size_t i = 0; i < guess_.size(); ++i) {
      unknowns_.push_back(nodes_.empty()
                              ? circuit.claim_branch_unknown(
                                    std::string("x").append(std::to_string(i)))
                              : circuit.node_unknown(nodes_[i]));
    }
  }

  void load(const std::vector<double>& v, ss::Stamper& stamper,
            const ss::LoadContext& /*ctx*/) override {
    const std::size_t n = unknowns_.size();
    const std::vector<double> x = solution(v);
    std::vector<double> f(n, 0.0);
    std::vector<std::vector<double>> j(n, std::vector<double>(n, 0.0));
    function_(x, f, j);
    for (std::size_t r = 0; r < n; ++r) {
      stamper.add_residual(unknowns_[r], f[r]);
      for (std::size_t c = 0; c < n; ++c) {
        stamper.add_jacobian(unknowns_[r], unknowns_[c], j[r][c]);
      }
    }
  }

  /// x from the unknown vector `v`.
  [[nodiscard]] std::vector<double> solution(
      const std::vector<double>& v) const {
    std::vector<double> x(unknowns_.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = v[static_cast<std::size_t>(unknowns_[i])] + guess_[i];
    }
    return x;
  }

 private:
  std::vector<double> guess_;
  std::vector<ss::NodeId> nodes_;
  Function function_;
  std::vector<int> unknowns_;
};

// F(x) = x^2 - 4 = 0, scalar.
void quadratic(const std::vector<double>& x, std::vector<double>& f,
               std::vector<std::vector<double>>& j) {
  f[0] = x[0] * x[0] - 4.0;
  j[0][0] = 2.0 * x[0];
}

// Coupled 2-D system: x0 + x1 = 3, x0 * x1 = 2 -> (1,2) or (2,1).
void coupled(const std::vector<double>& x, std::vector<double>& f,
             std::vector<std::vector<double>>& j) {
  f[0] = x[0] + x[1] - 3.0;
  f[1] = x[0] * x[1] - 2.0;
  j[0] = {1.0, 1.0};
  j[1] = {x[1], x[0]};
}

// Exponential (diode-like) residual that benefits from step limiting:
// F(x) = e^{10x} - 1 - 5.
void stiff_exponential(const std::vector<double>& x, std::vector<double>& f,
                       std::vector<std::vector<double>>& j) {
  f[0] = std::exp(10.0 * x[0]) - 6.0;
  j[0][0] = 10.0 * std::exp(10.0 * x[0]);
}

struct Solved {
  std::vector<double> x;
  ss::OpResult op;
};

/// The operating point of one Residual device on branch unknowns, or on
/// one node per unknown when `on_nodes`.
Solved solve(std::vector<double> guess, const Residual::Function& function,
             bool on_nodes = false, const ss::SimOptions& options = {}) {
  ss::Circuit c;
  std::vector<ss::NodeId> nodes;
  if (on_nodes) {
    for (std::size_t i = 0; i < guess.size(); ++i) {
      nodes.push_back(c.node(std::string("n").append(std::to_string(i))));
    }
  }
  const Residual* device =
      c.add<Residual>(std::move(guess), std::move(nodes), function);
  Solved solved;
  solved.op = ss::dc_operating_point(c, options);
  solved.x = device->solution(solved.op.x);
  return solved;
}

/// The ConvergenceError diagnostics of an operating point that must fail.
softfet::SolverDiagnostics failed_op(ss::Circuit& circuit,
                                     const ss::SimOptions& options = {}) {
  try {
    (void)ss::dc_operating_point(circuit, options);
  } catch (const softfet::SingularMatrixError& e) {
    ADD_FAILURE() << "the factorization failure escaped the ladder: "
                  << e.what();
  } catch (const softfet::ConvergenceError& e) {
    EXPECT_TRUE(e.has_diagnostics());
    return e.diagnostics();
  }
  ADD_FAILURE() << "expected a ConvergenceError";
  return {};
}

/// "strategy:succeeded:detail" per attempt.
std::vector<std::string> attempt_log(const softfet::SolverDiagnostics& d) {
  std::vector<std::string> log;
  for (const auto& a : d.attempts) {
    log.push_back(a.strategy + ":" + (a.succeeded ? "1" : "0") + ":" +
                  a.detail);
  }
  return log;
}

/// Node "x" fed 1 mA, with a resistor and a diode to ground; with 10
/// Newton iterations per solve, direct Newton cannot walk the clamped
/// steps up to the diode knee.
ss::OpResult clamped_diode_op(double resistance) {
  ss::Circuit c;
  const auto x = c.node("x");
  c.add<sd::ISource>("I1", ss::kGroundNode, x, sd::SourceSpec::dc(1e-3));
  c.add<sd::Resistor>("R1", x, ss::kGroundNode, resistance);
  c.add<sd::Diode>("D1", x, ss::kGroundNode);
  ss::SimOptions options;
  options.newton_max_iter = 10;
  return ss::dc_operating_point(c, options);
}

}  // namespace

TEST(Newton, NonFiniteResidualFailsFastWithStructuredResult) {
  // The guard must abort on the first poisoned evaluation instead of
  // iterating to the budget — in every homotopy rung — and must name the
  // offending unknown.
  auto bench = make_fault_bench(FaultMode::kNanResidual, /*budget=*/-1, 0.0,
                                1.0, 10e-12, "bad");
  const auto d = failed_op(bench.circuit);
  EXPECT_EQ(d.failure, "all homotopies failed (last: non-finite residual)");
  EXPECT_LE(d.iterations, 1);
  EXPECT_EQ(d.total_iterations, 3);  // one evaluation per rung
  EXPECT_EQ(d.worst_node, "v(bad)");
  EXPECT_EQ(d.worst_device, "FLT1");
  EXPECT_TRUE(d.iteration_trace.empty());
  EXPECT_EQ(attempt_log(d),
            (std::vector<std::string>{
                "direct_newton:0:non-finite residual",
                "gmin_stepping:0:non-finite residual",
                "source_stepping:0:non-finite residual"}));
}

TEST(Newton, SingularMatrixIsASoftFailureNotAThrow) {
  // A vanishing pivot must come back as a structured failure so the
  // homotopy ladder (gmin/source stepping) gets its chance to run.
  auto bench =
      make_fault_bench(FaultMode::kSingularRow, /*budget=*/-1, 0.0, 1.0);
  const auto d = failed_op(bench.circuit);
  EXPECT_EQ(d.failure, "all homotopies failed (last: singular matrix)");
  EXPECT_EQ(d.iterations, 1);
  EXPECT_EQ(d.worst_node, "i(flt1)");
  EXPECT_EQ(attempt_log(d), (std::vector<std::string>{
                                "direct_newton:0:singular matrix",
                                "gmin_stepping:0:singular matrix",
                                "source_stepping:0:singular matrix"}));
}

TEST(Newton, FailureKindsHaveReadableNames) {
  EXPECT_STREQ(sn::to_string(sn::NewtonFailure::kNone), "converged");
  EXPECT_NE(std::string(sn::to_string(sn::NewtonFailure::kNonFiniteResidual))
                .find("residual"),
            std::string::npos);
  EXPECT_NE(std::string(sn::to_string(sn::NewtonFailure::kSingularMatrix))
                .find("singular"),
            std::string::npos);
}

TEST(Newton, SolvesQuadratic) {
  const auto solved = solve({3.0}, quadratic);
  EXPECT_TRUE(solved.op.diagnostics.attempts.empty());  // direct Newton
  EXPECT_NEAR(solved.x[0], 2.0, 1e-6);
  EXPECT_LT(solved.op.iterations, 12);
}

TEST(Newton, FindsNegativeRootFromNegativeGuess) {
  const auto solved = solve({-1.0}, quadratic);
  EXPECT_TRUE(solved.op.diagnostics.attempts.empty());
  EXPECT_NEAR(solved.x[0], -2.0, 1e-6);
}

TEST(Newton, SolvesCoupledSystem) {
  const auto solved = solve({0.5, 2.5}, coupled);
  EXPECT_TRUE(solved.op.diagnostics.attempts.empty());
  EXPECT_NEAR(solved.x[0] + solved.x[1], 3.0, 1e-6);
  EXPECT_NEAR(solved.x[0] * solved.x[1], 2.0, 1e-6);
}

TEST(Newton, StepLimitingTamesExponential) {
  ss::SimOptions options;
  options.v_max_step = 0.2;
  options.vabstol = 1e-14;
  options.reltol = 1e-6;  // relative to the unknown x - 2, not to x
  const auto solved = solve({2.0}, stiff_exponential, /*on_nodes=*/true,
                            options);  // exp(20): wildly off
  EXPECT_TRUE(solved.op.diagnostics.attempts.empty());
  EXPECT_NEAR(solved.x[0], std::log(6.0) / 10.0, 1e-9);
}

TEST(Newton, ReportsNonConvergence) {
  // No limiting and not enough iterations from a bad start: every rung
  // runs out of iterations, and the report says so.
  ss::Circuit c;
  c.add<Residual>(std::vector<double>{5.0},
                  std::vector<ss::NodeId>{c.node("n0")}, stiff_exponential);
  ss::SimOptions options;
  options.v_max_step = 0.0;
  options.newton_max_iter = 3;
  const auto d = failed_op(c, options);
  EXPECT_EQ(d.failure, "all homotopies failed (last: newton max iterations)");
  EXPECT_EQ(d.iterations, 3);
  EXPECT_EQ(d.iteration_trace.size(), 3u);
  EXPECT_EQ(d.worst_node, "v(n0)");
}

TEST(Newton, GminSteppingRescuesTheOperatingPoint) {
  // Pinned bit for bit: x, the Newton work and the attempt log.
  const auto op = clamped_diode_op(10e3);
  ASSERT_EQ(op.x.size(), 1u);
  EXPECT_EQ(op.x[0], 0x1.4e5549b2b785dp-1);
  EXPECT_EQ(op.iterations, 30);
  EXPECT_EQ(attempt_log(op.diagnostics),
            (std::vector<std::string>{"direct_newton:0:newton max iterations",
                                      "gmin_stepping:1:"}));
}

TEST(Newton, SourceSteppingRescuesTheOperatingPoint) {
  // A stiffer resistor defeats gmin stepping too; source stepping from a
  // zero guess lands it. Pinned bit for bit as above.
  const auto op = clamped_diode_op(1e3);
  ASSERT_EQ(op.x.size(), 1u);
  EXPECT_EQ(op.x[0], 0x1.4219b154b282dp-1);
  EXPECT_EQ(op.iterations, 72);
  EXPECT_EQ(attempt_log(op.diagnostics),
            (std::vector<std::string>{"direct_newton:0:newton max iterations",
                                      "gmin_stepping:0:newton max iterations",
                                      "source_stepping:1:"}));
}
