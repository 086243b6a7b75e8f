// Netlist elaboration: end-to-end from text to simulated results.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "devices/mosfet.hpp"
#include "devices/ptm.hpp"
#include "measure/waveform.hpp"
#include "netlist/elaborate.hpp"
#include "sim/analyses.hpp"
#include "util/error.hpp"

namespace nl = softfet::netlist;
namespace ss = softfet::sim;
using softfet::measure::Waveform;

TEST(Elaborate, VoltageDividerOp) {
  auto net = nl::compile_netlist(R"(divider
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
.op
)");
  EXPECT_TRUE(net.op);
  const auto op = ss::dc_operating_point(*net.circuit);
  EXPECT_NEAR(op.voltage("mid"), 7.5, 1e-6);
}

TEST(Elaborate, ParamsAndExpressions) {
  auto net = nl::compile_netlist(R"(params
.param vcc=2 half={vcc/2}
V1 in 0 {vcc}
R1 in mid {1k*2}
R2 mid 0 2k
)");
  const auto op = ss::dc_operating_point(*net.circuit);
  EXPECT_NEAR(op.voltage("in"), 2.0, 1e-9);
  EXPECT_NEAR(op.voltage("mid"), 1.0, 1e-6);
}

TEST(Elaborate, SubcktFlatteningWithParams) {
  auto net = nl::compile_netlist(R"(hierarchy
.param vcc=1
.model nch nmos
.model pch pmos
.subckt inv in out vdd wn=120n
MP out in vdd vdd pch W={2*wn}
MN out in 0 0 nch W={wn}
.ends
Vdd vdd 0 {vcc}
Vin a 0 0
X1 a b vdd inv
X2 b c vdd inv wn=240n
)");
  auto& c = *net.circuit;
  c.prepare();
  // Flattened device names carry the instance prefix.
  EXPECT_NE(c.find_device("x1.mp"), nullptr);
  EXPECT_NE(c.find_device("x2.mn"), nullptr);
  // Two cascaded inverters: c follows a.
  const auto op = ss::dc_operating_point(c);
  EXPECT_GT(op.voltage("b"), 0.95);  // first inverter output high
  EXPECT_LT(op.voltage("c"), 0.05);  // second output low
}

TEST(Elaborate, SubcktInternalNodesAreScoped) {
  auto net = nl::compile_netlist(R"(scoping
.subckt rdiv in out
R1 in m 1k
R2 m out 1k
.ends
V1 a 0 1
X1 a b rdiv
X2 a c rdiv
Rload1 b 0 1k
Rload2 c 0 1k
)");
  auto& c = *net.circuit;
  c.prepare();
  // Each instance gets a private "m" node.
  EXPECT_TRUE(c.has_node("x1.m"));
  EXPECT_TRUE(c.has_node("x2.m"));
}

TEST(Elaborate, PtmFromModelCard) {
  auto net = nl::compile_netlist(R"(ptm card
.model vo2 ptm rins=500k rmet=5k vimt=0.4 vmit=0.1 tptm=10p
V1 in 0 PWL(0 0 10p 0 40p 1)
P1 in g vo2
C1 g 0 0.5f
.tran 1p 1n
)");
  ASSERT_TRUE(net.tran.has_value());
  auto* ptm = dynamic_cast<softfet::devices::Ptm*>(
      net.circuit->find_device("p1"));
  ASSERT_NE(ptm, nullptr);
  EXPECT_DOUBLE_EQ(ptm->params().r_ins, 500e3);
  EXPECT_DOUBLE_EQ(ptm->params().t_ptm, 10e-12);
  const auto result = ss::run_transient(*net.circuit, net.tran->tstop);
  const Waveform vg = Waveform::from_tran(result, "v(g)");
  EXPECT_NEAR(vg.value(1e-9), 1.0, 0.05);
  EXPECT_GE(ptm->imt_count(), 1);
}

TEST(Elaborate, TranDirectiveDrivesRcCircuit) {
  auto net = nl::compile_netlist(R"(rc
V1 in 0 PULSE(0 1 1n 1p 1p 1)
R1 in out 1k
C1 out 0 1n
.tran 10n 5u
)");
  const auto result = ss::run_transient(*net.circuit, net.tran->tstop);
  const Waveform vout = Waveform::from_tran(result, "v(out)");
  EXPECT_NEAR(vout.value(5e-6), 1.0 - std::exp(-(5e-6 - 1e-9) / 1e-6), 1e-2);
}

TEST(Elaborate, MosfetModelOverrides) {
  auto net = nl::compile_netlist(R"(hvt
.model nhvt nmos vt0=0.55
Vd d 0 1
Vg g 0 1
M1 d g 0 0 nhvt W=120n L=40n
)");
  auto* m = dynamic_cast<softfet::devices::Mosfet*>(
      net.circuit->find_device("m1"));
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->model().vt0, 0.55);
  EXPECT_DOUBLE_EQ(m->dims().w, 120e-9);
}

TEST(Elaborate, DiodeAndSwitchModels) {
  auto net = nl::compile_netlist(R"(models
.model dfast d is=1e-12 n=1.2
.model swlow sw ron=5 roff=1e8 vt=0.4 vw=0.01
V1 a 0 1
D1 a b dfast
R1 b 0 1k
S1 a c ctrl 0 swlow
Vc ctrl 0 1
R2 c 0 1k
)");
  const auto op = ss::dc_operating_point(*net.circuit);
  EXPECT_GT(op.voltage("b"), 0.1);
  EXPECT_GT(op.voltage("c"), 0.9);  // switch on
}

TEST(Elaborate, SemanticErrors) {
  EXPECT_THROW((void)nl::compile_netlist("t\nM1 d g s b nomodel\n"),
               softfet::ParseError);
  EXPECT_THROW((void)nl::compile_netlist("t\nX1 a b missing\n"),
               softfet::ParseError);
  EXPECT_THROW(
      (void)nl::compile_netlist(".subckt i a b\nR1 a b 1k\n.ends\nX1 a i\n"),
      softfet::ParseError);
  // First line is the title, so the bogus element sits on line 2.
  EXPECT_THROW((void)nl::compile_netlist("title\nQ1 a b c\n"),
               softfet::ParseError);
  EXPECT_THROW((void)nl::compile_netlist("t\nR1 a 0 {undefined_param}\n"),
               softfet::ParseError);
  // Wrong model type for the element.
  EXPECT_THROW(
      (void)nl::compile_netlist(".model m1 nmos\nP1 a 0 m1\n"),
      softfet::ParseError);
}

namespace {

/// The line a netlist's elaboration ParseError points at (0: it compiled).
int rejected_at_line(const std::string& text) {
  try {
    (void)nl::compile_netlist(text);
  } catch (const softfet::ParseError& e) {
    return e.line();
  }
  return 0;
}

}  // namespace

// A non-finite element value is a parse error at its card, not a silent
// run, a DC convergence failure or a recovery-ladder climb.
TEST(Elaborate, DivisionByZeroResistanceIsRejected) {
  EXPECT_EQ(rejected_at_line("t\nV1 n 0 1\nR1 n 0 {1/0}\n"), 3);
}

TEST(Elaborate, OverflowingResistanceIsRejected) {
  EXPECT_EQ(rejected_at_line("t\nV1 n 0 1\nR1 n 0 1e999\n"), 3);
}

TEST(Elaborate, InfiniteSourceValueIsRejected) {
  EXPECT_EQ(rejected_at_line("t\nV1 n 0 inf\nR1 n 0 1k\n"), 2);
}

TEST(Elaborate, NanSineParameterIsRejected) {
  EXPECT_EQ(rejected_at_line("t\nV1 n 0 SIN(0 1 {0/0})\nR1 n 0 1k\n"), 2);
}

TEST(Elaborate, DivisionByZeroCapacitanceIsRejected) {
  EXPECT_EQ(rejected_at_line("t\nV1 n 0 1\nR1 n m 1k\nC1 m 0 {1/0}\n"), 4);
}

// A subckt that instantiates itself, directly or through another, must be
// a parse error naming the cycle at the closing instance's line, not
// unbounded recursion. So must a non-recursive nest too deep for the stack
// or too big for memory, at the top-level instance's line, and a `.param`
// expression nested too deep for the stack, at its own line.
TEST(Elaborate, RecursiveSubcktsAreParseErrors) {
  // A chain of `depth` distinct subckts, each instantiating the next; the
  // top-level instance X0 sits on line 2 + 3 * depth.
  const auto chain = [](int depth) {
    std::string text = "deep chain\n";
    for (int k = 0; k < depth; ++k) {
      text += ".subckt s" + std::to_string(k) + " a\n";
      text += k + 1 < depth ? "X1 a s" + std::to_string(k + 1) + "\n"
                            : std::string("R1 a 0 1k\n");
      text += ".ends\n";
    }
    return text + "X0 in s0\nV1 in 0 1\n";
  };
  // `levels` subckts, each instantiating the one below twice: 2^levels
  // resistors. X0 sits on line 5 + 4 * levels.
  const auto doubling = [](int levels) {
    std::string text = "doubling\n.subckt d0 a\nR1 a 0 1k\n.ends\n";
    for (int k = 1; k <= levels; ++k) {
      const std::string below = std::string("d").append(std::to_string(k - 1));
      text += ".subckt d" + std::to_string(k) + " a\nX1 a " + below +
              "\nX2 a " + below + "\n.ends\n";
    }
    return text + "X0 in d" + std::to_string(levels) + "\nV1 in 0 1\n";
  };
  const std::string parens(200000, '(');
  const std::string closes(200000, ')');
  struct Case {
    std::string netlist;
    int line;
    const char* error;
  };
  const Case cases[] = {
      {R"(self
.subckt loop a b
R1 a b 1k
X1 a b loop
.ends
X0 in 0 loop
V1 in 0 1
)",
       4, "recursive subcircuit: loop -> loop"},
      {R"(mutual
.subckt ping a
X1 a pong
.ends
.subckt pong a
R1 a 0 1k
X2 a ping
.ends
X0 in ping
V1 in 0 1
)",
       7, "recursive subcircuit: ping -> pong -> ping"},
      // Hostile sizes fail at the top-level instance, before expanding it.
      {chain(10000), 30002, "subcircuit nesting deeper than 100 levels"},
      {doubling(40), 165, "subcircuits expand to more than 1000000 devices"},
      {"deep parens\n.param x={" + parens + "1" + closes +
           "}\nV1 in 0 {x}\nR1 in 0 1k\n",
       2, "expression nested deeper than 256 levels"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error);
    try {
      (void)nl::compile_netlist(c.netlist);
      ADD_FAILURE() << "hostile subckt elaborated";
    } catch (const softfet::ParseError& e) {
      EXPECT_EQ(e.line(), c.line);
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << e.what();
    }
  }
  // The same subckt used twice side by side is not a cycle.
  EXPECT_NO_THROW((void)nl::compile_netlist(R"(siblings
.subckt leaf a
R1 a 0 1k
.ends
.subckt pair a
X1 a leaf
X2 a leaf
.ends
X0 in pair
V1 in 0 1
)"));
}

TEST(Elaborate, SubcktUnknownParamOverrideRejected) {
  EXPECT_THROW((void)nl::compile_netlist(R"(bad
.subckt inv in out
R1 in out 1k
.ends
X1 a b inv nosuch=1
)"),
               softfet::ParseError);
}
