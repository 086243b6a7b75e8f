// .measure directive parsing and evaluation.
#include <gtest/gtest.h>

#include <cmath>

#include "netlist/elaborate.hpp"
#include "netlist/measure_eval.hpp"
#include "netlist/parser.hpp"
#include "sim/analyses.hpp"
#include "util/error.hpp"

namespace nl = softfet::netlist;
namespace ss = softfet::sim;

namespace {

/// RC circuit with the full set of measures.
nl::ElaboratedNetlist rc_netlist() {
  return nl::compile_netlist(R"(rc measures
V1 in 0 PULSE(0 1 1n 1p 1p 1)
R1 in out 1k
C1 out 0 1n
.tran 10n 6u
.measure tran vmax MAX v(out)
.measure tran vmin MIN v(out)
.measure tran swing PP v(out)
.measure tran vavg AVG v(out) FROM=5u TO=6u
.measure tran vrms RMS v(out) FROM=5u TO=6u
.measure tran q INTEG i(v1)
.measure tran trise TRIG v(in) VAL=0.5 RISE=1 TARG v(out) VAL=0.63 RISE=1
)");
}

}  // namespace

TEST(Measure, ParsedFromNetlist) {
  const auto net = rc_netlist();
  ASSERT_EQ(net.measures.size(), 7u);
  EXPECT_EQ(net.measures[0].name, "vmax");
  EXPECT_EQ(net.measures[0].tokens[0], "MAX");
  EXPECT_EQ(net.measures[0].tokens[1], "v(out)");  // parens re-joined
}

TEST(Measure, EvaluatesAgainstRcAnalytic) {
  auto net = rc_netlist();
  const auto result = ss::run_transient(*net.circuit, net.tran->tstop);
  const auto values = nl::evaluate_measures(net.measures, result);
  ASSERT_EQ(values.size(), 7u);
  const auto value_of = [&](const std::string& name) {
    for (const auto& v : values) {
      if (v.name == name) return v.value;
    }
    throw std::runtime_error("missing measure " + name);
  };
  EXPECT_NEAR(value_of("vmax"), 1.0, 1e-2);
  EXPECT_NEAR(value_of("vmin"), 0.0, 1e-3);
  EXPECT_NEAR(value_of("swing"), 1.0, 1e-2);
  // Settled window: avg = rms = 1.
  EXPECT_NEAR(value_of("vavg"), 1.0, 1e-2);
  EXPECT_NEAR(value_of("vrms"), 1.0, 1e-2);
  // Total charge from the source (SPICE sign: negative when sourcing).
  EXPECT_NEAR(value_of("q"), -1e-9, 5e-11);
  // RC rise to 63% takes ~tau = 1 us.
  EXPECT_NEAR(value_of("trise"), 1e-6, 5e-8);
}

TEST(Measure, FailedMeasureBecomesNan) {
  auto net = nl::compile_netlist(R"(bad crossing
V1 a 0 1
R1 a 0 1k
.tran 1n 10n
.measure tran never TRIG v(a) VAL=0.5 RISE=1 TARG v(a) VAL=2 RISE=1
)");
  const auto result = ss::run_transient(*net.circuit, net.tran->tstop);
  const auto values = nl::evaluate_measures(net.measures, result);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_TRUE(std::isnan(values[0].value));
}

TEST(Measure, MalformedDirectivesThrow) {
  EXPECT_THROW((void)nl::parse("t\n.measure tran x\n"), softfet::ParseError);

  nl::MeasureDirective bad{.analysis = "ac", .name = "x",
                           .tokens = {"max", "v(a)"}};
  ss::TranResult empty;
  EXPECT_THROW((void)nl::evaluate_measure(bad, empty), softfet::ParseError);

  bad.analysis = "tran";
  bad.tokens = {"frobnicate", "v(a)"};
  EXPECT_THROW((void)nl::evaluate_measure(bad, empty), softfet::ParseError);

  bad.tokens = {"max", "v(a)", "bogus"};
  EXPECT_THROW((void)nl::evaluate_measure(bad, empty), softfet::ParseError);
}

TEST(Measure, WindowOptionsRespected) {
  auto net = nl::compile_netlist(R"(windowed
V1 in 0 PULSE(0 1 1u 1p 1p 1u 2u)
R1 in 0 1k
.tran 10n 4u
.measure tran hi AVG v(in) FROM=1.5u TO=1.9u
.measure tran lo AVG v(in) FROM=2.5u TO=2.9u
)");
  const auto result = ss::run_transient(*net.circuit, net.tran->tstop);
  const auto values = nl::evaluate_measures(net.measures, result);
  EXPECT_NEAR(values[0].value, 1.0, 1e-6);
  EXPECT_NEAR(values[1].value, 0.0, 1e-6);
}

TEST(Measure, TruncatedTrigTargThrowsParseErrorNotOutOfRange) {
  // A ".measure tran d TRIG" cut short after any keyword used to escape as
  // std::out_of_range from tokens.at(++i); every truncation must surface as
  // a ParseError carrying the netlist line instead.
  ss::TranResult empty;
  nl::MeasureDirective bad{
      .line = 12, .analysis = "tran", .name = "d", .tokens = {}};

  const std::vector<std::vector<std::string>> truncations = {
      {"TRIG"},                                         // no trigger signal
      {"TRIG", "v(in)", "VAL=0.5", "TARG"},             // no target signal
      {"TRIG", "v(in)", "VAL=0.5"},                     // TARG missing
      {"TRIG", "v(in)", "TARG", "v(out)", "VAL="},      // empty value
  };
  for (const auto& tokens : truncations) {
    bad.tokens = tokens;
    try {
      (void)nl::evaluate_measure(bad, empty);
      FAIL() << "expected ParseError for " << tokens.size() << " tokens";
    } catch (const softfet::ParseError& e) {
      EXPECT_EQ(e.line(), 12) << e.what();
    }
  }
}
