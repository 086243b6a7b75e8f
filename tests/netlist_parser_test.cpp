#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "netlist/parser.hpp"
#include "util/error.hpp"

namespace nl = softfet::netlist;

TEST(NetlistParser, TitleCommentsContinuations) {
  const auto ast = nl::parse(R"(My Test Circuit
* a comment line
R1 a b 1k  ; trailing comment
V1 a 0
+ DC 1.0   $ continued card
.end
)");
  EXPECT_EQ(ast.title, "My Test Circuit");
  ASSERT_EQ(ast.top_devices.size(), 2u);
  EXPECT_EQ(ast.top_devices[0].tokens[0], "R1");
  // Continuation merged the DC spec into V1's card.
  const auto& v1 = ast.top_devices[1].tokens;
  ASSERT_EQ(v1.size(), 5u);
  EXPECT_EQ(v1[3], "DC");
  EXPECT_EQ(v1[4], "1.0");
}

TEST(NetlistParser, FirstLineIsAlwaysTitleUnlessDirective) {
  // Classic SPICE: the first line is the title, even if it looks like a card.
  const auto ast = nl::parse("R1 a 0 1k\nR2 b 0 1k\n");
  EXPECT_EQ(ast.title, "R1 a 0 1k");
  EXPECT_EQ(ast.top_devices.size(), 1u);
  // A directive first line is not a title.
  const auto ast2 = nl::parse(".param x=1\nR1 a 0 1k\n");
  EXPECT_TRUE(ast2.title.empty());
  EXPECT_EQ(ast2.top_devices.size(), 1u);
}

TEST(NetlistParser, CommentFirstLineIsTheTitle) {
  // A '*' first line is the title, not a comment to skip: the card after
  // it must stay a card. Leading blank lines are still skipped.
  const auto ast = nl::parse(
      "\n* divider\nV1 a 0 1\nR1 a b 1k\nR2 b 0 1k\n.op\n");
  EXPECT_EQ(ast.title, "divider");
  ASSERT_EQ(ast.top_devices.size(), 3u);
  EXPECT_EQ(ast.top_devices[0].tokens[0], "V1");
  // Later '*' lines stay comments.
  const auto ast2 = nl::parse("t\n* note\nR1 a 0 1k\n");
  EXPECT_EQ(ast2.title, "t");
  EXPECT_EQ(ast2.top_devices.size(), 1u);
}

TEST(NetlistParser, ParenthesesActAsWhitespace) {
  const auto ast = nl::parse("t\nV1 in 0 PULSE(0 1 1n 2n 2n 3n)\n");
  const auto& tokens = ast.top_devices[0].tokens;
  ASSERT_EQ(tokens.size(), 10u);
  EXPECT_EQ(tokens[3], "PULSE");
  EXPECT_EQ(tokens[9], "3n");
}

TEST(NetlistParser, BracesSurviveTokenization) {
  const auto ast = nl::parse(".param w=120n\nM1 d g s b nch W={w * 2} L=40n\n");
  const auto& tokens = ast.top_devices[0].tokens;
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[6], "W={w * 2}");
}

TEST(NetlistParser, SpacedAssignmentsGlue) {
  const auto ast = nl::parse("t\nM1 d g s b nch W = 240n\n");
  const auto& tokens = ast.top_devices[0].tokens;
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[6], "W=240n");
}

TEST(NetlistParser, Directives) {
  const auto ast = nl::parse(R"(.param vcc=1 cl=2f
.model nch nmos vt0=0.35
.tran 1p 10n
.dc Vin 0 1 0.1
.op
.end
)");
  ASSERT_EQ(ast.params.size(), 2u);
  EXPECT_EQ(ast.params[0].first, "vcc");
  ASSERT_TRUE(ast.models.count("nch"));
  EXPECT_EQ(ast.models.at("nch").type, "nmos");
  EXPECT_EQ(ast.models.at("nch").params.at("vt0"), "0.35");
  ASSERT_TRUE(ast.tran.has_value());
  EXPECT_DOUBLE_EQ(ast.tran->tstop, 10e-9);
  ASSERT_TRUE(ast.dc.has_value());
  EXPECT_EQ(ast.dc->source, "vin");
  EXPECT_TRUE(ast.op);
}

TEST(NetlistParser, DcPointsExpansion) {
  nl::DcDirective dc;
  dc.start = 0.0;
  dc.stop = 1.0;
  dc.step = 0.25;
  const auto pts = dc.points();
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[4], 1.0);
  dc.start = 1.0;
  dc.stop = 0.0;
  const auto down = dc.points();
  ASSERT_EQ(down.size(), 5u);
  EXPECT_DOUBLE_EQ(down[0], 1.0);
  EXPECT_DOUBLE_EQ(down[4], 0.0);
  // Under the point cap a parsed sweep keeps every point, each the
  // accumulated sum bit for bit.
  const auto ast = nl::parse("t\n.dc V1 0 1 2u\n.ac dec 1000 1 1e6\n");
  ASSERT_TRUE(ast.dc.has_value());
  const auto fine = ast.dc->points();
  ASSERT_EQ(fine.size(), 500001u);
  double v = 0.0;
  for (std::size_t i = 1; i < fine.size(); ++i) v += 2e-6;
  EXPECT_EQ(fine.back(), v);
  ASSERT_TRUE(ast.ac.has_value());
  EXPECT_EQ(ast.ac->frequencies().size(), 6001u);
}

TEST(NetlistParser, SubcktCapture) {
  const auto ast = nl::parse(R"(.subckt inv in out vdd w=120n
MP out in vdd vdd pch W={2*w}
MN out in 0 0 nch W={w}
.ends
X1 a b vcc inv w=240n
)");
  ASSERT_TRUE(ast.subckts.count("inv"));
  const auto& def = ast.subckts.at("inv");
  ASSERT_EQ(def.ports.size(), 3u);
  EXPECT_EQ(def.ports[2], "vdd");
  ASSERT_EQ(def.default_params.size(), 1u);
  EXPECT_EQ(def.default_params[0].first, "w");
  EXPECT_EQ(def.devices.size(), 2u);
  ASSERT_EQ(ast.top_devices.size(), 1u);
}

TEST(NetlistParser, ContentAfterEndIgnored) {
  const auto ast = nl::parse("t\nR1 a 0 1k\n.end\nR2 b 0 1k\n");
  EXPECT_EQ(ast.top_devices.size(), 1u);
}

TEST(NetlistParser, IncludeFilesMergeDefinitions) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "softfet_inc_test";
  fs::create_directories(dir);
  {
    std::ofstream lib(dir / "lib.sp");
    lib << ".param rload=2k\n.model nch nmos vt0=0.4\n";
  }
  {
    std::ofstream top(dir / "top.sp");
    top << "include test\n.include \"lib.sp\"\nR1 a 0 {rload}\n.end\n";
  }
  const auto ast = nl::parse_file((dir / "top.sp").string());
  EXPECT_EQ(ast.title, "include test");
  ASSERT_EQ(ast.params.size(), 1u);
  EXPECT_EQ(ast.params[0].first, "rload");
  EXPECT_TRUE(ast.models.count("nch"));
  EXPECT_EQ(ast.top_devices.size(), 1u);
  fs::remove_all(dir);
}

TEST(NetlistParser, MissingIncludeThrows) {
  EXPECT_THROW((void)nl::parse("t\n.include \"/nonexistent/nope.sp\"\n"),
               softfet::ParseError);
}

TEST(NetlistParser, ErrorsCarryLineNumbers) {
  try {
    (void)nl::parse("t\nR1 a 0 1k\n.tran 1p\n");
    FAIL() << "expected ParseError";
  } catch (const softfet::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
  EXPECT_THROW((void)nl::parse(".subckt foo a\nR1 a 0 1k\n"),
               softfet::ParseError);
  EXPECT_THROW((void)nl::parse(".ends\n"), softfet::ParseError);
  EXPECT_THROW((void)nl::parse("+continuation first\n"), softfet::ParseError);
  EXPECT_THROW((void)nl::parse(".bogus\n"), softfet::ParseError);
  EXPECT_THROW((void)nl::parse("t\nR1 a 0 {1k\n"), softfet::ParseError);
}

namespace {

/// The line a sweep card's ParseError points at (0: it parsed).
int rejected_at_line(const std::string& card) {
  try {
    (void)nl::parse("t\nR1 a 0 1k\n" + card + "\n");
  } catch (const softfet::ParseError& e) {
    return e.line();
  }
  return 0;
}

}  // namespace

TEST(NetlistParser, DcStepTooFineForThePointCapIsRejected) {
  EXPECT_EQ(rejected_at_line(".dc V1 0 1 1e-300"), 3);
}

TEST(NetlistParser, DcStepLostToRoundingIsRejected) {
  // 1e20 + 1 == 1e20: the sweep would never advance.
  EXPECT_EQ(rejected_at_line(".dc V1 1e20 2e20 1"), 3);
}

TEST(NetlistParser, DcNonFiniteBoundIsRejected) {
  EXPECT_EQ(rejected_at_line(".dc V1 0 1e400 1"), 3);
}

TEST(NetlistParser, AcNonFiniteStopIsRejected) {
  EXPECT_EQ(rejected_at_line(".ac dec 10 1 1e400"), 3);
}

TEST(NetlistParser, TranNonFiniteStopIsRejected) {
  EXPECT_EQ(rejected_at_line(".tran 1n 1e999"), 3);
}

TEST(NetlistParser, TranNanStepIsRejected) {
  EXPECT_EQ(rejected_at_line(".tran nan 1n"), 3);
}

TEST(NetlistParser, TranNanStopIsRejected) {
  EXPECT_EQ(rejected_at_line(".tran 1n nan"), 3);
}

TEST(NetlistParser, TranNonPositiveTimesAreRejected) {
  EXPECT_EQ(rejected_at_line(".tran 1n 0"), 3);
  EXPECT_EQ(rejected_at_line(".tran -1n 1n"), 3);
}

TEST(NetlistParser, AcPointsOutOfIntRangeAreRejected) {
  EXPECT_EQ(rejected_at_line(".ac lin 1e300 1 10"), 3);
  EXPECT_EQ(rejected_at_line(".ac lin 2.5 1 10"), 3);
  EXPECT_EQ(rejected_at_line(".ac dec 0 1 10"), 3);
}
