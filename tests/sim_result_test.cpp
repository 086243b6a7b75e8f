// SignalTable lookups: case-insensitive names through the table's index,
// the first of duplicate names, the unknown-name error text, and select().
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/result.hpp"
#include "util/error.hpp"

namespace ss = softfet::sim;

namespace {

/// A table whose column i holds the single sample i.
ss::SignalTable numbered(std::vector<std::string> names) {
  ss::SignalTable t(std::move(names));
  std::vector<double> row(t.columns());
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<double>(i);
  t.append_row(row);
  return t;
}

std::string error_text(const ss::SignalTable& t, const std::string& name) {
  try {
    (void)t.signal(name);
  } catch (const softfet::Error& e) {
    return e.what();
  }
  return "(no error)";
}

}  // namespace

TEST(SignalTable, LooksNamesUpCaseInsensitively) {
  const auto t = numbered({"v(out)", "I(Vdd)", "v(in)", "s(P1)"});
  EXPECT_EQ(t.signal("V(OUT)").front(), 0.0);
  EXPECT_EQ(t.signal("i(vdd)").front(), 1.0);
  EXPECT_EQ(t.signal("v(in)").front(), 2.0);
  EXPECT_EQ(t.signal("S(p1)").front(), 3.0);
  EXPECT_EQ(&t.signal("v(OUT)"), &t.column(0));
}

TEST(SignalTable, FirstDuplicateWins) {
  const auto t = numbered({"v(b)", "v(a)", "V(A)", "v(c)", "v(a)"});
  EXPECT_EQ(t.signal("v(a)").front(), 1.0);
  EXPECT_EQ(t.signal("V(A)").front(), 1.0);
  EXPECT_EQ(&t.signal("v(A)"), &t.column(1));
}

TEST(SignalTable, LookupsSurviveACopy) {
  const auto original = numbered({"v(z)", "v(y)", "v(x)"});
  const ss::SignalTable copy = original;
  EXPECT_EQ(copy.signal("V(X)").front(), 2.0);
  EXPECT_EQ(&copy.signal("v(x)"), &copy.column(2));
}

TEST(SignalTable, UnknownNameErrorListsCandidates) {
  EXPECT_EQ(error_text(numbered({"a", "B"}), "c"),
            "SignalTable: no signal 'c' (have: a, B)");
  EXPECT_EQ(error_text(ss::SignalTable(), "v(x)"),
            "SignalTable: no signal 'v(x)' (have: )");
  // The candidate list stops after the name that takes it past 200
  // characters.
  std::vector<std::string> names;
  for (int i = 0; i < 50; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "v(n%02d)", i);
    names.emplace_back(name);
  }
  EXPECT_EQ(error_text(numbered(names), "v(x)"),
            "SignalTable: no signal 'v(x)' (have: v(n00), v(n01), v(n02), "
            "v(n03), v(n04), v(n05), v(n06), v(n07), v(n08), v(n09), v(n10), "
            "v(n11), v(n12), v(n13), v(n14), v(n15), v(n16), v(n17), v(n18), "
            "v(n19), v(n20), v(n21), v(n22), v(n23), v(n24), v(n25), ...)");
}

TEST(SignalTable, Has) {
  const auto t = numbered({"v(out)", "i(vdd)", "v(out2)"});
  EXPECT_TRUE(t.has("v(out)"));
  EXPECT_TRUE(t.has("V(OUT2)"));
  EXPECT_TRUE(t.has("I(VDD)"));
  EXPECT_FALSE(t.has("v(ou)"));
  EXPECT_FALSE(t.has("v(out3)"));
  EXPECT_FALSE(t.has(""));
  EXPECT_FALSE(ss::SignalTable().has("v(out)"));
}

TEST(SignalTable, SelectKeepsEveryDuplicateInTableOrder) {
  const auto t = numbered({"v(a)", "v(b)", "V(A)", "v(c)", "v(a)"});
  using Indices = std::vector<std::size_t>;
  EXPECT_EQ(t.select({"v(c)", "V(a)"}), (Indices{0, 2, 3, 4}));
  EXPECT_EQ(t.select({"v(a)", "v(A)"}), (Indices{0, 2, 4}));
  EXPECT_EQ(t.select({"v(b)"}), (Indices{1}));
  EXPECT_EQ(t.select({}), (Indices{0, 1, 2, 3, 4}));
  EXPECT_TRUE(t.select({"v(d)"}).empty());
}
