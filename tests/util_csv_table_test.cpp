#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace su = softfet::util;

TEST(Csv, HeaderAndRows) {
  std::ostringstream out;
  su::CsvWriter writer(out, {"t", "v"});
  writer.write_row({0.0, 1.5});
  writer.write_row({1e-9, 2.5});
  EXPECT_EQ(out.str(), "t,v\n0,1.5\n1e-09,2.5\n");
  EXPECT_EQ(writer.rows_written(), 2u);
}

TEST(Csv, RowWidthMismatchThrows) {
  std::ostringstream out;
  su::CsvWriter writer(out, {"a", "b"});
  EXPECT_THROW(writer.write_row({1.0}), softfet::Error);
}

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(su::csv_escape("plain"), "plain");
  EXPECT_EQ(su::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(su::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, AlignedOutput) {
  su::TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RowValuesFormatting) {
  su::TextTable table({"x"});
  table.add_row_values({3.14159265});
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("3.142"), std::string::npos);
}

TEST(Table, WidthMismatchThrows) {
  su::TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), softfet::Error);
}

TEST(Table, FmtG) {
  EXPECT_EQ(su::fmt_g(0.000123), "0.000123");
  EXPECT_EQ(su::fmt_g(1234567.0, 3), "1.23e+06");
}
