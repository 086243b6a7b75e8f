#include "util/csv.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace softfet::util {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> columns)
    : out_(out), columns_(columns.size()) {
  if (columns.empty()) throw Error("CsvWriter: no columns");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << csv_escape(columns[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& values) {
  if (values.size() != columns_) {
    throw Error("CsvWriter: row has " + std::to_string(values.size()) +
                " fields, expected " + std::to_string(columns_));
  }
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out_ << ',';
    std::snprintf(buf, sizeof buf, "%.9g", values[i]);
    out_ << buf;
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace softfet::util
