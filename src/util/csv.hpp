// CSV writer for waveforms and experiment results.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace softfet::util {

/// Streams rows of doubles (plus a header) as RFC-4180-ish CSV.
class CsvWriter {
 public:
  /// `out` must outlive the writer.
  CsvWriter(std::ostream& out, std::vector<std::string> columns);

  /// Write one data row; throws softfet::Error on column-count mismatch.
  void write_row(const std::vector<double>& values);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ostream& out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

/// Escape a string for a CSV field (quotes + commas).
[[nodiscard]] std::string csv_escape(const std::string& field);

}  // namespace softfet::util
