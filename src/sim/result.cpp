#include "sim/result.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace softfet::sim {

SignalTable::SignalTable(std::vector<std::string> names)
    : names_(std::move(names)), columns_(names_.size()) {}

bool SignalTable::has(const std::string& name) const {
  return !select({name}).empty();
}

const std::vector<double>& SignalTable::signal(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (util::iequals(names_[i], name)) return columns_[i];
  }
  std::string candidates;
  for (const auto& n : names_) {
    if (!candidates.empty()) candidates += ", ";
    candidates += n;
    if (candidates.size() > 200) {
      candidates += ", ...";
      break;
    }
  }
  throw Error("SignalTable: no signal '" + name + "' (have: " + candidates +
              ")");
}

std::vector<std::size_t> SignalTable::select(
    const std::vector<std::string>& wanted) const {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    bool take = wanted.empty();
    for (const auto& name : wanted) {
      take = take || util::iequals(name, names_[i]);
    }
    if (take) selected.push_back(i);
  }
  return selected;
}

void SignalTable::append_row(const std::vector<double>& row) {
  if (row.size() != names_.size()) {
    throw Error("SignalTable: row width mismatch");
  }
  for (std::size_t i = 0; i < row.size(); ++i) columns_[i].push_back(row[i]);
}

double OpResult::voltage(const std::string& node) const {
  return unknown("v(" + util::to_lower(node) + ")");
}

double OpResult::unknown(const std::string& label) const {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (util::iequals(labels[i], label)) return x[i];
  }
  throw Error("OpResult: no unknown labelled '" + label + "'");
}

}  // namespace softfet::sim
