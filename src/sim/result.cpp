#include "sim/result.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace softfet::sim {

namespace {

/// util::iequals' case fold in the "C" locale, which no program here
/// changes, inlined: the index orders thousands of names per table.
unsigned char fold(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u + ('a' - 'A'))
                              : u;
}

/// Case-insensitive strict order; names it does not order are iequals.
bool iless(std::string_view a, std::string_view b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](char x, char y) { return fold(x) < fold(y); });
}

}  // namespace

SignalTable::SignalTable(std::vector<std::string> names)
    : names_(std::move(names)),
      columns_(names_.size()),
      by_name_(names_.size()) {
  std::iota(by_name_.begin(), by_name_.end(), std::size_t{0});
  std::stable_sort(by_name_.begin(), by_name_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return iless(names_[a], names_[b]);
                   });
}

std::size_t SignalTable::find(const std::string& name) const {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](std::size_t i, const std::string& key) {
        return iless(names_[i], key);
      });
  if (it == by_name_.end() || !util::iequals(names_[*it], name)) {
    return names_.size();
  }
  return *it;
}

bool SignalTable::has(const std::string& name) const {
  return find(name) != names_.size();
}

const std::vector<double>& SignalTable::signal(const std::string& name) const {
  const std::size_t i = find(name);
  if (i != names_.size()) return columns_[i];
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
