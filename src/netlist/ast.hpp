// Parsed (but not yet elaborated) netlist structures.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace softfet::netlist {

/// One element card, tokenized: tokens[0] is the element name.
struct DeviceCard {
  int line = 0;
  std::vector<std::string> tokens;
};

/// .model <name> <type> [param=value ...]
struct ModelCard {
  int line = 0;
  std::string name;
  std::string type;  // nmos | pmos | ptm | d | sw
  std::map<std::string, std::string> params;
};

/// .subckt <name> <ports...> [param=default ...] ... .ends
struct SubcktDef {
  int line = 0;
  std::string name;
  std::vector<std::string> ports;
  std::vector<std::pair<std::string, std::string>> default_params;
  std::vector<DeviceCard> devices;
};

/// Largest point list a .dc or .ac card may expand to; the parser rejects
/// any sweep that would pass it.
inline constexpr std::size_t kMaxSweepPoints = 1'000'000;

/// .ac dec <points-per-decade> <f_start> <f_stop>  (or "lin <n> f1 f2")
struct AcDirective {
  bool decade = true;   ///< false = linear spacing
  int points = 10;      ///< per decade (dec) or total (lin)
  double f_start = 1.0;
  double f_stop = 1e9;

  /// Expand into the frequency grid (its first `limit` entries).
  [[nodiscard]] std::vector<double> frequencies(
      std::size_t limit = static_cast<std::size_t>(-1)) const;
};

/// .tran <tstep> <tstop>
struct TranDirective {
  double tstep = 0.0;  ///< suggested max step (advisory; engine is adaptive)
  double tstop = 0.0;
};

/// .dc <source> <start> <stop> <step>
struct DcDirective {
  std::string source;
  double start = 0.0;
  double stop = 0.0;
  double step = 0.0;

  /// Expand into the list of sweep points (its first `limit` entries).
  [[nodiscard]] std::vector<double> points(
      std::size_t limit = static_cast<std::size_t>(-1)) const;
};

/// .measure card captured for post-analysis evaluation.
struct MeasureCard {
  int line = 0;
  std::string analysis;
  std::string name;
  std::vector<std::string> tokens;
};

struct NetlistAst {
  std::string title;
  std::vector<std::pair<std::string, std::string>> params;  // ordered
  std::vector<int> param_lines;  // source line of each params entry
  std::vector<DeviceCard> top_devices;
  std::map<std::string, ModelCard> models;    // lower-case names
  std::map<std::string, SubcktDef> subckts;   // lower-case names
  std::optional<TranDirective> tran;
  std::optional<DcDirective> dc;
  std::optional<AcDirective> ac;
  std::vector<MeasureCard> measures;
  bool op = false;
};

}  // namespace softfet::netlist
