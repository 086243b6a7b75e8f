#include "netlist/elaborate.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "devices/capacitor.hpp"
#include "devices/controlled.hpp"
#include "devices/diode.hpp"
#include "devices/inductor.hpp"
#include "devices/mosfet.hpp"
#include "devices/ptm.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "devices/tech40.hpp"
#include "devices/vswitch.hpp"
#include "netlist/expression.hpp"
#include "netlist/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace softfet::netlist {

namespace {

namespace sd = softfet::devices;
namespace t40 = softfet::devices::tech40;

/// Evaluate a value token: "{expr}", a number with suffix, or a bare
/// parameter name.
[[nodiscard]] double eval_value(const std::string& token,
                                const ParamScope& scope, int line) {
  try {
    if (token.size() >= 2 && token.front() == '{' && token.back() == '}') {
      return evaluate_expression(
          std::string_view(token).substr(1, token.size() - 2), scope);
    }
    if (const auto number = util::parse_spice_number(token)) return *number;
    if (scope.has(token)) return scope.get(token);
    // Last resort: a brace-free expression ("vcc/2").
    return evaluate_expression(token, scope);
  } catch (const Error& e) {
    throw ParseError(std::string("bad value '") + token + "': " + e.what(),
                     line);
  }
}

[[nodiscard]] bool is_assignment(const std::string& token) {
  const auto eq = token.find('=');
  return eq != std::string::npos && eq > 0 && eq + 1 < token.size();
}

/// Index of the first name=value token of an instance card (its size when
/// there is none). The subckt name sits just before it.
[[nodiscard]] std::size_t first_assignment(
    const std::vector<std::string>& tokens) {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    if (is_assignment(tokens[i])) return i;
  }
  return tokens.size();
}

// Bounds on hostile input, far above any real netlist: each subckt level
// costs stack in the recursive expansion, and a subckt instantiating its
// child twice per level doubles the device count with every level.
constexpr std::size_t kMaxSubcktDepth = 100;
constexpr std::size_t kMaxSubcktDevices = 1000000;

struct Assignments {
  std::map<std::string, std::string> raw;

  [[nodiscard]] bool has(const std::string& key) const {
    return raw.count(key) != 0;
  }
  [[nodiscard]] double value(const std::string& key, double fallback,
                             const ParamScope& scope, int line) const {
    const auto it = raw.find(key);
    if (it == raw.end()) return fallback;
    return eval_value(it->second, scope, line);
  }
};

[[nodiscard]] Assignments collect_assignments(
    const std::vector<std::string>& tokens, std::size_t from, int line) {
  Assignments out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (!is_assignment(tokens[i])) {
      throw ParseError("expected name=value, got '" + tokens[i] + "'", line);
    }
    const auto eq = tokens[i].find('=');
    out.raw[util::to_lower(tokens[i].substr(0, eq))] = tokens[i].substr(eq + 1);
  }
  return out;
}

class Elaborator {
 public:
  explicit Elaborator(const NetlistAst& ast) : ast_(ast) {}

  ElaboratedNetlist run() {
    ElaboratedNetlist out;
    out.title = ast_.title;
    out.circuit = std::make_unique<sim::Circuit>();
    out.tran = ast_.tran;
    out.dc = ast_.dc;
    out.ac = ast_.ac;
    out.op = ast_.op;
    for (const auto& card : ast_.measures) {
      MeasureDirective directive;
      directive.line = card.line;
      directive.analysis = card.analysis;
      directive.name = card.name;
      directive.tokens = card.tokens;
      out.measures.push_back(std::move(directive));
    }
    circuit_ = out.circuit.get();

    ParamScope globals;
    for (const auto& [name, value] : ast_.params) {
      globals.set(name, eval_value(value, globals, 0));
    }
    for (const auto& card : ast_.top_devices) {
      instantiate(card, "", {}, globals);
    }
    return out;
  }

 private:
  using NodeMap = std::map<std::string, std::string>;

  /// Resolve a node token to a flat node name given the instance context.
  [[nodiscard]] std::string resolve_node(const std::string& token,
                                         const std::string& prefix,
                                         const NodeMap& port_map) const {
    const std::string lowered = util::to_lower(token);
    if (lowered == "0" || lowered == "gnd" || lowered == "ground" ||
        lowered == "vss!") {
      return "0";
    }
    const auto it = port_map.find(lowered);
    if (it != port_map.end()) return it->second;
    return prefix.empty() ? lowered : prefix + lowered;
  }

  [[nodiscard]] const ModelCard& find_model(const std::string& name,
                                            int line) const {
    const auto it = ast_.models.find(util::to_lower(name));
    if (it == ast_.models.end()) {
      throw ParseError("unknown model '" + name + "'", line);
    }
    return it->second;
  }

  [[nodiscard]] sd::MosfetModel mosfet_model(const ModelCard& card,
                                             const ParamScope& scope) const {
    sd::MosfetModel model =
        (card.type == "pmos") ? t40::pmos() : t40::nmos();
    Assignments a;
    a.raw = card.params;
    model.vt0 = a.value("vt0", model.vt0, scope, card.line);
    model.n = a.value("n", model.n, scope, card.line);
    model.kp = a.value("kp", model.kp, scope, card.line);
    model.lambda = a.value("lambda", model.lambda, scope, card.line);
    model.theta = a.value("theta", model.theta, scope, card.line);
    model.cox = a.value("cox", model.cox, scope, card.line);
    model.cov = a.value("cov", model.cov, scope, card.line);
    model.cj = a.value("cj", model.cj, scope, card.line);
    return model;
  }

  [[nodiscard]] sd::PtmParams ptm_params(const ModelCard& card,
                                         const ParamScope& scope) const {
    sd::PtmParams params;
    Assignments a;
    a.raw = card.params;
    params.r_ins = a.value("rins", params.r_ins, scope, card.line);
    params.r_met = a.value("rmet", params.r_met, scope, card.line);
    params.v_imt = a.value("vimt", params.v_imt, scope, card.line);
    params.v_mit = a.value("vmit", params.v_mit, scope, card.line);
    params.t_ptm = a.value("tptm", params.t_ptm, scope, card.line);
    return params;
  }

  /// Parse a source waveform from tokens starting at `from`.
  [[nodiscard]] sd::SourceSpec source_spec(
      const std::vector<std::string>& tokens, std::size_t from,
      const ParamScope& scope, int line) const {
    if (from >= tokens.size()) return sd::SourceSpec::dc(0.0);
    sd::SourceSpec spec = sd::SourceSpec::dc(0.0);
    double ac_magnitude = 0.0;
    std::size_t i = from;
    while (i < tokens.size()) {
      const std::string kind = util::to_lower(tokens[i]);
      if (kind == "dc") {
        if (i + 1 >= tokens.size()) throw ParseError("dc needs a value", line);
        spec = sd::SourceSpec::dc(eval_value(tokens[i + 1], scope, line));
        i += 2;
      } else if (kind == "ac") {
        if (i + 1 >= tokens.size()) throw ParseError("ac needs a value", line);
        ac_magnitude = eval_value(tokens[i + 1], scope, line);
        i += 2;
      } else if (kind == "pulse") {
        std::vector<double> v;
        for (++i; i < tokens.size(); ++i) v.push_back(eval_value(tokens[i], scope, line));
        if (v.size() < 6) throw ParseError("pulse needs v1 v2 td tr tf pw [per]", line);
        spec = sd::SourceSpec::pulse(v[0], v[1], v[2], v[3], v[4], v[5],
                                     v.size() > 6 ? v[6] : 0.0);
      } else if (kind == "pwl") {
        std::vector<double> v;
        for (++i; i < tokens.size(); ++i) v.push_back(eval_value(tokens[i], scope, line));
        if (v.size() < 4 || v.size() % 2 != 0) {
          throw ParseError("pwl needs t/v pairs", line);
        }
        std::vector<numeric::PwlPoint> points;
        for (std::size_t k = 0; k < v.size(); k += 2) {
          points.push_back({v[k], v[k + 1]});
        }
        try {
          spec = sd::SourceSpec::pwl(std::move(points));
        } catch (const Error& e) {
          throw ParseError(e.what(), line);
        }
      } else if (kind == "sin") {
        std::vector<double> v;
        for (++i; i < tokens.size(); ++i) v.push_back(eval_value(tokens[i], scope, line));
        if (v.size() < 3) throw ParseError("sin needs vo va freq [td]", line);
        spec = sd::SourceSpec::sine(v[0], v[1], v[2], v.size() > 3 ? v[3] : 0.0);
      } else {
        // Bare value = DC.
        spec = sd::SourceSpec::dc(eval_value(tokens[i], scope, line));
        ++i;
      }
    }
    spec.set_ac_magnitude(ac_magnitude);
    return spec;
  }

  void instantiate(const DeviceCard& card, const std::string& prefix,
                   const NodeMap& port_map, const ParamScope& scope) {
    const std::vector<std::string>& tokens = card.tokens;
    const std::string name =
        prefix.empty() ? tokens[0] : prefix + util::to_lower(tokens[0]);
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(tokens[0].front())));
    const int line = card.line;
    const auto need = [&](std::size_t n) {
      if (tokens.size() < n) {
        throw ParseError("element '" + tokens[0] + "' needs at least " +
                             std::to_string(n - 1) + " fields",
                         line);
      }
    };
    const auto node = [&](std::size_t i) {
      return circuit_->node(resolve_node(tokens[i], prefix, port_map));
    };

    switch (kind) {
      case 'r': {
        need(4);
        circuit_->add<sd::Resistor>(name, node(1), node(2),
                                    eval_value(tokens[3], scope, line));
        return;
      }
      case 'c': {
        need(4);
        circuit_->add<sd::Capacitor>(name, node(1), node(2),
                                     eval_value(tokens[3], scope, line));
        return;
      }
      case 'l': {
        need(4);
        circuit_->add<sd::Inductor>(name, node(1), node(2),
                                    eval_value(tokens[3], scope, line));
        return;
      }
      case 'v': {
        need(3);
        circuit_->add<sd::VSource>(name, node(1), node(2),
                                   source_spec(tokens, 3, scope, line));
        return;
      }
      case 'i': {
        need(3);
        circuit_->add<sd::ISource>(name, node(1), node(2),
                                   source_spec(tokens, 3, scope, line));
        return;
      }
      case 'e': {
        need(6);
        circuit_->add<sd::Vcvs>(name, node(1), node(2), node(3), node(4),
                                eval_value(tokens[5], scope, line));
        return;
      }
      case 'g': {
        need(6);
        circuit_->add<sd::Vccs>(name, node(1), node(2), node(3), node(4),
                                eval_value(tokens[5], scope, line));
        return;
      }
      case 's': {
        need(6);
        const ModelCard& model = find_model(tokens[5], line);
        if (model.type != "sw") {
          throw ParseError("switch '" + tokens[0] + "' needs a sw model", line);
        }
        Assignments a;
        a.raw = model.params;
        sd::VSwitchParams params;
        params.r_on = a.value("ron", params.r_on, scope, line);
        params.r_off = a.value("roff", params.r_off, scope, line);
        params.v_threshold = a.value("vt", params.v_threshold, scope, line);
        params.v_width = a.value("vw", params.v_width, scope, line);
        circuit_->add<sd::VSwitch>(name, node(1), node(2), node(3), node(4),
                                   params);
        return;
      }
      case 'd': {
        need(3);
        sd::DiodeParams params;
        if (tokens.size() > 3 && !is_assignment(tokens[3])) {
          const ModelCard& model = find_model(tokens[3], line);
          if (model.type != "d") {
            throw ParseError("diode '" + tokens[0] + "' needs a d model", line);
          }
          Assignments a;
          a.raw = model.params;
          params.i_sat = a.value("is", params.i_sat, scope, line);
          params.emission = a.value("n", params.emission, scope, line);
        }
        circuit_->add<sd::Diode>(name, node(1), node(2), params);
        return;
      }
      case 'm': {
        need(6);
        const ModelCard& model_card = find_model(tokens[5], line);
        if (model_card.type != "nmos" && model_card.type != "pmos") {
          throw ParseError("mosfet '" + tokens[0] + "' needs nmos/pmos model",
                           line);
        }
        const sd::MosfetModel model = mosfet_model(model_card, scope);
        const Assignments a = collect_assignments(tokens, 6, line);
        sd::MosfetDims dims = (model.polarity == sd::MosPolarity::kNmos)
                                  ? t40::min_nmos_dims()
                                  : t40::min_pmos_dims();
        dims.w = a.value("w", dims.w, scope, line);
        dims.l = a.value("l", dims.l, scope, line);
        dims.m = a.value("m", dims.m, scope, line);
        circuit_->add<sd::Mosfet>(name, node(1), node(2), node(3), node(4),
                                  model, dims);
        return;
      }
      case 'p': {
        need(4);
        const ModelCard& model_card = find_model(tokens[3], line);
        if (model_card.type != "ptm") {
          throw ParseError("ptm '" + tokens[0] + "' needs a ptm model", line);
        }
        try {
          circuit_->add<sd::Ptm>(name, node(1), node(2),
                                 ptm_params(model_card, scope));
        } catch (const InvalidCircuitError& e) {
          throw ParseError(e.what(), line);
        }
        return;
      }
      case 'x': {
        need(3);
        subcircuit(card, name, prefix, port_map, scope);
        return;
      }
      default:
        throw ParseError(std::string("unknown element type '") +
                             tokens[0].front() + "'",
                         line);
    }
  }

  void subcircuit(const DeviceCard& card, const std::string& name,
                  const std::string& prefix, const NodeMap& port_map,
                  const ParamScope& scope) {
    const std::vector<std::string>& tokens = card.tokens;
    const int line = card.line;
    // Layout: X<name> node1 ... nodeN subcktName [param=value ...]
    const std::size_t assignments = first_assignment(tokens);
    if (assignments < 3) {
      throw ParseError("subcircuit instance needs nodes and a name", line);
    }
    const std::string subckt_name = util::to_lower(tokens[assignments - 1]);
    const auto it = ast_.subckts.find(subckt_name);
    if (it == ast_.subckts.end()) {
      throw ParseError("unknown subcircuit '" + subckt_name + "'", line);
    }
    // A subckt that instantiates itself, directly or through others, would
    // expand forever: name the cycle instead.
    const auto open = std::find(expanding_.begin(), expanding_.end(), subckt_name);
    if (open != expanding_.end()) {
      std::string cycle;
      for (auto at = open; at != expanding_.end(); ++at) {
        cycle += *at;
        cycle += " -> ";
      }
      cycle += subckt_name;
      throw ParseError("recursive subcircuit: " + cycle, line);
    }
    if (expanding_.empty()) {
      // A top-level instance: bound its whole expansion before starting it.
      const Extent whole = extent(subckt_name, 1);
      if (whole.depth > kMaxSubcktDepth) {
        throw ParseError("subcircuit nesting deeper than " +
                             std::to_string(kMaxSubcktDepth) + " levels",
                         line);
      }
      expanded_devices_ += whole.devices;
      if (expanded_devices_ > kMaxSubcktDevices) {
        throw ParseError("subcircuits expand to more than " +
                             std::to_string(kMaxSubcktDevices) + " devices",
                         line);
      }
    }
    const SubcktDef& def = it->second;
    const std::size_t node_count = assignments - 2;
    if (node_count != def.ports.size()) {
      throw ParseError("subcircuit '" + subckt_name + "' expects " +
                           std::to_string(def.ports.size()) + " nodes, got " +
                           std::to_string(node_count),
                       line);
    }

    // Port map: subckt port name -> flat parent node name.
    NodeMap inner_map;
    for (std::size_t i = 0; i < def.ports.size(); ++i) {
      inner_map[def.ports[i]] = resolve_node(tokens[1 + i], prefix, port_map);
    }

    // Parameter scope: defaults overridden by instance assignments,
    // evaluated in the parent scope.
    ParamScope inner(&scope);
    const Assignments overrides =
        collect_assignments(tokens, assignments, line);
    for (const auto& [pname, pdefault] : def.default_params) {
      const auto ov = overrides.raw.find(pname);
      const std::string& source = (ov != overrides.raw.end()) ? ov->second
                                                              : pdefault;
      inner.set(pname, eval_value(source, scope, line));
    }
    for (const auto& [pname, pvalue] : overrides.raw) {
      bool known = false;
      for (const auto& [dname, dvalue] : def.default_params) {
        (void)dvalue;
        if (dname == pname) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw ParseError("subcircuit '" + subckt_name +
                             "' has no parameter '" + pname + "'",
                         line);
      }
    }

    const std::string inner_prefix = util::to_lower(name) + ".";
    expanding_.push_back(subckt_name);
    for (const DeviceCard& inner_card : def.devices) {
      instantiate(inner_card, inner_prefix, inner_map, inner);
    }
    expanding_.pop_back();
  }

  /// Nesting depth and device count of a subckt's full expansion.
  struct Extent {
    std::size_t depth = 0;
    std::size_t devices = 0;
  };

  /// Extent of `subckt_name` entered at nesting level `level`, each field
  /// capped one past its limit (the walk stops there too). Memoized. A subckt
  /// already on the walk is a cycle, and an unknown one an error, that the
  /// expansion reports with its line; both count as empty here.
  Extent extent(const std::string& subckt_name, std::size_t level) {
    if (level > kMaxSubcktDepth) return {kMaxSubcktDepth + 1, 0};
    const auto it = ast_.subckts.find(subckt_name);
    if (it == ast_.subckts.end()) return {};
    if (const auto memo = extents_.find(subckt_name); memo != extents_.end()) {
      return memo->second;
    }
    extents_[subckt_name] = {};  // on the walk
    Extent total{1, 0};
    for (const DeviceCard& card : it->second.devices) {
      const bool instance = std::tolower(static_cast<unsigned char>(
                                card.tokens[0].front())) == 'x';
      const std::size_t assignments = first_assignment(card.tokens);
      if (!instance || assignments < 3) {
        ++total.devices;
        continue;
      }
      const Extent child =
          extent(util::to_lower(card.tokens[assignments - 1]), level + 1);
      total.depth = std::min(std::max(total.depth, child.depth + 1),
                             kMaxSubcktDepth + 1);
      total.devices =
          std::min(total.devices + child.devices, kMaxSubcktDevices + 1);
    }
    extents_[subckt_name] = total;
    return total;
  }

  const NetlistAst& ast_;
  sim::Circuit* circuit_ = nullptr;
  std::vector<std::string> expanding_;  // subckts being expanded, outermost first
  std::map<std::string, Extent> extents_;
  std::size_t expanded_devices_ = 0;  // devices of the expanded subckts
};

}  // namespace

ElaboratedNetlist elaborate(const NetlistAst& ast) {
  return Elaborator(ast).run();
}

ElaboratedNetlist compile_netlist(std::string_view text) {
  return elaborate(parse(text));
}

ElaboratedNetlist compile_netlist_file(const std::string& path) {
  return elaborate(parse_file(path));
}

}  // namespace softfet::netlist
