#include "netlist/parser.hpp"

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace softfet::netlist {

namespace {

struct Line {
  int number = 0;
  std::string text;
};

/// Strip inline comments (';' anywhere, '$' when preceded by whitespace).
[[nodiscard]] std::string strip_inline_comment(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == ';') break;
    if (c == '$' && (i == 0 || std::isspace(static_cast<unsigned char>(
                                   text[i - 1])) != 0)) {
      break;
    }
    out += c;
  }
  return out;
}

/// Physical lines -> logical lines ('+' continuation), comments removed.
/// The first non-blank line is kept even when it is a '*' comment: it is
/// the title line.
[[nodiscard]] std::vector<Line> logical_lines(std::string_view text) {
  std::vector<Line> lines;
  std::istringstream stream{std::string(text)};
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const std::string stripped = strip_inline_comment(raw);
    const std::string_view trimmed = util::trim(stripped);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '*' && !lines.empty()) continue;  // comment line
    if (trimmed.front() == '+') {
      if (lines.empty()) {
        throw ParseError("continuation line with nothing to continue", number);
      }
      lines.back().text += ' ';
      lines.back().text += trimmed.substr(1);
      continue;
    }
    lines.push_back({number, std::string(trimmed)});
  }
  return lines;
}

/// Tokenize one logical line. '(' ')' ',' count as whitespace outside
/// braces; '{...}' is kept as a single token; 'a = b' glues to 'a=b'.
[[nodiscard]] std::vector<std::string> tokenize(const std::string& text,
                                                int line) {
  std::vector<std::string> tokens;
  std::string current;
  int brace_depth = 0;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (const char c : text) {
    if (brace_depth > 0) {
      current += c;
      if (c == '{') ++brace_depth;
      if (c == '}') --brace_depth;
      continue;
    }
    if (c == '{') {
      current += c;
      ++brace_depth;
      continue;
    }
    if (c == '}') throw ParseError("unbalanced '}'", line);
    if (std::isspace(static_cast<unsigned char>(c)) != 0 || c == '(' ||
        c == ')' || c == ',') {
      flush();
      continue;
    }
    current += c;
  }
  if (brace_depth != 0) throw ParseError("unbalanced '{'", line);
  flush();

  // Glue 'name', '=', 'value' triples and 'name=' 'value' pairs.
  std::vector<std::string> glued;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok == "=") {
      if (glued.empty() || i + 1 >= tokens.size()) {
        throw ParseError("misplaced '='", line);
      }
      glued.back() += "=" + tokens[++i];
    } else if (!glued.empty() && glued.back().back() == '=') {
      glued.back() += tok;
    } else if (tok.size() > 1 && tok.front() == '=' ) {
      if (glued.empty()) throw ParseError("misplaced '='", line);
      glued.back() += tok;
    } else {
      glued.push_back(tok);
    }
  }
  return glued;
}

[[nodiscard]] bool is_assignment(const std::string& token) {
  const auto eq = token.find('=');
  return eq != std::string::npos && eq > 0 && eq + 1 < token.size();
}

[[nodiscard]] std::pair<std::string, std::string> split_assignment(
    const std::string& token, int line) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    throw ParseError("expected name=value, got '" + token + "'", line);
  }
  return {util::to_lower(token.substr(0, eq)), token.substr(eq + 1)};
}

[[nodiscard]] double parse_number_token(const std::string& token, int line) {
  const auto value = util::parse_spice_number(token);
  if (!value) {
    throw ParseError("expected a number, got '" + token + "'", line);
  }
  return *value;
}

/// A sweep bound or step: a number, and finite.
[[nodiscard]] double parse_sweep_token(const std::string& token, int line) {
  const double value = parse_number_token(token, line);
  if (!std::isfinite(value)) {
    throw ParseError("sweep value '" + token + "' is not finite", line);
  }
  return value;
}

/// Reject a sweep whose point list would pass kMaxSweepPoints entries.
void check_point_count(std::size_t points, const char* card, int line) {
  if (points > kMaxSweepPoints) {
    throw ParseError(std::string(card) + " sweep has more than " +
                         std::to_string(kMaxSweepPoints) + " points",
                     line);
  }
}

class AstBuilder {
 public:
  explicit AstBuilder(std::string include_dir)
      : include_dir_(std::move(include_dir)) {}

  NetlistAst build(std::string_view text) {
    NetlistAst ast;
    auto lines = logical_lines(text);
    std::size_t start = 0;
    // SPICE semantics: the first non-blank line is the title unless it is a
    // directive (".title Foo" is also accepted); a '*' title line drops
    // its comment marker.
    if (!lines.empty()) {
      const std::string lowered = util::to_lower(lines[0].text);
      if (util::istarts_with(lowered, ".title")) {
        ast.title = std::string(util::trim(lines[0].text.substr(6)));
        start = 1;
      } else if (lowered.front() == '*') {
        ast.title = std::string(util::trim(lines[0].text.substr(1)));
        start = 1;
      } else if (lowered.front() != '.') {
        ast.title = lines[0].text;
        start = 1;
      }
    }
    for (std::size_t i = start; i < lines.size(); ++i) {
      process_line(ast, lines[i]);
    }
    if (in_subckt_) {
      throw ParseError("missing .ends for subckt '" + current_subckt_.name +
                       "'", current_subckt_.line);
    }
    return ast;
  }

 private:
  void process_line(NetlistAst& ast, const Line& line) {
    if (ended_) return;
    auto tokens = tokenize(line.text, line.number);
    if (tokens.empty()) return;
    const std::string keyword = util::to_lower(tokens[0]);

    if (keyword.front() == '.') {
      directive(ast, keyword, tokens, line);
      return;
    }
    DeviceCard card;
    card.line = line.number;
    card.tokens = std::move(tokens);
    if (in_subckt_) {
      current_subckt_.devices.push_back(std::move(card));
    } else {
      ast.top_devices.push_back(std::move(card));
    }
  }

  void directive(NetlistAst& ast, const std::string& keyword,
                 const std::vector<std::string>& tokens, const Line& line) {
    if (keyword == ".end") {
      ended_ = true;
      return;
    }
    if (keyword == ".param") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        auto [name, value] = split_assignment(tokens[i], line.number);
        ast.params.emplace_back(name, value);
        ast.param_lines.push_back(line.number);
      }
      return;
    }
    if (keyword == ".model") {
      if (tokens.size() < 3) {
        throw ParseError(".model needs a name and a type", line.number);
      }
      ModelCard model;
      model.line = line.number;
      model.name = util::to_lower(tokens[1]);
      model.type = util::to_lower(tokens[2]);
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        auto [name, value] = split_assignment(tokens[i], line.number);
        model.params[name] = value;
      }
      ast.models[model.name] = std::move(model);
      return;
    }
    if (keyword == ".subckt") {
      if (in_subckt_) {
        throw ParseError("nested .subckt is not supported", line.number);
      }
      if (tokens.size() < 2) throw ParseError(".subckt needs a name", line.number);
      in_subckt_ = true;
      current_subckt_ = SubcktDef{};
      current_subckt_.line = line.number;
      current_subckt_.name = util::to_lower(tokens[1]);
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (is_assignment(tokens[i])) {
          auto [name, value] = split_assignment(tokens[i], line.number);
          current_subckt_.default_params.emplace_back(name, value);
        } else {
          current_subckt_.ports.push_back(util::to_lower(tokens[i]));
        }
      }
      return;
    }
    if (keyword == ".ends") {
      if (!in_subckt_) throw ParseError(".ends without .subckt", line.number);
      in_subckt_ = false;
      ast.subckts[current_subckt_.name] = std::move(current_subckt_);
      current_subckt_ = SubcktDef{};
      return;
    }
    if (keyword == ".tran") {
      if (tokens.size() < 3) {
        throw ParseError(".tran needs tstep and tstop", line.number);
      }
      TranDirective tran;
      tran.tstep = parse_sweep_token(tokens[1], line.number);
      tran.tstop = parse_sweep_token(tokens[2], line.number);
      if (!(tran.tstep > 0.0) || !(tran.tstop > 0.0)) {
        throw ParseError(".tran needs tstep > 0 and tstop > 0", line.number);
      }
      ast.tran = tran;
      return;
    }
    if (keyword == ".dc") {
      if (tokens.size() < 5) {
        throw ParseError(".dc needs source, start, stop, step", line.number);
      }
      DcDirective dc;
      dc.source = util::to_lower(tokens[1]);
      dc.start = parse_sweep_token(tokens[2], line.number);
      dc.stop = parse_sweep_token(tokens[3], line.number);
      dc.step = parse_sweep_token(tokens[4], line.number);
      check_point_count(dc.points(kMaxSweepPoints + 1).size(), ".dc",
                        line.number);
      ast.dc = dc;
      return;
    }
    if (keyword == ".ac") {
      if (tokens.size() < 5) {
        throw ParseError(".ac needs: dec|lin points fstart fstop",
                         line.number);
      }
      AcDirective ac;
      const std::string mode = util::to_lower(tokens[1]);
      if (mode == "dec") {
        ac.decade = true;
      } else if (mode == "lin") {
        ac.decade = false;
      } else {
        throw ParseError(".ac mode must be dec or lin", line.number);
      }
      const double points = parse_number_token(tokens[2], line.number);
      if (!(points >= 1.0 && points <= static_cast<double>(kMaxSweepPoints) &&
            points == std::floor(points))) {
        throw ParseError(".ac points must be an integer in [1, " +
                             std::to_string(kMaxSweepPoints) + "]",
                         line.number);
      }
      ac.points = static_cast<int>(points);
      ac.f_start = parse_sweep_token(tokens[3], line.number);
      ac.f_stop = parse_sweep_token(tokens[4], line.number);
      if (!(ac.f_start > 0.0) || !(ac.f_stop > ac.f_start)) {
        throw ParseError(".ac needs points >= 1 and 0 < fstart < fstop",
                         line.number);
      }
      check_point_count(ac.frequencies(kMaxSweepPoints + 1).size(), ".ac",
                        line.number);
      ast.ac = ac;
      return;
    }
    if (keyword == ".measure" || keyword == ".meas") {
      if (tokens.size() < 4) {
        throw ParseError(".measure needs: tran <name> <op> ...", line.number);
      }
      MeasureCard card;
      card.line = line.number;
      card.analysis = util::to_lower(tokens[1]);
      card.name = util::to_lower(tokens[2]);
      // The tokenizer treats parentheses as whitespace, splitting signal
      // references like "i(vdd)" into ["i", "vdd"]; re-join them here.
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const std::string lowered = util::to_lower(tokens[i]);
        const bool signal_prefix = lowered == "v" || lowered == "i" ||
                                   lowered == "id" || lowered == "r" ||
                                   lowered == "s";
        if (signal_prefix && i + 1 < tokens.size() &&
            !is_assignment(tokens[i + 1])) {
          card.tokens.push_back(lowered + "(" +
                                util::to_lower(tokens[i + 1]) + ")");
          ++i;
        } else {
          card.tokens.push_back(tokens[i]);
        }
      }
      ast.measures.push_back(std::move(card));
      return;
    }
    if (keyword == ".op") {
      ast.op = true;
      return;
    }
    if (keyword == ".include" || keyword == ".inc") {
      if (tokens.size() < 2) throw ParseError(".include needs a path", line.number);
      std::string path = tokens[1];
      if (path.size() >= 2 && (path.front() == '"' || path.front() == '\'')) {
        path = path.substr(1, path.size() - 2);
      }
      include(ast, path, line.number);
      return;
    }
    if (keyword == ".title") return;  // handled at the top
    if (keyword == ".options" || keyword == ".option" || keyword == ".print" ||
        keyword == ".probe" || keyword == ".plot" || keyword == ".save") {
      return;  // accepted and ignored
    }
    throw ParseError("unknown directive '" + keyword + "'", line.number);
  }

  void include(NetlistAst& ast, const std::string& path, int line) {
    namespace fs = std::filesystem;
    fs::path p(path);
    if (p.is_relative() && !include_dir_.empty()) {
      p = fs::path(include_dir_) / p;
    }
    std::ifstream file(p);
    if (!file) {
      throw ParseError("cannot open include file '" + p.string() + "'", line);
    }
    std::ostringstream content;
    content << file.rdbuf();
    AstBuilder sub(p.parent_path().string());
    NetlistAst inner = sub.build(content.str());
    // Merge: included files contribute definitions and devices, not
    // analyses/titles.
    for (auto& param : inner.params) ast.params.push_back(std::move(param));
    ast.param_lines.insert(ast.param_lines.end(), inner.param_lines.begin(),
                           inner.param_lines.end());
    for (auto& device : inner.top_devices) {
      ast.top_devices.push_back(std::move(device));
    }
    for (auto& [name, model] : inner.models) {
      ast.models[name] = std::move(model);
    }
    for (auto& [name, subckt] : inner.subckts) {
      ast.subckts[name] = std::move(subckt);
    }
  }

  std::string include_dir_;
  bool in_subckt_ = false;
  bool ended_ = false;
  SubcktDef current_subckt_;
};

}  // namespace

std::vector<double> AcDirective::frequencies(std::size_t limit) const {
  std::vector<double> freqs;
  if (decade) {
    const double step = 1.0 / points;
    for (double e = std::log10(f_start);
         freqs.size() < limit && e <= std::log10(f_stop) + 1e-12; e += step) {
      freqs.push_back(std::pow(10.0, e));
    }
    return freqs;
  }
  if (points == 1) return {f_start};
  for (int i = 0; i < points && freqs.size() < limit; ++i) {
    freqs.push_back(f_start + (f_stop - f_start) * i / (points - 1));
  }
  return freqs;
}

std::vector<double> DcDirective::points(std::size_t limit) const {
  std::vector<double> values;
  if (step == 0.0) {
    values.push_back(start);
    return values;
  }
  // The accumulated `v += step` defines the sweep: a step lost to rounding
  // never advances, and only `limit` ends it.
  const double direction = (stop >= start) ? 1.0 : -1.0;
  const double magnitude = std::abs(step) * direction;
  for (double v = start;
       values.size() < limit && (direction > 0
                                     ? v <= stop + 1e-12 * std::abs(step)
                                     : v >= stop - 1e-12 * std::abs(step));
       v += magnitude) {
    values.push_back(v);
  }
  return values;
}

NetlistAst parse(std::string_view text) {
  return AstBuilder("").build(text);
}

NetlistAst parse_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open netlist file '" + path + "'");
  std::ostringstream content;
  content << file.rdbuf();
  return AstBuilder(std::filesystem::path(path).parent_path().string())
      .build(content.str());
}

}  // namespace softfet::netlist
