#include "netlist/expression.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace softfet::netlist {

void ParamScope::set(const std::string& name, double value) {
  values_[util::to_lower(name)] = value;
}

bool ParamScope::has(const std::string& name) const {
  if (values_.count(util::to_lower(name)) != 0) return true;
  return parent_ != nullptr && parent_->has(name);
}

double ParamScope::get(const std::string& name) const {
  const auto it = values_.find(util::to_lower(name));
  if (it != values_.end()) return it->second;
  if (parent_ != nullptr) return parent_->get(name);
  throw Error("undefined parameter: '" + name + "'");
}

namespace {

/// Deepest nesting of parentheses, `^` exponents and function calls one
/// expression may use. Far above any real netlist; it bounds the parser's
/// recursion, so a hostile expression is a parse error, not a stack
/// overflow.
constexpr int kMaxNesting = 256;

class Parser {
 public:
  Parser(std::string_view text, const ParamScope& scope)
      : text_(text), scope_(scope) {}

  [[nodiscard]] double parse() {
    const double v = expr();
    skip_ws();
    if (pos_ != text_.size()) {
      throw Error("unexpected trailing input in expression: '" +
                  std::string(text_.substr(pos_)) + "'");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  double expr() {
    double v = term();
    while (true) {
      if (consume('+')) {
        v += term();
      } else if (consume('-')) {
        v -= term();
      } else {
        return v;
      }
    }
  }

  double term() {
    double v = factor();
    while (true) {
      if (consume('*')) {
        v *= factor();
      } else if (consume('/')) {
        v /= factor();
      } else {
        return v;
      }
    }
  }

  // Every recursive path (parentheses, `^`, function arguments) passes
  // through factor(), so the nesting limit is enforced here.
  double factor() {
    if (++depth_ > kMaxNesting) {
      throw Error("expression nested deeper than " +
                  std::to_string(kMaxNesting) + " levels");
    }
    const double base = unary();
    const double v = consume('^') ? std::pow(base, factor()) : base;
    --depth_;
    return v;
  }

  double unary() {
    bool negate = false;
    while (true) {
      if (consume('-')) {
        negate = !negate;
      } else if (!consume('+')) {
        break;
      }
    }
    const double v = primary();
    return negate ? -v : v;
  }

  double primary() {
    skip_ws();
    if (pos_ >= text_.size()) throw Error("expression ended unexpectedly");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      const double v = expr();
      if (!consume(')')) throw Error("missing ')' in expression");
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      return number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      return identifier();
    }
    throw Error(std::string("unexpected character '") + c + "' in expression");
  }

  double number() {
    const std::size_t start = pos_;
    // Mantissa.
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.')) {
      ++pos_;
    }
    // Exponent or engineering suffix (letters).
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      std::size_t probe = pos_ + 1;
      if (probe < text_.size() && (text_[probe] == '+' || text_[probe] == '-')) {
        ++probe;
      }
      if (probe < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[probe])) != 0) {
        pos_ = probe;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
          ++pos_;
        }
      }
    }
    // Engineering suffix letters (meg, k, p, ...), stop at operators.
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    return util::parse_spice_number_or_throw(text_.substr(start, pos_ - start));
  }

  double identifier() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_' || text_[pos_] == '.')) {
      ++pos_;
    }
    const std::string name(text_.substr(start, pos_ - start));
    if (peek() == '(') return function_call(name);
    return scope_.get(name);
  }

  double function_call(const std::string& name) {
    if (!consume('(')) throw Error("expected '('");
    std::vector<double> args;
    if (peek() != ')') {
      args.push_back(expr());
      while (consume(',')) args.push_back(expr());
    }
    if (!consume(')')) throw Error("missing ')' after function arguments");
    const std::string fn = util::to_lower(name);
    const auto need = [&](std::size_t n) {
      if (args.size() != n) {
        throw Error("function " + fn + " expects " + std::to_string(n) +
                    " argument(s)");
      }
    };
    if (fn == "abs") {
      need(1);
      return std::fabs(args[0]);
    }
    if (fn == "sqrt") {
      need(1);
      return std::sqrt(args[0]);
    }
    if (fn == "exp") {
      need(1);
      return std::exp(args[0]);
    }
    if (fn == "ln") {
      need(1);
      return std::log(args[0]);
    }
    if (fn == "log10") {
      need(1);
      return std::log10(args[0]);
    }
    if (fn == "pow") {
      need(2);
      return std::pow(args[0], args[1]);
    }
    if (fn == "min") {
      need(2);
      return std::min(args[0], args[1]);
    }
    if (fn == "max") {
      need(2);
      return std::max(args[0], args[1]);
    }
    throw Error("unknown function: '" + fn + "'");
  }

  std::string_view text_;
  const ParamScope& scope_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

double evaluate_expression(std::string_view text, const ParamScope& scope) {
  return Parser(text, scope).parse();
}

}  // namespace softfet::netlist
