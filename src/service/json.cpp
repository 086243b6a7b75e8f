#include "service/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace softfet::service {

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw Error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) kind_error("an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (!is_object()) kind_error("an object");
  return members_;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (is_object()) {
    for (auto& [name, existing] : members_) {
      if (name == key) {
        existing = std::move(value);
        return *this;
      }
    }
    members_.emplace_back(std::move(key), std::move(value));
  }
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  if (is_array()) items_.push_back(std::move(value));
  return *this;
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void json_number(double v, std::string& out) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; the protocol encodes such payloads as strings.
    out += "null";
    return;
  }
  // std::to_chars prints exactly what printf does in the "C" locale:
  // integers within the exact-double range as "%lld" so counters and
  // indices stay readable, everything else as round-trip "%.17g".
  char buf[32];
  const std::to_chars_result r =
      std::fabs(v) < 9.0e15 && v == std::trunc(v)
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

namespace {

void dump_value(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: json_number(v.as_number(), out); break;
    case JsonValue::Kind::kString: out += json_quote(v.as_string()); break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [name, value] : v.members()) {
        if (!first) out += ',';
        first = false;
        out += json_quote(name);
        out += ':';
        dump_value(value, out);
      }
      out += '}';
      break;
    }
  }
}

/// Recursive-descent parser with line/column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_whitespace();
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  // Bound on nesting so a hostile request ("[[[[...") cannot overflow the
  // stack; far beyond anything the protocol legitimately produces.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json: " + why, line_, column_);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  char take() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        take();
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    take();
  }

  void expect_keyword(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (eof() || peek() != *p) fail(std::string("bad literal"));
      take();
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::string(parse_string());
      case 't':
        expect_keyword("true");
        return JsonValue::boolean(true);
      case 'f':
        expect_keyword("false");
        return JsonValue::boolean(false);
      case 'n':
        expect_keyword("null");
        return JsonValue::null();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue out = JsonValue::object();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      take();
      return out;
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      out.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated object");
      const char c = take();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue out = JsonValue::array();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      take();
      return out;
    }
    while (true) {
      skip_whitespace();
      out.push(parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated array");
      const char c = take();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// The four hex digits of a \u escape.
  unsigned take_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      const char h = take();
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape digit");
      }
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = take();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = take_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate must be followed by an escaped low one; the
            // pair is one code point above the BMP.
            if (eof() || take() != '\\' || eof() || take() != 'u') {
              fail("unpaired high surrogate in \\u escape");
            }
            const unsigned low = take_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("unpaired high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          // UTF-8 encode the code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(std::string("bad escape '\\") + e + "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') take();
    while (!eof() && peek() >= '0' && peek() <= '9') take();
    if (!eof() && peek() == '.') {
      take();
      while (!eof() && peek() >= '0' && peek() <= '9') take();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      take();
      if (!eof() && (peek() == '+' || peek() == '-')) take();
      while (!eof() && peek() >= '0' && peek() <= '9') take();
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || token.empty() || token == "-") {
      fail("malformed number '" + token + "'");
    }
    return JsonValue::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::optional<std::size_t> locate_string_value(std::string_view text,
                                               std::string_view key) {
  // Token scan tracking depth: find `"key"` at depth 1, skip the colon, and
  // report the opening quote of its string value. No tree retained.
  int depth = 0;
  std::size_t i = 0;
  const auto skip_string = [&](std::size_t from) -> std::size_t {
    // from points at the opening quote; returns index past closing quote
    // (or text.size() when unterminated).
    std::size_t j = from + 1;
    while (j < text.size()) {
      if (text[j] == '\\') {
        j += 2;
        continue;
      }
      if (text[j] == '"') return j + 1;
      ++j;
    }
    return text.size();
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == '{' || c == '[') {
      ++depth;
      ++i;
    } else if (c == '}' || c == ']') {
      --depth;
      ++i;
    } else if (c == '"') {
      const std::size_t end = skip_string(i);
      const std::string_view token = text.substr(i + 1, end - i - 2);
      if (depth == 1 && token == key) {
        // Find the colon, then the value.
        std::size_t j = end;
        while (j < text.size() &&
               (text[j] == ' ' || text[j] == '\t' || text[j] == '\n' ||
                text[j] == '\r')) {
          ++j;
        }
        if (j < text.size() && text[j] == ':') {
          ++j;
          while (j < text.size() &&
                 (text[j] == ' ' || text[j] == '\t' || text[j] == '\n' ||
                  text[j] == '\r')) {
            ++j;
          }
          if (j < text.size() && text[j] == '"') return j;
          // The key's value is not a string; keep scanning (a nested
          // object later could hold the key, but at depth 1 keys are
          // unique in well-formed requests).
          i = j;
          continue;
        }
      }
      i = end;
    } else {
      ++i;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> column_in_string_literal(std::string_view text,
                                                    std::size_t quote_offset,
                                                    int line, int column) {
  if (quote_offset >= text.size() || text[quote_offset] != '"' || line < 1 ||
      column < 1) {
    return std::nullopt;
  }
  int cur_line = 1;
  int cur_column = 1;
  std::size_t i = quote_offset + 1;
  while (i < text.size() && text[i] != '"') {
    if (cur_line == line && cur_column == column) return i + 1;  // 1-based
    char decoded = text[i];
    std::size_t advance = 1;
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char e = text[i + 1];
      advance = 2;
      switch (e) {
        case 'n': decoded = '\n'; break;
        case 'r': decoded = '\r'; break;
        case 't': decoded = '\t'; break;
        case 'u': advance = (i + 5 < text.size()) ? 6 : text.size() - i;
                  decoded = '?';
                  break;
        default: decoded = e; break;
      }
    }
    if (decoded == '\n') {
      ++cur_line;
      cur_column = 1;
    } else {
      ++cur_column;
    }
    i += advance;
  }
  // Position at the very end of the last line (e.g. "unexpected EOF").
  if (cur_line == line && cur_column == column && i < text.size()) {
    return i + 1;
  }
  return std::nullopt;
}

}  // namespace softfet::service
