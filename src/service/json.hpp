// Minimal JSON value model for the NDJSON service protocol.
//
// Hand-rolled on purpose: the daemon must not pull in external
// dependencies, and the protocol needs only the JSON core — objects,
// arrays, strings, numbers, booleans, null. Two properties matter more
// than generality:
//
//  - parse errors carry 1-based line/column positions (a malformed request
//    line must produce a structured, pinpointed rejection, never a hang or
//    a vague message), and
//  - object members keep insertion order, so serialized responses are
//    deterministic and the soak test can compare transcripts textually.
//
// Numbers are doubles; integral values within the exact-double range print
// without a fractional part, everything else uses round-trip precision
// ("%.17g"), so hexfloat-critical payloads (checkpoint codecs) stay out of
// JSON numbers and travel as strings instead. json_number() is the one
// number serializer: it prints through std::to_chars, whose bytes are
// printf's "%lld" / "%.17g" bytes without printf's format parsing.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace softfet::service {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue string(std::string v);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors throw softfet::Error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Object lookup: nullptr when absent (or when this is not an object).
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  /// Convenience lookups with defaults for optional request fields.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;

  /// Builder helpers (no-ops unless this value is the right kind).
  JsonValue& set(std::string key, JsonValue value);  ///< object member
  JsonValue& push(JsonValue value);                  ///< array element

  /// Compact single-line serialization (NDJSON-safe: no raw newlines).
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parse one JSON document (the full text must be consumed, trailing
/// whitespace aside). Throws softfet::ParseError with the 1-based line and
/// column of the offending character.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Append the JSON text of number `v` to `out`: "%lld" bytes for integers
/// below 9e15 in magnitude, "%.17g" bytes otherwise, `null` when not finite.
/// JsonValue::dump() prints every number through it; hot paths that write
/// JSON text directly (waveform chunks) call it to stay byte-identical.
void json_number(double v, std::string& out);

/// Escape a string into a JSON string literal (with quotes).
[[nodiscard]] std::string json_quote(std::string_view text);

/// 0-based byte offset of the opening quote of the top-level string value
/// for `key` in a JSON object document (nullopt when absent or not a
/// string). Used to map positions inside escaped embedded netlists back to
/// request-line columns without retaining a full parse tree.
[[nodiscard]] std::optional<std::size_t> locate_string_value(
    std::string_view text, std::string_view key);

/// Map a 1-based (line, column) position inside the *decoded* value of the
/// string literal opening at `quote_offset` back to the 1-based column in
/// `text` itself, walking "\n"/"\t"/"\uXXXX" escapes. Returns nullopt when
/// the literal is malformed or too short to reach the position.
[[nodiscard]] std::optional<std::size_t> column_in_string_literal(
    std::string_view text, std::size_t quote_offset, int line, int column);

}  // namespace softfet::service
