// Minimal JSON parser (RFC 8259 subset) for loading cluster / virtual
// environment specifications.
//
// Scope: everything the library's own writers emit plus hand-written spec
// files — objects, arrays, strings with the common escapes, numbers, bools,
// null.  No comments, no trailing commas.  Parse errors carry a byte
// offset.  The DOM is a value type; deep copies are fine at spec-file
// sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace hmn::io {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps members ordered for deterministic re-serialization.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  using Storage = std::variant<std::nullptr_t, bool, double, std::string,
                               JsonArray, JsonObject>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value_);
  }

  // Checked accessors; precondition: matching type.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const JsonArray& as_array() const {
    return std::get<JsonArray>(value_);
  }
  [[nodiscard]] const JsonObject& as_object() const {
    return std::get<JsonObject>(value_);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Convenience: member as number with default.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;

 private:
  Storage value_;
};

/// `v` as a whole number in [0, 2^32): the one reader of JSON ids and
/// counts.  nullopt for a non-number and for 0.5, -1, 1e300 or 4294967296,
/// so no caller casts a double that does not fit.
[[nodiscard]] std::optional<std::uint32_t> json_u32(const JsonValue& v);

struct JsonParseError {
  std::string message;
  std::size_t offset = 0;  // byte offset into the input
};

/// Parses a complete JSON document.  Returns the value or an error; the
/// whole input must be consumed (trailing garbage is an error).
[[nodiscard]] std::variant<JsonValue, JsonParseError> parse_json(
    std::string_view text);

/// Throwing wrapper for contexts where a malformed spec is fatal.
[[nodiscard]] JsonValue parse_json_or_throw(std::string_view text);

}  // namespace hmn::io
