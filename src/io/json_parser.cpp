#include "io/json_parser.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hmn::io {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::optional<std::uint32_t> json_u32(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_number();
  // floor(d) < d exactly when a finite d has a fractional part.
  if (!std::isfinite(d) || d < 0.0 || std::floor(d) < d ||
      d > static_cast<double>(std::numeric_limits<std::uint32_t>::max())) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(d);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::variant<JsonValue, JsonParseError> run() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) return error_;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  JsonParseError error_;

  JsonParseError fail(std::string message) {
    error_ = {std::move(message), pos_};
    return error_;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r')) {
      ++pos_;
    }
  }

  bool expect(char ch, const char* what) {
    if (at_end() || peek() != ch) {
      fail(std::string("expected ") + what);
      return false;
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': return parse_string_value(out);
      case 't': return parse_literal("true", JsonValue(true), out);
      case 'f': return parse_literal("false", JsonValue(false), out);
      case 'n': return parse_literal("null", JsonValue(nullptr), out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, JsonValue value, JsonValue& out) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
      return false;
    }
    pos_ += lit.size();
    out = std::move(value);
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last || start == pos_) {
      pos_ = start;
      fail("invalid number");
      return false;
    }
    out = JsonValue(value);
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!expect('"', "'\"'")) return false;
    out.clear();
    while (!at_end() && peek() != '"') {
      char ch = peek();
      if (ch == '\\') {
        ++pos_;
        if (at_end()) {
          fail("unterminated escape");
          return false;
        }
        switch (peek()) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // \uXXXX: decode the BMP code point to UTF-8 (surrogate pairs
            // outside spec-file needs are rejected).
            if (pos_ + 4 >= text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char hex = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (hex >= '0' && hex <= '9') code |= static_cast<unsigned>(hex - '0');
              else if (hex >= 'a' && hex <= 'f') code |= static_cast<unsigned>(hex - 'a' + 10);
              else if (hex >= 'A' && hex <= 'F') code |= static_cast<unsigned>(hex - 'A' + 10);
              else {
                fail("invalid \\u escape");
                return false;
              }
            }
            if (code >= 0xD800 && code <= 0xDFFF) {
              fail("surrogate pairs not supported");
              return false;
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            pos_ += 4;
            break;
          }
          default:
            fail("unknown escape");
            return false;
        }
        ++pos_;
      } else {
        out += ch;
        ++pos_;
      }
    }
    return expect('"', "closing '\"'");
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue(std::move(s));
    return true;
  }

  bool parse_array(JsonValue& out) {
    if (!expect('[', "'['")) return false;
    JsonArray array;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      out = JsonValue(std::move(array));
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue element;
      if (!parse_value(element)) return false;
      array.push_back(std::move(element));
      skip_ws();
      if (at_end()) {
        fail("unterminated array");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        out = JsonValue(std::move(array));
        return true;
      }
      fail("expected ',' or ']'");
      return false;
    }
  }

  bool parse_object(JsonValue& out) {
    if (!expect('{', "'{'")) return false;
    JsonObject object;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      out = JsonValue(std::move(object));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!expect(':', "':'")) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      object.insert_or_assign(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) {
        fail("unterminated object");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        out = JsonValue(std::move(object));
        return true;
      }
      fail("expected ',' or '}'");
      return false;
    }
  }
};

}  // namespace

std::variant<JsonValue, JsonParseError> parse_json(std::string_view text) {
  return Parser(text).run();
}

JsonValue parse_json_or_throw(std::string_view text) {
  auto result = parse_json(text);
  if (auto* err = std::get_if<JsonParseError>(&result)) {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(err->offset) + ": " +
                             err->message);
  }
  return std::get<JsonValue>(std::move(result));
}

}  // namespace hmn::io
