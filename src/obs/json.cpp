#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace krak::obs {

using util::check;

namespace {

void write_number(std::string& out, double value) {
  check(std::isfinite(value), "JSON cannot represent NaN or infinity");
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  util::require_internal(ec == std::errc{}, "number formatting failed");
  out.append(buffer, end);
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

bool Json::is_null() const {
  return std::holds_alternative<std::nullptr_t>(value_);
}
bool Json::is_bool() const { return std::holds_alternative<bool>(value_); }
bool Json::is_number() const { return std::holds_alternative<double>(value_); }
bool Json::is_string() const {
  return std::holds_alternative<std::string>(value_);
}
bool Json::is_array() const { return std::holds_alternative<Array>(value_); }
bool Json::is_object() const { return std::holds_alternative<Object>(value_); }

bool Json::as_bool() const {
  check(is_bool(), "JSON value is not a boolean");
  return std::get<bool>(value_);
}

double Json::as_double() const {
  check(is_number(), "JSON value is not a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  check(is_string(), "JSON value is not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  check(is_array(), "JSON value is not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  check(is_object(), "JSON value is not an object");
  return std::get<Object>(value_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  check(is_object(), "JSON operator[] requires an object");
  return std::get<Object>(value_)[key];
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& members = std::get<Object>(value_);
  const auto it = members.find(std::string(key));
  return it == members.end() ? nullptr : &it->second;
}

void Json::push_back(Json element) {
  if (is_null()) value_ = Array{};
  check(is_array(), "JSON push_back requires an array");
  std::get<Array>(value_).push_back(std::move(element));
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int levels) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_number()) {
    write_number(out, std::get<double>(value_));
  } else if (is_string()) {
    out += json_escape(std::get<std::string>(value_));
  } else if (is_array()) {
    const Array& elements = std::get<Array>(value_);
    if (elements.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Json& element : elements) {
      if (!first) out.push_back(',');
      first = false;
      newline_pad(depth + 1);
      element.write(out, indent, depth + 1);
    }
    newline_pad(depth);
    out.push_back(']');
  } else {
    const Object& members = std::get<Object>(value_);
    if (members.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, element] : members) {
      if (!first) out.push_back(',');
      first = false;
      newline_pad(depth + 1);
      out += json_escape(key);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      element.write(out, indent, depth + 1);
    }
    newline_pad(depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  check(indent >= 0, "dump indent must be non-negative");
  std::string out;
  write(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view with byte-offset
/// error reporting.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    check(pos_ == text_.size(), error("trailing characters after document"));
    return value;
  }

 private:
  [[nodiscard]] std::string error(std::string_view what) const {
    return "JSON parse error at byte " + std::to_string(pos_) + ": " +
           std::string(what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_whitespace();
    check(pos_ < text_.size(), error("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    check(peek() == c, error(std::string("expected '") + c + "'"));
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        check(depth_ < kMaxDepth, error("nesting deeper than " +
                                        std::to_string(kMaxDepth) + " levels"));
        ++depth_;
        Json nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json(parse_string());
      case 't':
        check(consume_literal("true"), error("invalid literal"));
        return Json(true);
      case 'f':
        check(consume_literal("false"), error("invalid literal"));
        return Json(false);
      case 'n':
        check(consume_literal("null"), error("invalid literal"));
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json out = Json::object();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      check(peek() == '"', error("expected object key"));
      std::string key = parse_string();
      expect(':');
      out[key] = parse_value();
      const char next = peek();
      ++pos_;
      if (next == '}') return out;
      check(next == ',', error("expected ',' or '}' in object"));
    }
  }

  Json parse_array() {
    expect('[');
    Json out = Json::array();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return out;
      check(next == ',', error("expected ',' or ']' in array"));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      check(pos_ < text_.size(), error("unterminated escape"));
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          check(pos_ + 4 <= text_.size(), error("truncated \\u escape"));
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          check(ec == std::errc{} && end == text_.data() + pos_ + 4,
                error("invalid \\u escape"));
          pos_ += 4;
          // Reports only need the control-character range; non-ASCII
          // text flows through unescaped as UTF-8 bytes.
          check(code < 0x80, error("\\u escape above ASCII unsupported"));
          out.push_back(static_cast<char>(code));
          break;
        }
        default: check(false, error("unknown escape character"));
      }
    }
    check(pos_ < text_.size(), error("unterminated string"));
    ++pos_;  // closing quote
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + text_.size(),
                        value);
    check(ec == std::errc{} && end != text_.data() + start,
          error("invalid number"));
    pos_ = static_cast<std::size_t>(end - text_.data());
    return Json(value);
  }

  /// Bound on nested arrays and objects. The recursion stays far from
  /// the stack limit on hostile input, and every document the repository
  /// writes nests well under ten levels.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace krak::obs
