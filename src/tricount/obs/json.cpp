#include "tricount/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tricount::obs::json {

Value Value::array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

bool Value::is_uint() const {
  // Converting a double at or past 2^64 to uint64_t is undefined.
  return type_ == Type::kNumber && number_ >= 0 &&
         std::floor(number_) == number_ && number_ < 0x1p64;
}

std::uint64_t Value::as_uint() const {
  if (!is_uint()) throw std::runtime_error("json: not an integer in [0, 2^64)");
  return static_cast<std::uint64_t>(number_);
}

bool Value::is_int(int lo, int hi) const {
  // Every int is exact as a double, so the bounds are checked before any
  // conversion: converting a double outside int's range is undefined.
  return type_ == Type::kNumber && std::floor(number_) == number_ &&
         number_ >= lo && number_ <= hi;
}

int Value::as_int(int lo, int hi) const {
  if (!is_int(lo, hi)) {
    throw std::runtime_error("json: not an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
  }
  return static_cast<int>(number_);
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

void Value::push_back(Value v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  array_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

const Value& Value::at(std::size_t index) const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  if (index >= array_.size()) throw std::runtime_error("json: index out of range");
  return array_[index];
}

Value& Value::set(const std::string& key, Value v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  object_.emplace_back(key, std::move(v));
  return object_.back().second;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::get(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return object_;
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no inf/nan; null is the least-bad encoding
    return;
  }
  if (std::floor(n) == n && std::fabs(n) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: number_to(out, number_); return;
    case Type::kString: escape_to(out, string_); return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_to(out, object_[i].first);
        out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view with a cursor.

namespace {

class Parser {
 public:
  Parser(std::string_view text, const ParseLimits& limits)
      : text_(text), limits_(limits) {}

  Value parse_document() {
    if (limits_.max_bytes > 0 && text_.size() > limits_.max_bytes) {
      throw ParseError(ParseError::Kind::kTooLarge, 0,
                       "document exceeds " +
                           std::to_string(limits_.max_bytes) + " bytes");
    }
    Value v = parse_value();
    skip_ws();
    if (at_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(ParseError::Kind::kMalformed, at_, what);
  }

  /// End-of-input mid-document: distinct from malformed so socket readers
  /// can tell "garbage" from "incomplete".
  [[noreturn]] void fail_truncated(const std::string& what) const {
    throw ParseError(ParseError::Kind::kTruncated, at_, what);
  }

  /// RAII depth guard around every array/object recursion.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (parser_.limits_.max_depth > 0 &&
          parser_.depth_ >= parser_.limits_.max_depth) {
        throw ParseError(ParseError::Kind::kTooDeep, parser_.at_,
                         "nesting exceeds depth " +
                             std::to_string(parser_.limits_.max_depth));
      }
      ++parser_.depth_;
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& parser_;
  };

  void skip_ws() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  char peek() {
    skip_ws();
    if (at_ >= text_.size()) fail_truncated("unexpected end of input");
    return text_[at_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(at_, lit.size()) != lit) return false;
    at_ += lit.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_ >= text_.size()) fail_truncated("unterminated string");
      const char c = text_[at_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_ >= text_.size()) fail_truncated("unterminated escape");
      const char e = text_[at_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (at_ + 4 > text_.size()) fail_truncated("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode as UTF-8 (surrogate pairs unsupported; the artifacts
          // this parser reads are ASCII).
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
          break;
        }
        default: fail("bad escape");
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = at_;
    if (at_ < text_.size() && text_[at_] == '-') ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '+' || text_[at_] == '-')) {
      ++at_;
    }
    if (at_ == start) fail("expected a value");
    const std::string token(text_.substr(start, at_ - start));
    try {
      std::size_t used = 0;
      const double n = std::stod(token, &used);
      if (used != token.size()) fail("bad number");
      return Value(n);
    } catch (const std::logic_error&) {
      fail("bad number");
    }
  }

  Value parse_array() {
    expect('[');
    DepthGuard guard(*this);
    Value out = Value::array();
    if (peek() == ']') {
      ++at_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      const char c = peek();
      ++at_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value parse_object() {
    expect('{');
    DepthGuard guard(*this);
    Value out = Value::object();
    if (peek() == '}') {
      ++at_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      expect(':');
      out.set(key, parse_value());
      const char c = peek();
      ++at_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  ParseLimits limits_;
  std::size_t at_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value Value::parse(std::string_view text) {
  return Parser(text, ParseLimits{}).parse_document();
}

Value Value::parse(std::string_view text, const ParseLimits& limits) {
  return Parser(text, limits).parse_document();
}

void write_file(const Value& value, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("json: cannot open " + path);
  out << value.dump(2) << '\n';
  if (!out) throw std::runtime_error("json: write failed for " + path);
}

Value read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Value::parse(buffer.str());
}

}  // namespace tricount::obs::json
