// Minimal JSON value: enough to write and read back the observability
// artifacts (traces, metrics snapshots, bench records) without an external
// dependency. Numbers are IEEE doubles, which covers every counter this
// project emits (all < 2^53); objects preserve insertion order so emitted
// files diff cleanly across runs.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tricount::obs::json {

/// Resource limits for parsing untrusted input (e.g. bytes read off the
/// service socket, docs/service.md). Zero means unlimited — the default,
/// so trusted artifact reads are unchanged.
struct ParseLimits {
  std::size_t max_bytes = 0;  ///< reject documents longer than this
  std::size_t max_depth = 0;  ///< reject nesting deeper than this
};

/// Typed parse failure. `kind()` distinguishes the classes a caller wants
/// to map to distinct error codes: malformed syntax, truncated input,
/// over-length input, and over-deep nesting. `offset()` is the byte the
/// parser stopped at. what() keeps the historical
/// "json parse error at offset N: ..." message format.
class ParseError : public std::runtime_error {
 public:
  enum class Kind { kMalformed, kTruncated, kTooLarge, kTooDeep };

  ParseError(Kind kind, std::size_t offset, const std::string& what_arg)
      : std::runtime_error("json parse error at offset " +
                           std::to_string(offset) + ": " + what_arg),
        kind_(kind),
        offset_(offset) {}

  Kind kind() const { return kind_; }
  std::size_t offset() const { return offset_; }

 private:
  Kind kind_;
  std::size_t offset_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double n) : type_(Type::kNumber), number_(n) {}
  Value(int n) : type_(Type::kNumber), number_(n) {}
  Value(std::int64_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(std::uint64_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Value array();
  static Value object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// A number that is an integer in [0, 2^64): what as_uint accepts.
  bool is_uint() const;
  /// A number that is an integer in [lo, hi]: what as_int(lo, hi) accepts.
  bool is_int(int lo = std::numeric_limits<int>::min(),
              int hi = std::numeric_limits<int>::max()) const;

  /// Typed accessors; throw std::runtime_error on type mismatch, and the
  /// integer ones on a value outside their range.
  bool as_bool() const;
  double as_number() const;
  std::uint64_t as_uint() const;
  int as_int(int lo = std::numeric_limits<int>::min(),
             int hi = std::numeric_limits<int>::max()) const;
  const std::string& as_string() const;

  // --- array ------------------------------------------------------------
  void push_back(Value v);
  std::size_t size() const;  ///< array elements or object members
  const Value& at(std::size_t index) const;

  // --- object -----------------------------------------------------------
  /// Inserts or overwrites a member (insertion order preserved).
  Value& set(const std::string& key, Value v);
  /// Member lookup; nullptr if absent (or not an object).
  const Value* find(const std::string& key) const;
  /// Member lookup; throws if absent.
  const Value& get(const std::string& key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Serializes. indent < 0 is compact; otherwise pretty-printed with
  /// `indent` spaces per level.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; throws ParseError (a
  /// std::runtime_error) with the byte offset on malformed input.
  static Value parse(std::string_view text);

  /// Parses untrusted input under resource limits; throws ParseError with
  /// kind kTooLarge / kTooDeep when a limit is exceeded.
  static Value parse(std::string_view text, const ParseLimits& limits);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Writes `value` to `path` (pretty-printed); throws on I/O error.
void write_file(const Value& value, const std::string& path);

/// Reads and parses a JSON file; throws on I/O or parse error.
Value read_file(const std::string& path);

}  // namespace tricount::obs::json
