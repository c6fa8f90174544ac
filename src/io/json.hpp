// Minimal JSON document model — the interchange format of the batch
// engine (corpus files in, result files out; src/engine, tools/).
//
// Deliberately small and dependency-free:
//  * Objects preserve insertion order (stored as a key/value vector), so
//    serialization is deterministic — a hard requirement for the engine's
//    "identical JSON across thread counts" guarantee and for byte-exact
//    round-trip tests.
//  * Integers and doubles are distinct variants: counts like antichain
//    totals round-trip exactly instead of drowning in double precision.
//  * dump() emits a canonical form (no trailing zeros games: integers as
//    integers, doubles via shortest round-trip %.17g), parse() accepts
//    standard JSON and reports the line of the first error.
//  * JsonWriter is the one emitter of JSON bytes. dump() walks a tree into
//    it, and documents on a hot path (results files, service responses)
//    are written straight through it with no tree built first, so both
//    routes produce the same bytes by construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mpsched {

class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered object; keys are unique.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::uint64_t u);  ///< size_t included; > int64 max degrades to double
  Json(double d) : value_(d) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;  ///< also accepts an integral double
  double as_double() const;     ///< accepts int or double
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // -- object helpers ----------------------------------------------------
  /// Looks a key up; nullptr when absent (or *this is not an object).
  const Json* find(std::string_view key) const;
  /// Required-key lookup; throws naming the key when absent.
  const Json& at(std::string_view key) const;
  /// Sets/overwrites a key, preserving first-insertion order.
  void set(std::string_view key, Json value);

  // -- array helper ------------------------------------------------------
  void push_back(Json value);

  bool operator==(const Json& other) const = default;

  /// Serializes. indent < 0 → compact one-liner; indent ≥ 0 → pretty with
  /// that many spaces per level. Output is byte-deterministic for a given
  /// document.
  std::string dump(int indent = -1) const;

  /// Parses standard JSON; throws std::invalid_argument with a line number
  /// on malformed input. Rejects trailing garbage and duplicate keys.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> value_;
};

/// Appends JSON text to a string: compact (indent < 0) or pretty (indent
/// spaces per level), byte-identical to dump() of the equivalent tree —
/// integers as integers, an unsigned value above INT64_MAX as a double
/// (like Json(std::uint64_t)), doubles as %.17g plus ".0" when that reads
/// as an integer, and the same string escapes. A non-finite double throws
/// std::runtime_error, leaving a partial document in the string.
///
/// Callers pair begin_*/end_* and put key() before every value inside an
/// object; the writer tracks only where separators and line breaks go and
/// does not check the sequence.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = -1) : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& null();
  JsonWriter& value(bool b);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(double d);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  /// A whole document tree.
  JsonWriter& value(const Json& doc);

  /// key(name), then value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  /// The comma and line break before a key or a value, except a value
  /// that follows its key.
  void separate();
  void newline_pad(std::size_t depth);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  void write_string(std::string_view s);

  std::string& out_;
  int indent_;
  std::vector<std::size_t> items_;  ///< items written so far, per open container
  bool after_key_ = false;
};

/// File convenience wrappers (throw std::runtime_error on IO failure).
void save_json(const Json& doc, const std::string& path, int indent = 2);
/// Writes already-serialized JSON text plus a trailing newline to `path`.
void save_json_text(std::string_view text, const std::string& path);
Json load_json(const std::string& path);

}  // namespace mpsched
