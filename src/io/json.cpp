#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace mpsched {

Json::Json(std::uint64_t u) {
  if (u > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
    value_ = static_cast<double>(u);
  else
    value_ = static_cast<std::int64_t>(u);
}

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(value_);
  if (is_double()) {
    const double d = std::get<double>(value_);
    // Exact-integer doubles only, and only within int64 range (both bounds
    // are exactly representable: -2^63 and 2^63).
    if (std::nearbyint(d) == d &&
        d >= static_cast<double>(std::numeric_limits<std::int64_t>::min()) &&
        d < -static_cast<double>(std::numeric_limits<std::int64_t>::min()))
      return static_cast<std::int64_t>(d);
  }
  type_error("an integer");
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (!is_double()) type_error("a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_))
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr)
    throw std::runtime_error("json: missing required key '" + std::string(key) + "'");
  return *found;
}

void Json::set(std::string_view key, Json value) {
  Object& obj = as_object();
  for (auto& [k, v] : obj)
    if (k == key) {
      v = std::move(value);
      return;
    }
  obj.emplace_back(std::string(key), std::move(value));
}

void Json::push_back(Json value) { as_array().push_back(std::move(value)); }

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void JsonWriter::newline_pad(std::size_t depth) {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (items_.empty()) return;  // the document's top-level value
  if (items_.back()++ > 0) out_ += ',';
  newline_pad(items_.size());
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  items_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const std::size_t items = items_.back();
  items_.pop_back();
  if (items > 0) newline_pad(items_.size());
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  write_string(name);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  separate();
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, i).ptr;
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  if (u > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
    return value(static_cast<double>(u));
  return value(static_cast<std::int64_t>(u));
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) throw std::runtime_error("json: cannot serialize a non-finite number");
  separate();
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", d);
  out_.append(buf, static_cast<std::size_t>(n));
  // Keep the double-ness visible so the value round-trips as a double.
  if (std::string_view(buf, static_cast<std::size_t>(n)).find_first_of(".eE") ==
      std::string_view::npos)
    out_ += ".0";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  write_string(s);
  return *this;
}

void JsonWriter::write_string(std::string_view s) {
  out_ += '"';
  std::size_t run = 0;  // start of the pending run of bytes copied as-is
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;  // UTF-8 bytes pass through
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
}

bool JsonWriter::splice(std::string_view members) {
  if (indent_ >= 0) return false;
  separate();
  out_ += members;
  return true;
}

JsonWriter& JsonWriter::value(const Json& v) {
  if (v.is_null()) return null();
  if (v.is_bool()) return value(v.as_bool());
  if (v.is_int()) return value(v.as_int());
  if (v.is_double()) return value(v.as_double());
  if (v.is_string()) return value(v.as_string());
  if (v.is_array()) {
    begin_array();
    for (const Json& item : v.as_array()) value(item);
    return end_array();
  }
  begin_object();
  for (const auto& [k, item] : v.as_object()) {
    key(k);
    value(item);
  }
  return end_object();
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter(out, indent).value(*this);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing (recursive descent)
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    throw std::invalid_argument("json parse error at line " + std::to_string(line) + ": " +
                                msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  /// Containers recurse; bound the depth so hostile input gets a parse
  /// error instead of a stack overflow.
  static constexpr int kMaxDepth = 256;

  struct DepthGuard {
    Parser& parser;
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth) parser.fail("nesting deeper than 256 levels");
    }
    ~DepthGuard() { --parser.depth_; }
  };

  /// An object's new key is checked against its earlier keys by a scan
  /// while it holds fewer members than this; from then on a hash set of
  /// its keys answers, so an object parses in time linear in its size.
  static constexpr std::size_t kScannedKeys = 16;

  /// Whether `key` is already a key of `members`. From kScannedKeys
  /// members on, the lookup goes to `index`, built from the members then
  /// and kept up to date here: a key reported new is about to be added.
  static bool seen_before(const Json::Object& members,
                          std::optional<std::unordered_set<std::string>>& index,
                          const std::string& key) {
    if (members.size() < kScannedKeys) {
      for (const auto& member : members)
        if (member.first == key) return true;
      return false;
    }
    if (!index) {
      index.emplace();
      for (const auto& member : members) index->insert(member.first);
    }
    return !index->insert(key).second;
  }

  Json parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    Json::Object& members = obj.as_object();
    std::optional<std::unordered_set<std::string>> index;
    while (true) {
      if (peek() != '"') fail("expected a string key");
      std::string key = parse_string();
      if (seen_before(members, index, key)) fail("duplicate key '" + key + "'");
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.as_array().push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate in \\u escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow; combine
            // into one supplementary-plane code point (valid UTF-8 out —
            // raw CESU-8 surrogate bytes would be rejected by jq & co).
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
              fail("high surrogate not followed by \\u low surrogate");
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF)
              fail("high surrogate not followed by a low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
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
        default: fail("unknown escape sequence");
      }
    }
  }

  /// True iff `s` matches the RFC 8259 number grammar:
  ///   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// (rejects leading '+', leading zeros, bare '.5' / '1.').
  static bool is_standard_number(std::string_view s, bool& integral) {
    std::size_t i = 0;
    integral = true;
    const auto digits = [&]() {
      const std::size_t before = i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
      return i > before;
    };
    if (i < s.size() && s[i] == '-') ++i;
    if (i >= s.size()) return false;
    if (s[i] == '0') {
      ++i;
    } else if (s[i] >= '1' && s[i] <= '9') {
      digits();
    } else {
      return false;
    }
    if (i < s.size() && s[i] == '.') {
      integral = false;
      ++i;
      if (!digits()) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      integral = false;
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == s.size();
  }

  Json parse_number() {
    const std::size_t start = pos_;
    // Gather the maximal plausible token, then validate it as a whole so
    // typos like 1.2.3, 01 or +5 are rejected instead of silently
    // truncated or misread.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
          c == '-')
        ++pos_;
      else
        break;
    }
    const std::string token(text_.substr(start, pos_ - start));
    bool integral = true;
    if (!is_standard_number(token, integral)) fail("invalid number '" + token + "'");
    try {
      if (integral) return Json(static_cast<std::int64_t>(std::stoll(token)));
      return Json(std::stod(token));
    } catch (const std::out_of_range&) {
      // Positive integers in (int64 max, uint64 max] — e.g. uint64 RNG
      // seeds written literally — are stored bit-cast as negative int64,
      // matching how uint64 consumers read integers back.
      if (integral && token[0] != '-') {
        try {
          return Json(static_cast<std::int64_t>(std::stoull(token)));
        } catch (const std::exception&) {
          // falls through to the uniform error below
        }
      }
      fail("number '" + token + "' is out of range");
    } catch (const std::exception&) {
      fail("invalid number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

void save_json(const Json& doc, const std::string& path, int indent) {
  // Serialize before touching the file: an unserializable document (e.g.
  // one holding a non-finite double) must not leave a truncated or empty
  // file behind.
  save_json_text(doc.dump(indent), path);
}

void save_json_text(std::string_view text, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << text << '\n';
  if (!out.good()) throw std::runtime_error("write to '" + path + "' failed");
}

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

}  // namespace mpsched
