// TextTable — aligned console / markdown / CSV table rendering.
//
// Every benchmark harness prints paper-vs-measured tables through this
// class so the output format stays uniform across experiments.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mpsched {

class TextTable {
 public:
  enum class Align { Left, Right };

  TextTable() = default;
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; it may be shorter or longer than the header, the
  /// column count of the table grows to the widest row seen.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats each cell with to_string-like semantics.
  template <typename... Ts>
  void add(const Ts&... cells) {
    add_row({format_cell(cells)...});
  }

  /// Per-column alignment (defaults to Left for col 0, Right otherwise).
  void set_align(std::size_t column, Align align);

  std::size_t column_count() const noexcept;

  /// Pipe-separated aligned text, e.g. for console output.
  std::string to_string() const;

  /// GitHub-flavored markdown.
  std::string to_markdown() const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  std::string to_csv() const;

  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  static std::string format_cell(const std::string& s) { return s; }
  static std::string format_cell(const char* s) { return s; }
  static std::string format_cell(bool b) { return b ? "yes" : "no"; }
  static std::string format_cell(double d);
  template <typename T>
  static std::string format_cell(const T& v) {
    return std::to_string(v);
  }

  std::vector<std::size_t> widths() const;
  Align align_for(std::size_t col) const;

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> aligns_;
};

}  // namespace mpsched
