// TextTable — aligned console table rendering.
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

  /// Pipe-separated aligned text, e.g. for console output: the first
  /// column is left-aligned, the others right-aligned.
  std::string to_string() const;

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

  /// Per column, the widest cell; as many columns as the widest row,
  /// header included.
  std::vector<std::size_t> widths() const;

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mpsched
