#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace mpsched {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

std::string TextTable::format_cell(double d) {
  // Trim to a friendly fixed form: integers print without a decimal point,
  // other values with up to 3 decimals (matching the paper's "12.4" style).
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15)
    return std::to_string(static_cast<long long>(d));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", d);
  std::string s(buf);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::vector<std::size_t> TextTable::widths() const {
  std::vector<std::size_t> w;
  auto absorb = [&w](const std::vector<std::string>& row) {
    if (w.size() < row.size()) w.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) w[i] = std::max(w[i], row[i].size());
  };
  absorb(header_);
  for (const auto& r : rows_) absorb(r);
  return w;
}

namespace {
std::string pad(const std::string& s, std::size_t width, bool left) {
  if (s.size() >= width) return s;
  const std::string fill(width - s.size(), ' ');
  return left ? s + fill : fill + s;
}
}  // namespace

std::string TextTable::to_string() const {
  const auto w = widths();
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::string cell = i < row.size() ? row[i] : "";
      os << (i == 0 ? "| " : " ") << pad(cell, w[i], i == 0) << " |";
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    for (std::size_t i = 0; i < w.size(); ++i)
      os << (i == 0 ? "|-" : "-") << std::string(w[i], '-') << "-|";
    os << '\n';
  }
  for (const auto& r : rows_) emit(r);
  return os.str();
}

}  // namespace mpsched
