#include "telemetry/table.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rsf::telemetry {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Table: need at least one column");
}

Table& Table::row() {
  if (!rows_.empty() && rows_.back().size() != columns_.size()) {
    throw std::logic_error("Table: previous row incomplete (" + title_ + ")");
  }
  rows_.emplace_back();
  rows_.back().reserve(columns_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  if (rows_.empty()) throw std::logic_error("Table: cell() before row()");
  if (rows_.back().size() >= columns_.size()) {
    throw std::logic_error("Table: too many cells in row (" + title_ + ")");
  }
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return cell(std::string(buf));
}

Table& Table::cell(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) widths[c] = std::max(widths[c], r[c].size());
  }
  auto hline = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << ' ' << v << std::string(widths[c] - v.size(), ' ') << " |";
    }
    os << '\n';
  };
  os << "== " << title_ << " ==\n";
  hline();
  print_row(columns_);
  hline();
  for (const auto& r : rows_) print_row(r);
  hline();
}

void Table::print() const { print(std::cout); }

std::string Table::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace rsf::telemetry
