// rsf::telemetry — result tables.
//
// Benches build a Table and render it as aligned text (for the console,
// matching the rows/series a paper figure reports) and as CSV (for
// re-plotting). Cells are strings; numeric helpers format consistently.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rsf::telemetry {

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  /// Start a new row; subsequent cell() calls fill it left to right.
  Table& row();

  Table& cell(std::string value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 3);
  Table& cell(std::uint64_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value);

  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Aligned, boxed text rendering.
  void print(std::ostream& os) const;
  /// Convenience: print() to stdout.
  void print() const;
  /// The print() rendering as a string (tests diff tables byte-wise).
  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rsf::telemetry
