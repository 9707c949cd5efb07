// ASCII table and CSV emission for the benchmark harness. Every bench binary
// prints the rows a paper table/figure would contain, through this module, so
// output formatting is uniform. The JSON reports escape their strings here
// too.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace autolock::util {

/// Column-aligned ASCII table with a header row, plus CSV export.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const noexcept { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }
  const std::vector<std::string>& headers() const noexcept { return headers_; }

  /// Renders with a separator under the header, columns padded to width.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table cells).
std::string fmt(double value, int precision = 3);
/// Formats a fraction as a percentage string, e.g. 0.3125 -> "31.2%".
std::string fmt_pct(double fraction, int precision = 1);

/// `text` escaped for the inside of a JSON string: `"`, `\`, newline and tab
/// by their short escapes, every other byte below 0x20 as `\u00xx`
/// (lowercase hex), everything else unchanged.
std::string json_escape(std::string_view text);

}  // namespace autolock::util
