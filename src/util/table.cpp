#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace autolock::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << std::left << std::setw(static_cast<int>(widths[c]))
         << cells[c] << ' ';
    }
    os << "|\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << '|' << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

std::string fmt_pct(double fraction, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << (fraction * 100.0)
      << '%';
  return oss.str();
}

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

}  // namespace autolock::util
