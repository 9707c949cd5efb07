#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace autolock::util {
namespace {

TEST(Table, RequiresHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowCellCountMustMatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
  table.add_row({"1", "2"});
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(Table, PrintAlignsColumns) {
  Table table({"name", "x"});
  table.add_row({"longer-name", "1"});
  table.add_row({"n", "12345"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  // All lines equal length (alignment).
  std::istringstream in(text);
  std::string line;
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    if (expected == 0) expected = line.size();
    EXPECT_EQ(line.size(), expected);
  }
}

TEST(Table, CsvEscapesSpecialCells) {
  Table table({"a", "b"});
  table.add_row({"plain", "with,comma"});
  table.add_row({"with\"quote", "multi\nline"});
  std::ostringstream out;
  table.write_csv(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(text.find("\"multi\nline\""), std::string::npos);
  EXPECT_NE(text.find("plain"), std::string::npos);
}

TEST(Table, RowAccess) {
  Table table({"h"});
  table.add_row({"v"});
  EXPECT_EQ(table.row(0)[0], "v");
  EXPECT_THROW(table.row(1), std::out_of_range);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Fmt, Percent) {
  EXPECT_EQ(fmt_pct(0.3125, 1), "31.2%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
  EXPECT_EQ(fmt_pct(0.0), "0.0%");
}

TEST(JsonEscape, ShortEscapesAndLowercaseControlBytes) {
  EXPECT_EQ(json_escape("plain c432/dmux"), "plain c432/dmux");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(json_escape(std::string("\x00\x1b\x1f\r", 4)),
            "\\u0000\\u001b\\u001f\\u000d");
  // Bytes from 0x20 up, UTF-8 included, pass through unchanged.
  EXPECT_EQ(json_escape(" \x7f\xc3\xa9"), " \x7f\xc3\xa9");
}

}  // namespace
}  // namespace autolock::util
