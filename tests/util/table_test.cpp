#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace krak::util {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Box rules present.
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TextTable, ColumnsPadToWidestCell) {
  TextTable table({"H"});
  table.add_row({"wide-cell-content"});
  const std::string out = table.to_string();
  // Every line should have the same length.
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table({"A", "B"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), InvalidArgument);
}

TEST(TextTable, LeftAlignmentPadsRight) {
  TextTable table({"Col"});
  table.set_alignment({Align::kLeft});
  table.add_row({"x"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| x   |"), std::string::npos);
}

TEST(TextTable, RightAlignmentPadsLeft) {
  TextTable table({"Col"});
  table.add_row({"x"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("|   x |"), std::string::npos);
}

TEST(TextTable, StreamOperatorMatchesToString) {
  TextTable table({"A"});
  table.add_row({"1"});
  std::ostringstream os;
  os << table;
  EXPECT_EQ(os.str(), table.to_string());
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Format, Milliseconds) {
  EXPECT_EQ(format_ms(0.0615, 1), "61.5 ms");
  EXPECT_EQ(format_ms(1.0, 0), "1000 ms");
}

TEST(Format, Microseconds) {
  EXPECT_EQ(format_us(4.5e-6, 2), "4.50 us");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(-0.08, 1), "-8.0%");
  EXPECT_EQ(format_percent(0.029, 1), "2.9%");
}

}  // namespace
}  // namespace krak::util
