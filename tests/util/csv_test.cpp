#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <string>

namespace krak::util {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("1.5"), "1.5");
}

TEST(CsvEscape, CommaTriggersQuoting) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuotesAreDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineTriggersQuoting) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

}  // namespace
}  // namespace krak::util
