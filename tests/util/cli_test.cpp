#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace krak::util {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EmptyCommandLine) {
  const ArgParser args = parse({});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_FALSE(args.has("anything"));
  EXPECT_TRUE(args.positional().empty());
  EXPECT_EQ(args.get_int("pes", 64), 64);
}

TEST(ArgParser, SpaceSeparatedValue) {
  const ArgParser args = parse({"--pes", "128"});
  EXPECT_TRUE(args.has("pes"));
  EXPECT_EQ(args.get_int("pes", 0), 128);
}

TEST(ArgParser, EqualsSeparatedValue) {
  const ArgParser args = parse({"--deck=large", "--noise=0.02"});
  EXPECT_EQ(args.get_string("deck", ""), "large");
  EXPECT_DOUBLE_EQ(args.get_double("noise", 0.0), 0.02);
}

TEST(ArgParser, BareFlag) {
  const ArgParser args = parse({"--verbose", "--pes", "4"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_string("verbose", "x"), "");
  EXPECT_EQ(args.get_int("pes", 0), 4);
}

TEST(ArgParser, FlagFollowedByOptionIsBare) {
  const ArgParser args = parse({"--fast", "--pes", "8"});
  EXPECT_TRUE(args.has("fast"));
  EXPECT_EQ(args.get_int("pes", 0), 8);
}

TEST(ArgParser, PositionalArgumentsPreserved) {
  const ArgParser args = parse({"input.deck", "--pes", "2", "out.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.deck");
  EXPECT_EQ(args.positional()[1], "out.csv");
}

TEST(ArgParser, NegativeNumbersParse) {
  const ArgParser args = parse({"--offset=-5", "--scale=-1.5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), -1.5);
}

TEST(ArgParser, BadIntegerThrows) {
  const ArgParser args = parse({"--pes", "eight"});
  EXPECT_THROW((void)args.get_int("pes", 0), InvalidArgument);
}

TEST(ArgParser, TrailingGarbageThrows) {
  const ArgParser args = parse({"--pes", "8x"});
  EXPECT_THROW((void)args.get_int("pes", 0), InvalidArgument);
}

TEST(ArgParser, BadDoubleThrows) {
  const ArgParser args = parse({"--noise", "tiny"});
  EXPECT_THROW((void)args.get_double("noise", 0.0), InvalidArgument);
}

TEST(ArgParser, NonFiniteDoubleThrows) {
  // stod accepts these spellings; a run length or a seconds bound of
  // inf never ends, and nan compares false against every limit.
  for (const char* value : {"nan", "inf", "-inf"}) {
    const ArgParser args = parse({"--time", value});
    EXPECT_THROW((void)args.get_double("time", 0.0), InvalidArgument)
        << value;
  }
}

TEST(ArgParser, LastOccurrenceWins) {
  const ArgParser args = parse({"--pes", "4", "--pes", "16"});
  EXPECT_EQ(args.get_int("pes", 0), 16);
}

}  // namespace
}  // namespace krak::util
