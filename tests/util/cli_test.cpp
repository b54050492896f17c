#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace krak::util {
namespace {

const std::vector<std::string> kOptions = {
    "--pes N", "--deck NAME", "--noise X", "--offset N", "--scale X",
    "--time T", "--verbose", "--fast"};

std::vector<const char*> command_line(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

ArgParser parse(std::initializer_list<const char*> args) {
  const std::vector<const char*> argv = command_line(args);
  return ArgParser(static_cast<int>(argv.size()), argv.data(), kOptions);
}

/// The InvalidArgument message parsing `args` throws, or "" if none.
std::string refusal(std::initializer_list<const char*> args) {
  try {
    (void)parse(args);
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "";
}

TEST(ArgParser, EmptyCommandLine) {
  const ArgParser args = parse({});
  EXPECT_FALSE(args.has("verbose"));
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

TEST(ArgParser, UndeclaredOptionIsRefused) {
  // The misspelling used to run the default 256 PEs without a word.
  EXPECT_EQ(refusal({"--pess", "8"}), "unknown option --pess");
  EXPECT_EQ(refusal({"--pess=8"}), "unknown option --pess");
  EXPECT_EQ(refusal({"--"}), "unknown option --");
}

TEST(ArgParser, PositionalArgumentIsRefused) {
  EXPECT_EQ(refusal({"input.deck", "--pes", "2"}),
            "unexpected argument 'input.deck'");
  EXPECT_EQ(refusal({"--verbose", "yes"}), "unexpected argument 'yes'");
  EXPECT_EQ(refusal({"-h"}), "unexpected argument '-h'");
}

TEST(ArgParser, FlagGivenAValueIsRefused) {
  EXPECT_EQ(refusal({"--verbose=yes"}), "option --verbose takes no value");
}

TEST(ArgParser, ValuedOptionWithoutValueIsRefused) {
  EXPECT_EQ(refusal({"--pes"}), "option --pes expects a value");
  EXPECT_EQ(refusal({"--pes", "--verbose"}), "option --pes expects a value");
}

TEST(ArgParser, ReadingAnUndeclaredOptionIsADriverBug) {
  const ArgParser args = parse({});
  EXPECT_THROW((void)args.has("pess"), InternalError);
  EXPECT_THROW((void)args.get_int("pess", 0), InternalError);
}

TEST(ArgParser, UsageLineListsTheDeclarations) {
  EXPECT_EQ(usage_line("prog", {"--out FILE", "--quick"}),
            "usage: prog [--out FILE] [--quick]");
  EXPECT_EQ(usage_line("prog", {}), "usage: prog");
}

TEST(ArgParser, NegativeNumbersParse) {
  const ArgParser args = parse({"--offset=-5", "--scale", "-1.5"});
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

/// run_main's exit status for `args` when its body runs `body`.
int exit_status(std::initializer_list<const char*> args,
                const std::function<int()>& body) {
  const std::vector<const char*> argv = command_line(args);
  return run_main(static_cast<int>(argv.size()), argv.data(), kOptions,
                  [&](const ArgParser&) { return body(); });
}

TEST(RunMain, MapsEachOutcomeToItsExitStatus) {
  int runs = 0;
  const auto count = [&runs] {
    ++runs;
    return 0;
  };
  EXPECT_EQ(exit_status({"--pes", "8"}, count), 0);
  EXPECT_EQ(exit_status({"--help"}, count), 0);
  EXPECT_EQ(exit_status({"--pess", "8"}, count), 2);
  EXPECT_EQ(runs, 1) << "--help and a refused command line run no body";
  EXPECT_EQ(exit_status({}, []() -> int {
              throw InvalidArgument("option --pes expects an integer");
            }),
            2);
  EXPECT_EQ(exit_status({}, []() -> int {
              throw KrakError("cannot open x.krakcosts");
            }),
            1);
}

}  // namespace
}  // namespace krak::util
