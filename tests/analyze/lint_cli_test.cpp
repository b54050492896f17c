#include "analyze/lint_cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "analyze/fixtures.hpp"
#include "mesh/deck.hpp"
#include "util/error.hpp"

namespace krak::analyze {
namespace {

util::ArgParser make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "driver");
  return util::ArgParser(static_cast<int>(argv.size()), argv.data(),
                         lint_gate_options());
}

LintInput deck_only_input(const mesh::InputDeck& deck) {
  LintInput input;
  input.deck = &deck;
  return input;
}

TEST(LintGate, NoFlagsIsSilentProceed) {
  const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kSmall);
  std::ostringstream out;
  const LintGateOutcome outcome =
      run_lint_gate(make_args({}), deck_only_input(deck), out);
  EXPECT_EQ(outcome, LintGateOutcome::kProceed);
  EXPECT_TRUE(out.str().empty());
}

TEST(LintGate, LintFlagOnCleanInputPrintsAndProceeds) {
  const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kSmall);
  std::ostringstream out;
  const LintGateOutcome outcome =
      run_lint_gate(make_args({"--lint"}), deck_only_input(deck), out);
  EXPECT_EQ(outcome, LintGateOutcome::kProceed);
  EXPECT_NE(out.str().find("model lint: 0 error(s)"), std::string::npos);
}

TEST(LintGate, LintOnlyOnCleanInputExitsClean) {
  const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kSmall);
  std::ostringstream out;
  const LintGateOutcome outcome =
      run_lint_gate(make_args({"--lint-only"}), deck_only_input(deck), out);
  EXPECT_EQ(outcome, LintGateOutcome::kExitClean);
  EXPECT_EQ(lint_exit_code(outcome), 0);
}

TEST(LintGate, ErrorsBlockTheRunUnderBothFlags) {
  const CorruptedFixture fixture = make_corrupted_fixture();
  for (const char* flag : {"--lint", "--lint-only"}) {
    std::ostringstream out;
    const LintGateOutcome outcome =
        run_lint_gate(make_args({flag}), deck_only_input(fixture.deck), out);
    EXPECT_EQ(outcome, LintGateOutcome::kExitError) << flag;
    EXPECT_NE(lint_exit_code(outcome), 0) << flag;
    EXPECT_NE(out.str().find("error"), std::string::npos) << flag;
  }
}

TEST(LintGate, CsvFormatEmitsCsv) {
  const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kSmall);
  std::ostringstream out;
  const LintGateOutcome outcome = run_lint_gate(
      make_args({"--lint-only", "--lint-format", "csv"}),
      deck_only_input(deck), out);
  EXPECT_EQ(outcome, LintGateOutcome::kExitClean);
  EXPECT_EQ(out.str().rfind("severity,rule,component,message\n", 0), 0u);
}

TEST(LintGate, UnknownFormatIsRejected) {
  const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kSmall);
  std::ostringstream out;
  EXPECT_THROW(
      static_cast<void>(run_lint_gate(
          make_args({"--lint", "--lint-format", "yaml"}),
          deck_only_input(deck), out)),
      util::InvalidArgument);
}

TEST(LintGate, ExitCodes) {
  EXPECT_EQ(lint_exit_code(LintGateOutcome::kProceed), 0);
  EXPECT_EQ(lint_exit_code(LintGateOutcome::kExitClean), 0);
  EXPECT_EQ(lint_exit_code(LintGateOutcome::kExitError), 1);
}

}  // namespace
}  // namespace krak::analyze
