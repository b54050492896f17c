#include "analyze/lint_journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/rules.hpp"
#include "core/campaign_journal.hpp"
#include "core/validation.hpp"

namespace krak::analyze {
namespace {

namespace fs = std::filesystem;

TEST(LintJournal, CorruptedFixtureTripsEveryJournalRule) {
  std::istringstream in(corrupted_journal_text());
  DiagnosticReport report;
  const core::CampaignJournal::Recovery file = lint_journal(in, report);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kJournalFormat)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kJournalChecksum)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kJournalStateMachine)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kJournalTornTail)) << report.to_text();
  EXPECT_TRUE(file.torn_tail);
}

TEST(LintJournal, RealJournalLintsClean) {
  // A journal the production writer produced must have nothing to say.
  const fs::path path =
      fs::path(::testing::TempDir()) / "krak_lint_journal_real.krakjournal";
  fs::remove(path);
  {
    core::CampaignJournal journal(path);
    core::ValidationPoint point;
    point.problem = "small problem (16 PEs)";
    point.pes = 16;
    point.measured = 1.25;
    point.predicted = 1.5;
    journal.record_running(0xau, 1);
    journal.record_failed(0xau, 1, /*transient=*/true,
                          "deadline: 30 s exceeded");
    journal.record_running(0xau, 2);
    journal.record_done(0xau, 2, point);
    journal.record_running(0xbu, 1);
    journal.record_failed(0xbu, 1, /*transient=*/false, "rank 3 hang");
    journal.record_quarantined(0xbu, 1, "rank 3 hang");
  }
  const DiagnosticReport report = lint_journal_file(path.string());
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(report.warning_count(), 0u) << report.to_text();

  std::ifstream in(path, std::ios::binary);
  DiagnosticReport again;
  const core::CampaignJournal::Recovery file = lint_journal(in, again);
  EXPECT_EQ(file.records, 7u);
  EXPECT_EQ(file.scenarios, 2u);
  EXPECT_EQ(file.completed, 1u);
  EXPECT_EQ(file.quarantined, 1u);
  EXPECT_FALSE(file.torn_tail);
  fs::remove(path);
}

TEST(LintJournal, EmptyInputIsAFormatError) {
  std::istringstream in("");
  DiagnosticReport report;
  (void)lint_journal(in, report);
  EXPECT_TRUE(report.has_rule(rules::kJournalFormat));
  EXPECT_TRUE(report.has_errors());
}

TEST(LintJournal, WrongMagicIsAFormatError) {
  std::istringstream in("krakpart 1\n");
  DiagnosticReport report;
  (void)lint_journal(in, report);
  EXPECT_TRUE(report.has_rule(rules::kJournalFormat));
}

TEST(LintJournal, TornTailAloneIsAWarningNotAnError) {
  // Recovery truncates a torn append cleanly, so an otherwise-valid
  // journal with one torn line must not fail a CI gate.
  std::istringstream in("krakjournal 1\nrunning 00000000000000");
  DiagnosticReport report;
  const core::CampaignJournal::Recovery file = lint_journal(in, report);
  EXPECT_TRUE(file.torn_tail);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_TRUE(report.has_rule(rules::kJournalTornTail));
}

TEST(LintJournal, MissingFileIsAFormatError) {
  const DiagnosticReport report =
      lint_journal_file("/nonexistent/never.krakjournal");
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kJournalFormat));
}

}  // namespace
}  // namespace krak::analyze
