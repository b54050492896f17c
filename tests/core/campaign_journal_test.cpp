#include "core/campaign_journal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/lint_journal.hpp"
#include "core/text_format.hpp"
#include "analyze/rules.hpp"
#include "util/error.hpp"

namespace krak::core {
namespace {

namespace fs = std::filesystem;

class CampaignJournalTest : public ::testing::Test {
 protected:
  CampaignJournalTest()
      : directory_(fs::path(::testing::TempDir()) /
                   ("krak_journal_" +
                    std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()))),
        path_(directory_ / "campaign.krakjournal") {
    fs::remove_all(directory_);
  }

  ~CampaignJournalTest() override {
    std::error_code ec;
    fs::remove_all(directory_, ec);
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void append_raw(const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << text;
  }

  fs::path directory_;
  fs::path path_;
};

TEST_F(CampaignJournalTest, FreshJournalWritesTheMagicHeader) {
  const CampaignJournal journal(path_);
  EXPECT_EQ(journal.recovery().records, 0u);
  EXPECT_FALSE(journal.recovery().torn_tail);
  EXPECT_EQ(slurp(path_), "krakjournal 1\n");
}

TEST_F(CampaignJournalTest, RecordsRoundTripAcrossReopen) {
  ValidationPoint point;
  point.problem = "medium problem (64 PEs)";
  point.pes = 64;
  // Values with no short decimal form: replay must be bit-exact.
  point.measured = 0.1 + 0.2;
  point.predicted = 1.0 / 3.0;
  {
    CampaignJournal journal(path_);
    journal.record_running(0xaau, 1);
    journal.record_done(0xaau, 1, point);
    journal.record_running(0xbbu, 1);
    journal.record_failed(0xbbu, 1, /*transient=*/true, "wall deadline");
    journal.record_running(0xbbu, 2);
    journal.record_failed(0xbbu, 2, /*transient=*/false, "rank 3 hang");
    journal.record_quarantined(0xbbu, 2, "rank 3 hang");
  }
  CampaignJournal journal(path_);
  EXPECT_EQ(journal.recovery().records, 7u);
  EXPECT_EQ(journal.recovery().scenarios, 2u);
  EXPECT_EQ(journal.recovery().completed, 1u);
  EXPECT_EQ(journal.recovery().quarantined, 1u);
  EXPECT_FALSE(journal.recovery().torn_tail);

  const CampaignJournal::History done = journal.history(0xaau);
  EXPECT_TRUE(done.done);
  EXPECT_EQ(done.attempts, 1u);
  EXPECT_FALSE(done.interrupted);
  EXPECT_EQ(done.point.problem, point.problem);
  EXPECT_EQ(done.point.pes, point.pes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(done.point.measured),
            std::bit_cast<std::uint64_t>(point.measured));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(done.point.predicted),
            std::bit_cast<std::uint64_t>(point.predicted));

  const CampaignJournal::History poisoned = journal.history(0xbbu);
  EXPECT_TRUE(poisoned.quarantined);
  EXPECT_EQ(poisoned.attempts, 2u);
  EXPECT_EQ(poisoned.transient_failures, 1u);
  EXPECT_EQ(poisoned.deterministic_failures, 1u);
  EXPECT_EQ(poisoned.failures(), 2u);
  EXPECT_EQ(poisoned.last_error, "rank 3 hang");
}

TEST_F(CampaignJournalTest, UnseenFingerprintHasEmptyHistory) {
  const CampaignJournal journal(path_);
  const CampaignJournal::History history = journal.history(0x123u);
  EXPECT_EQ(history.attempts, 0u);
  EXPECT_FALSE(history.done);
  EXPECT_FALSE(history.quarantined);
  EXPECT_FALSE(history.interrupted);
}

TEST_F(CampaignJournalTest, InterruptedAttemptIsNotAFailure) {
  {
    CampaignJournal journal(path_);
    journal.record_running(0xccu, 1);
    // Process dies here: no outcome record.
  }
  const CampaignJournal journal(path_);
  const CampaignJournal::History history = journal.history(0xccu);
  EXPECT_TRUE(history.interrupted);
  EXPECT_EQ(history.attempts, 1u);  // attempt numbering stays monotone
  EXPECT_EQ(history.failures(), 0u);  // but no budget was burned
}

TEST_F(CampaignJournalTest, TornTailIsTruncatedAndRecoveryContinues) {
  {
    CampaignJournal journal(path_);
    journal.record_running(0xddu, 1);
    journal.record_failed(0xddu, 1, /*transient=*/false, "boom");
  }
  const auto intact_size = fs::file_size(path_);
  append_raw(path_, "running 00000000000000dd 2");  // torn: no newline

  CampaignJournal journal(path_);
  EXPECT_TRUE(journal.recovery().torn_tail);
  EXPECT_EQ(journal.recovery().dropped_bytes, 26u);
  EXPECT_EQ(journal.recovery().records, 2u);
  EXPECT_EQ(fs::file_size(path_), intact_size);
  // The journal stays appendable after truncation.
  journal.record_running(0xddu, 2);
  const CampaignJournal::History history = journal.history(0xddu);
  EXPECT_EQ(history.attempts, 2u);
  EXPECT_EQ(history.deterministic_failures, 1u);
}

TEST_F(CampaignJournalTest, CorruptMidFileRecordDropsItAndTheRest) {
  {
    CampaignJournal journal(path_);
    journal.record_running(0xeeu, 1);
    journal.record_done(0xeeu, 1, ValidationPoint{"p", 8, 1.0, 2.0});
  }
  // Flip one byte inside the first record's checksum: recovery must
  // stop trusting the file at that line.
  std::string text = slurp(path_);
  const std::size_t line_end = text.find('\n', text.find('\n') + 1);
  ASSERT_NE(line_end, std::string::npos);
  text[line_end - 1] = text[line_end - 1] == '0' ? '1' : '0';
  { std::ofstream(path_, std::ios::binary | std::ios::trunc) << text; }

  CampaignJournal journal(path_);
  EXPECT_TRUE(journal.recovery().torn_tail);
  EXPECT_EQ(journal.recovery().records, 0u);
  EXPECT_FALSE(journal.history(0xeeu).done);
  // The file was truncated back to just the header.
  EXPECT_EQ(slurp(path_), "krakjournal 1\n");
}

TEST_F(CampaignJournalTest, CommentAndBlankLinesBetweenRecordsAreSkipped) {
  {
    CampaignJournal journal(path_);
    journal.record_running(0x11u, 1);
    journal.record_done(0x11u, 1, ValidationPoint{"p", 8, 1.0, 2.0});
    journal.record_running(0x22u, 1);
  }
  std::string text = slurp(path_);
  const std::size_t second = text.find('\n', text.find('\n') + 1) + 1;
  text.insert(text.find('\n', second) + 1, "# annotated by hand\n");
  text.insert(second, "\n");
  { std::ofstream(path_, std::ios::binary | std::ios::trunc) << text; }

  std::istringstream in(text);
  analyze::DiagnosticReport report;
  (void)analyze::lint_journal(in, report);
  EXPECT_TRUE(report.empty()) << report.to_text();
  const CampaignJournal journal(path_);
  EXPECT_EQ(journal.recovery().records, 3u);
  EXPECT_FALSE(journal.recovery().torn_tail);
  EXPECT_EQ(fs::file_size(path_), text.size());
  EXPECT_TRUE(journal.history(0x11u).done);
}

TEST_F(CampaignJournalTest, ShortBitPatternStopsRecoveryThere) {
  // Measured/predicted are exactly 16 hex digits; a shorter pattern is
  // a format error even under a valid seal.
  std::string body = "done 0000000000000011 1 p 8 3ff8 4000000000000000";
  body += ' ' + hex16(journal_checksum(body)) + '\n';
  {
    CampaignJournal journal(path_);
    journal.record_running(0x11u, 1);
  }
  const auto intact_size = fs::file_size(path_);
  append_raw(path_, body);

  std::istringstream in(slurp(path_));
  analyze::DiagnosticReport report;
  (void)analyze::lint_journal(in, report);
  EXPECT_TRUE(report.has_rule(analyze::rules::kJournalFormat))
      << report.to_text();
  const CampaignJournal journal(path_);
  EXPECT_EQ(journal.recovery().records, 1u);
  EXPECT_TRUE(journal.recovery().torn_tail);
  EXPECT_FALSE(journal.history(0x11u).done);
  EXPECT_EQ(fs::file_size(path_), intact_size);
}

TEST_F(CampaignJournalTest, RefusesToAdoptANonJournalFile) {
  fs::create_directories(directory_);
  { std::ofstream(path_) << "precious user data\nmore of it\n"; }
  EXPECT_THROW({ CampaignJournal journal(path_); }, util::KrakError);
  // The mistyped file was not truncated into a journal.
  EXPECT_EQ(slurp(path_), "precious user data\nmore of it\n");
}

TEST_F(CampaignJournalTest, CreatesMissingParentDirectories) {
  const fs::path nested = directory_ / "a" / "b" / "campaign.krakjournal";
  CampaignJournal journal(nested);
  journal.record_running(1u, 1);
  EXPECT_TRUE(fs::exists(nested));
}

TEST(JournalEscape, RoundTripsHostileStrings) {
  const std::string hostile = "spaces and % signs\tand\nnewlines\x7f";
  const std::string escaped = journal_escape(hostile);
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  const auto back = journal_unescape(escaped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, hostile);
}

TEST(JournalEscape, EmptyStringEncodesAsPercent) {
  EXPECT_EQ(journal_escape(""), "%");
  const auto back = journal_unescape("%");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "");
}

TEST(JournalEscape, MalformedEscapesAreRejected) {
  EXPECT_FALSE(journal_unescape("trailing%2").has_value());
  EXPECT_FALSE(journal_unescape("bad%zzhex").has_value());
}

// The published FNV-1a-64 test vectors; the store's deck fingerprints,
// the scenario fingerprints and the journal checksums all hash through
// this one helper.
TEST(Fnv1a64, MatchesPublishedVectors) {
  EXPECT_EQ(hex16(Fnv1a64().value()), "cbf29ce484222325");
  EXPECT_EQ(hex16(Fnv1a64().add("").value()), "cbf29ce484222325");
  EXPECT_EQ(hex16(Fnv1a64().add("a").value()), "af63dc4c8601ec8c");
  EXPECT_EQ(hex16(Fnv1a64().add("foobar").value()), "85944171f73967e8");
  // Adding in pieces hashes the concatenation.
  EXPECT_EQ(Fnv1a64().add("foo").add("bar").value(),
            Fnv1a64().add("foobar").value());
}

TEST(JournalChecksum, MatchesKnownFnv1aVector) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(journal_checksum(""), 0xcbf29ce484222325ull);
  EXPECT_NE(journal_checksum("running"), journal_checksum("runnin"));
}

}  // namespace
}  // namespace krak::core
