#include "analyze/lint_partition_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/rules.hpp"
#include "core/partition_store.hpp"
#include "mesh/deck.hpp"
#include "partition/partition.hpp"

namespace krak::analyze {
namespace {

DiagnosticReport lint_text(const std::string& text,
                           core::PartitionEntry* parsed = nullptr) {
  std::istringstream in(text);
  DiagnosticReport report;
  core::PartitionEntry file = lint_partition_store(in, report);
  if (parsed != nullptr) *parsed = std::move(file);
  return report;
}

TEST(LintPartitionStore, CleanEntryHasNoFindings) {
  core::PartitionEntry parsed;
  const DiagnosticReport report = lint_text(
      "krakpart 1\n"
      "fingerprint 00000000deadbeef\n"
      "pes 2\n"
      "method rcb\n"
      "seed 5\n"
      "cells 4\n"
      // FNV-1a of the assignment [0, 0, 1, 1].
      "checksum 4d22117f9dcb327f\n"
      "offsets 0 2 4\n"
      "part 0 0 1\n"
      "part 1 2 3\n"
      "end\n",
      &parsed);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(parsed.fingerprint, 0x00000000deadbeefull);
  EXPECT_EQ(parsed.pes, 2);
  EXPECT_EQ(parsed.method, partition::PartitionMethod::kRcb);
  EXPECT_EQ(parsed.seed, 5u);
  EXPECT_EQ(parsed.assignment,
            (std::vector<std::int32_t>{0, 0, 1, 1}));
}

TEST(LintPartitionStore, WrongMagicIsFormatError) {
  const DiagnosticReport report = lint_text("krakcost 1\nend\n");
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreFormat))
      << report.to_text();
}

TEST(LintPartitionStore, NonMonotoneOffsetsAreFlagged) {
  const DiagnosticReport report = lint_text(
      "krakpart 1\n"
      "fingerprint 0000000000000001\n"
      "pes 2\n"
      "method strip\n"
      "seed 1\n"
      "cells 4\n"
      "checksum 4d22117f9dcb327f\n"
      "offsets 0 3 4\n"
      "part 0 0 1\n"
      "part 1 2 3\n"
      "end\n");
  // Offsets are internally monotone but disagree with the per-line cell
  // counts, which is the same rule.
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreOffsets))
      << report.to_text();
}

TEST(LintPartitionStore, UnassignedCellIsBoundsError) {
  const DiagnosticReport report = lint_text(
      "krakpart 1\n"
      "fingerprint 0000000000000001\n"
      "pes 2\n"
      "method strip\n"
      "seed 1\n"
      "cells 4\n"
      "checksum 4d22117f9dcb327f\n"
      "offsets 0 2 4\n"
      "part 0 0 1\n"
      "part 1 2\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreBounds))
      << report.to_text();
}

TEST(LintPartitionStore, CorruptedFixtureTriggersEveryStoreRule) {
  const DiagnosticReport report = lint_text(corrupted_partition_store_text());
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreFormat))
      << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreOffsets))
      << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreBounds))
      << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kPartitionStoreChecksum))
      << report.to_text();
}

TEST(LintPartitionStore, MissingFileNamesPathAndCause) {
  const std::string path = "/nonexistent/store/entry.krakpart";
  const DiagnosticReport report = lint_partition_store_file(path);
  ASSERT_TRUE(report.has_rule(rules::kPartitionStoreFormat));
  bool named = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find(path) != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << report.to_text();
}

// The linter and the store speak the same dialect: everything
// PartitionStore::save writes must lint clean, field for field.
TEST(LintPartitionStore, StoreWrittenEntryLintsClean) {
  namespace fs = std::filesystem;
  const fs::path directory =
      fs::path(::testing::TempDir()) / "krak_lint_store_roundtrip";
  fs::remove_all(directory);

  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  core::PartitionStore store(directory);
  core::PartitionStore::Key key;
  key.fingerprint = core::deck_fingerprint(deck);
  key.pes = 16;
  key.method = partition::PartitionMethod::kMultilevel;
  key.seed = 1;
  store.save(key, part);

  core::PartitionEntry parsed;
  const DiagnosticReport report = [&] {
    std::ifstream in(store.entry_path(key));
    DiagnosticReport r;
    parsed = lint_partition_store(in, r);
    return r;
  }();
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(parsed.fingerprint, key.fingerprint);
  EXPECT_EQ(parsed.pes, 16);
  EXPECT_EQ(parsed.method, partition::PartitionMethod::kMultilevel);
  EXPECT_EQ(parsed.checksum, core::partition_checksum(part.assignment()));
  EXPECT_EQ(parsed.assignment, part.assignment());

  std::error_code ec;
  fs::remove_all(directory, ec);
}

}  // namespace
}  // namespace krak::analyze
