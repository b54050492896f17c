#include "core/partition_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/lint_partition_store.hpp"
#include "core/partition_cache.hpp"
#include "mesh/deck.hpp"
#include "partition/partition.hpp"

namespace krak::core {
namespace {

namespace fs = std::filesystem;

/// Fresh store directory per test; removed on teardown so reruns always
/// start cold.
class PartitionStoreTest : public ::testing::Test {
 protected:
  PartitionStoreTest()
      : directory_(fs::path(::testing::TempDir()) /
                   ("krak_partition_store_" +
                    std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()))) {
    fs::remove_all(directory_);
  }

  ~PartitionStoreTest() override {
    std::error_code ec;
    fs::remove_all(directory_, ec);
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void overwrite(const fs::path& path, const std::string& text) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  }

  static analyze::DiagnosticReport lint(const std::string& text) {
    std::istringstream in(text);
    analyze::DiagnosticReport report;
    (void)analyze::lint_partition_store(in, report);
    return report;
  }

  fs::path directory_;
};

PartitionStore::Key key_for(const mesh::InputDeck& deck, std::int32_t pes,
                            std::uint64_t seed) {
  PartitionStore::Key key;
  key.fingerprint = deck_fingerprint(deck);
  key.pes = pes;
  key.method = partition::PartitionMethod::kMultilevel;
  key.seed = seed;
  return key;
}

TEST_F(PartitionStoreTest, SaveThenLoadRoundtripsExactly) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);

  PartitionStore store(directory_);
  store.save(key, part);
  ASSERT_TRUE(fs::exists(store.entry_path(key)));

  const std::optional<partition::Partition> loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->parts(), part.parts());
  EXPECT_EQ(loaded->assignment(), part.assignment());
  const PartitionStore::Counters counters = store.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.rejects, 0u);
}

TEST_F(PartitionStoreTest, AbsentEntryIsAMiss) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  PartitionStore store(directory_);
  EXPECT_FALSE(store.load(key_for(deck, 64, 1)).has_value());
  EXPECT_EQ(store.counters().misses, 1u);
}

TEST_F(PartitionStoreTest, EntryFilenameEncodesTheKey) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const PartitionStore::Key key = key_for(deck, 64, 7);
  PartitionStore store(directory_);
  const std::string name = store.entry_path(key).filename().string();
  EXPECT_NE(name.find("-64-multilevel-7.krakpart"), std::string::npos) << name;
  // 16 hex digits of the fingerprint lead the name.
  EXPECT_EQ(name.find('-'), 16u) << name;
}

TEST_F(PartitionStoreTest, CorruptEntryIsRejectedAndEvicted) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);

  // Sets the `cells` header and the last offset to `cells`, so the two
  // agree and only the size itself is wrong.
  const auto claim_cells = [](const std::string& cells) {
    return [cells](std::string text) {
      const std::size_t header = text.find("\ncells ") + 7;
      const std::size_t header_end = text.find('\n', header);
      const std::string old = text.substr(header, header_end - header);
      text.replace(header, old.size(), cells);
      const std::size_t offsets_end = text.find("\npart ");
      text.replace(offsets_end - old.size(), old.size(), cells);
      return text;
    };
  };
  const std::vector<
      std::pair<const char*, std::function<std::string(std::string)>>>
      corruptions = {
          // The file stays structurally valid, so only the integrity
          // check can catch it.
          {"flipped checksum digit",
           [](std::string text) {
             const std::size_t pos = text.find("checksum ");
             EXPECT_NE(pos, std::string::npos);
             text[pos + 9] = text[pos + 9] == '0' ? '1' : '0';
             return text;
           }},
          {"entry joined into one line",
           [](std::string text) {
             std::replace(text.begin(), text.end(), '\n', ' ');
             return text;
           }},
          // Sizes no file this short can hold: rejected before any
          // allocation instead of throwing std::bad_alloc / length_error.
          {"cells 10^12", claim_cells("1000000000000")},
          {"cells 9*10^18", claim_cells("9000000000000000000")},
      };

  PartitionStore store(directory_);
  std::uint64_t rejects = 0;
  std::uint64_t misses = 0;
  for (const auto& [name, corrupt] : corruptions) {
    SCOPED_TRACE(name);
    store.save(key, part);
    const std::string text = corrupt(slurp(store.entry_path(key)));
    overwrite(store.entry_path(key), text);

    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.counters().rejects, ++rejects);
    // The bad file is gone; the next load is a plain miss and a rerun
    // recomputes the entry.
    EXPECT_FALSE(fs::exists(store.entry_path(key)));
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.counters().misses, ++misses);
    // The linter explains the reject instead of throwing.
    EXPECT_TRUE(lint(text).has_errors()) << text.substr(0, 200);
  }
}

TEST_F(PartitionStoreTest, CommentAndBlankLinesAreSkipped) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);
  PartitionStore store(directory_);
  store.save(key, part);
  std::string text = slurp(store.entry_path(key));
  text.insert(text.find("\nchecksum ") + 1, "# annotated by hand\n");
  text.insert(text.find("\npart 1 ") + 1, "\n  \t\n");
  overwrite(store.entry_path(key), text);

  EXPECT_FALSE(lint(text).has_errors()) << lint(text).to_text();
  const std::optional<partition::Partition> loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->assignment(), part.assignment());
  EXPECT_TRUE(fs::exists(store.entry_path(key)));
}

TEST_F(PartitionStoreTest, MismatchedKeyRejectsEntry) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);

  PartitionStore store(directory_);
  store.save(key, part);
  // Same bytes renamed under a different seed: header/key disagreement
  // must reject, not silently serve the wrong configuration.
  PartitionStore::Key wrong = key;
  wrong.seed = 2;
  fs::copy_file(store.entry_path(key), store.entry_path(wrong));
  EXPECT_FALSE(store.load(wrong).has_value());
  EXPECT_EQ(store.counters().rejects, 1u);
}

TEST_F(PartitionStoreTest, CacheWarmRerunServesFromStore) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const auto store = std::make_shared<PartitionStore>(directory_);

  PartitionCache cache;
  cache.set_store(store);
  const auto cold = cache.get(deck, 16,
                              partition::PartitionMethod::kMultilevel, 1);
  EXPECT_EQ(store->counters().misses, 1u);
  EXPECT_TRUE(fs::exists(
      store->entry_path(key_for(deck, 16, 1))));

  // A new cache against the same directory models a rerun of the
  // process: the store, not the partitioner, supplies the result.
  PartitionCache rerun;
  rerun.set_store(store);
  const auto warm = rerun.get(deck, 16,
                              partition::PartitionMethod::kMultilevel, 1);
  EXPECT_EQ(store->counters().hits, 1u);
  EXPECT_EQ(warm->partition.assignment(), cold->partition.assignment());
  EXPECT_EQ(warm->stats->total_boundary_faces(),
            cold->stats->total_boundary_faces());
}

TEST_F(PartitionStoreTest, OpeningSweepsOrphanTempFiles) {
  // A crash between the temp write and the rename leaves `*.tmp` files
  // behind; opening the store must sweep them without touching entries.
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);
  {
    PartitionStore store(directory_);
    store.save(key, part);
  }
  const fs::path orphan =
      directory_ / "deadbeefdeadbeef-64-multilevel-1.krakpart.tmp";
  std::ofstream(orphan) << "half-written entry";
  ASSERT_TRUE(fs::exists(orphan));

  PartitionStore store(directory_);
  EXPECT_FALSE(fs::exists(orphan));
  // The real entry survived the sweep and still loads.
  EXPECT_TRUE(store.load(key).has_value());
}

TEST_F(PartitionStoreTest, SaveLeavesNoTempFileBehind) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);
  PartitionStore store(directory_);
  store.save(key, part);
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(PartitionStoreTest, ChecksumMatchesTheStoredDigest) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const PartitionStore::Key key = key_for(deck, 16, 1);
  PartitionStore store(directory_);
  store.save(key, part);

  std::ifstream in(store.entry_path(key));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  char digest[17] = {};
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    partition_checksum(part.assignment())));
  EXPECT_NE(text.find(std::string("checksum ") + digest), std::string::npos);
}

}  // namespace
}  // namespace krak::core
