// Mutation tests of the one-parser contract (docs/ANALYSIS.md): over
// seeded mutants of writer-produced files and of the corrupted fixtures,
// a krakpart entry lints clean exactly when PartitionStore serves it,
// CampaignJournal recovery replays exactly the records before the
// linter's first journal-format or journal-checksum error — refusing
// the file exactly when that error is in the header — and a krakfaults
// plan lints clean exactly when it loads and InjectionEngine accepts
// it. Neither side may throw anything else on any mutant. A krakcosts
// table has no text linter: each mutant either loads or is refused with
// KrakError, and a table that loads round-trips through the writer. A
// krak-bench-v2 report (the `krak_bench --validate` / `--compare`
// reader) either validates or is refused with KrakError or schema
// violations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/lint_faults.hpp"
#include "analyze/lint_journal.hpp"
#include "analyze/lint_partition_store.hpp"
#include "analyze/rules.hpp"
#include "core/campaign_journal.hpp"
#include "core/partition_store.hpp"
#include "core/table_io.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "partition/partition.hpp"
#include "simapp/costmodel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace krak::analyze {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerSeed = 600;

/// Lines of `text`, each keeping its '\n' (the last may lack one).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::size_t next = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(text.substr(pos, next - pos));
    pos = next;
  }
  return lines;
}

/// One to three seeded edits: bit flips, truncations, and deleted,
/// duplicated, swapped or inserted blank/`#` lines.
std::string mutate(const std::string& seed, util::Rng& rng) {
  std::string text = seed;
  const auto edits = 1 + rng.next_below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    std::vector<std::string> lines = split_lines(text);
    // An iterator to a random line, or (with `end`) to the end.
    const auto pick = [&](bool end = false) {
      return lines.begin() + static_cast<std::ptrdiff_t>(
                                 rng.next_below(lines.size() + (end ? 1 : 0)));
    };
    switch (rng.next_below(7)) {
      case 0:
        if (!text.empty()) {
          char& byte = text[rng.next_below(text.size())];
          byte = static_cast<char>(static_cast<unsigned char>(byte) ^
                                   (1u << rng.next_below(8)));
        }
        continue;
      case 1:
        text.resize(rng.next_below(text.size() + 1));
        continue;
      case 2:
        if (!lines.empty()) lines.erase(pick());
        break;
      case 3:
        if (!lines.empty()) {
          const auto at = pick();
          const std::string copy = *at;
          lines.insert(at, copy);
        }
        break;
      case 4:
        if (!lines.empty()) {
          const auto a = pick();
          const auto b = pick();
          std::iter_swap(a, b);
        }
        break;
      case 5:
        lines.insert(pick(/*end=*/true), "\n");
        break;
      default:
        lines.insert(pick(/*end=*/true), "# inserted comment\n");
        break;
    }
    text.clear();
    for (const std::string& line : lines) text += line;
  }
  return text;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Fresh scratch directory per test.
class FormatMutation : public ::testing::Test {
 protected:
  FormatMutation()
      : directory_(fs::path(::testing::TempDir()) /
                   ("krak_format_mutation_" +
                    std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()))) {
    fs::remove_all(directory_);
    fs::create_directories(directory_);
  }

  ~FormatMutation() override {
    std::error_code ec;
    fs::remove_all(directory_, ec);
  }

  fs::path directory_;
};

TEST_F(FormatMutation, StoreEntryLintsCleanExactlyWhenItLoads) {
  core::PartitionStore store(directory_ / "store");
  core::PartitionStore::Key key;
  key.fingerprint = 0x00c0ffee00000001ull;
  key.pes = 3;
  key.method = partition::PartitionMethod::kRcb;
  key.seed = 7;
  store.save(key, partition::Partition(
                      3, {0, 0, 1, 2, 1, 2, 0, 1, 2, 2, 1, 0}));
  const std::string written = read_file(store.entry_path(key));
  fs::remove(store.entry_path(key));

  std::size_t loaded_count = 0;
  std::size_t rejected_count = 0;
  const std::pair<std::string, std::uint64_t> seeds[] = {
      {written, 101}, {corrupted_partition_store_text(), 202}};
  for (const auto& [seed, rng_seed] : seeds) {
    util::Rng rng(rng_seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(seed, rng);
      std::istringstream in(mutant);
      DiagnosticReport report;
      const core::PartitionEntry entry = lint_partition_store(in, report);

      // The key the mutant's header declares (defaults where it fails
      // to parse, which the load must then reject anyway).
      core::PartitionStore::Key declared;
      declared.fingerprint = entry.fingerprint;
      declared.pes = entry.pes;
      declared.method = entry.method;
      declared.seed = entry.seed;
      const fs::path path = store.entry_path(declared);
      write_file(path, mutant);
      const std::optional<partition::Partition> loaded = store.load(declared);

      ASSERT_EQ(loaded.has_value(), !report.has_errors())
          << "mutant " << i << " of seed " << rng_seed << ":\n"
          << mutant << "\n--- lint:\n"
          << report.to_text();
      if (loaded.has_value()) {
        ++loaded_count;
        ASSERT_EQ(loaded->assignment(), entry.assignment);
        fs::remove(path);
      } else {
        ++rejected_count;
        ASSERT_FALSE(fs::exists(path)) << "rejected entry not evicted";
      }
    }
  }
  // Both outcomes occur, so the equivalence is not vacuous.
  EXPECT_GT(loaded_count, 0u);
  EXPECT_GT(rejected_count, 0u);
}

/// Number of a journal diagnostic's line: "journal/line N" is N,
/// a whole-file "journal" is 0.
std::size_t diagnostic_line(const Diagnostic& diagnostic) {
  const std::string prefix = "journal/line ";
  if (diagnostic.component.rfind(prefix, 0) != 0) return 0;
  return std::stoul(diagnostic.component.substr(prefix.size()));
}

TEST_F(FormatMutation, JournalRecoveryStopsAtTheFirstLintError) {
  const fs::path written_path = directory_ / "written.krakjournal";
  {
    core::CampaignJournal journal(written_path);
    core::ValidationPoint point{"small problem (16 PEs)", 16, 1.25, 1.5};
    journal.record_running(0xau, 1);
    journal.record_failed(0xau, 1, /*transient=*/true, "deadline");
    journal.record_running(0xau, 2);
    journal.record_done(0xau, 2, point);
    journal.record_running(0xbu, 1);
    journal.record_failed(0xbu, 1, /*transient=*/false, "rank 3 hang");
    journal.record_quarantined(0xbu, 1, "rank 3 hang");
  }
  const std::string written = read_file(written_path);

  const fs::path path = directory_ / "mutant.krakjournal";
  std::size_t refused = 0;
  std::size_t truncated = 0;
  const std::pair<std::string, std::uint64_t> seeds[] = {
      {written, 303}, {corrupted_journal_text(), 404}};
  for (const auto& [seed, rng_seed] : seeds) {
    util::Rng rng(rng_seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(seed, rng);
      std::istringstream in(mutant);
      DiagnosticReport report;
      const core::CampaignJournal::Recovery linted = lint_journal(in, report);

      // Content lines among the newline-terminated ones, by number; a
      // partial last line is a torn append, never content.
      std::vector<std::size_t> content;
      const std::vector<std::string> lines = split_lines(mutant);
      for (std::size_t n = 0; n < lines.size(); ++n) {
        const std::string& line = lines[n];
        if (line.back() != '\n') break;
        const std::size_t first = line.find_first_not_of(" \t\r\n");
        if (first != std::string::npos && line[first] != '#') {
          content.push_back(n + 1);
        }
      }
      std::optional<std::size_t> first_error;
      for (const Diagnostic& d : report.diagnostics()) {
        if (d.rule != rules::kJournalFormat &&
            d.rule != rules::kJournalChecksum) {
          continue;
        }
        const std::size_t line = diagnostic_line(d);
        if (!first_error.has_value() || line < *first_error) first_error = line;
      }
      const bool header_error =
          first_error.has_value() &&
          (*first_error == 0 ||
           (!content.empty() && *first_error == content.front()));
      std::size_t expected = 0;
      for (std::size_t k = 1; k < content.size(); ++k) {
        if (first_error.has_value() && content[k] >= *first_error) break;
        ++expected;
      }

      write_file(path, mutant);
      const std::string context = "mutant " + std::to_string(i) +
                                  " of seed " + std::to_string(rng_seed) +
                                  ":\n" + mutant + "\n--- lint:\n" +
                                  report.to_text();
      std::optional<core::CampaignJournal::Recovery> recovered;
      try {
        const core::CampaignJournal journal(path);
        recovered = journal.recovery();
      } catch (const util::KrakError&) {
        ASSERT_TRUE(header_error) << context;
        ASSERT_EQ(read_file(path), mutant) << "refused file was modified";
        ++refused;
        continue;
      }
      ASSERT_FALSE(header_error) << context;
      ASSERT_EQ(recovered->records, expected) << context;
      ASSERT_EQ(recovered->records, linted.records) << context;
      ASSERT_EQ(recovered->scenarios, linted.scenarios) << context;
      ASSERT_EQ(recovered->completed, linted.completed) << context;
      ASSERT_EQ(recovered->quarantined, linted.quarantined) << context;
      ASSERT_EQ(recovered->torn_tail, linted.torn_tail) << context;
      ASSERT_EQ(recovered->dropped_bytes, linted.dropped_bytes) << context;
      ASSERT_EQ(fs::file_size(path), mutant.size() - linted.dropped_bytes);
      if (recovered->torn_tail) ++truncated;

      // A recovered journal reopens clean, with the same records.
      const core::CampaignJournal reopened(path);
      ASSERT_FALSE(reopened.recovery().torn_tail) << context;
      ASSERT_EQ(reopened.recovery().records, expected) << context;
    }
  }
  // Refusal, truncation and clean replay all occur.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_LT(refused + truncated, 2u * kMutantsPerSeed);
}

TEST_F(FormatMutation, FaultPlanLintsCleanExactlyWhenTheEngineAcceptsIt) {
  constexpr std::int32_t kRanks = 8;
  // One of every directive, as the writer emits it.
  std::istringstream example(
      "krakfaults 1\n"
      "seed 42\n"
      "slowdown rank=2 factor=1.5\n"
      "noise rank=* period=1e-3 duration=25e-6\n"
      "delay rank=0 phase=4 iter=1 seconds=2e-3\n"
      "messages rank=* drop=0.05 delay=1e-6 rto=1e-4 retries=3\n"
      "degrade rank=3 bandwidth=0.25\n"
      "crash rank=1 phase=9 iter=0 restart=0.05 interval=0.4\n"
      "watchdog max_seconds=10\n"
      "end\n");
  std::ostringstream written;
  fault::write_fault_plan(written, fault::parse_fault_plan(example));

  const fs::path path = directory_ / "mutant.krakfaults";
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const std::pair<std::string, std::uint64_t> seeds[] = {
      {written.str(), 505}, {corrupted_fault_spec_text(), 606}};
  for (const auto& [seed, rng_seed] : seeds) {
    util::Rng rng(rng_seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(seed, rng);
      write_file(path, mutant);
      const DiagnosticReport report =
          lint_fault_file(path.string(), kRanks, simapp::kPhaseCount);
      bool runs = true;
      try {
        const fault::InjectionEngine engine(
            fault::load_fault_plan(path.string()), kRanks,
            simapp::kPhaseCount);
      } catch (const util::KrakError&) {
        runs = false;
      }
      ASSERT_EQ(runs, !report.has_errors())
          << "mutant " << i << " of seed " << rng_seed << ":\n"
          << mutant << "\n--- lint:\n"
          << report.to_text();
      ++(runs ? accepted : rejected);
    }
  }
  // Both outcomes occur, so the equivalence is not vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

std::string cost_table_text(const core::CostTable& table) {
  std::ostringstream out;
  core::write_cost_table(out, table);
  return out.str();
}

TEST_F(FormatMutation, CostTableLoadsOrIsRefusedAndRoundTrips) {
  // Every (phase, material) curve sampled from the engine: the shape of
  // the calibrated tables `model_explorer --save-costs` writes.
  const simapp::ComputationCostEngine engine;
  core::CostTable table;
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    for (const mesh::Material material : mesh::all_materials()) {
      for (const std::int64_t cells : {16, 256, 4096}) {
        table.add_sample(phase, material, static_cast<double>(cells),
                         engine.per_cell_cost(phase, material, cells));
      }
    }
  }
  const std::string written = cost_table_text(table);

  const fs::path path = directory_ / "mutant.krakcosts";
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (const std::uint64_t rng_seed : {707u, 808u}) {
    util::Rng rng(rng_seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(written, rng);
      write_file(path, mutant);
      std::string text;
      try {
        text = cost_table_text(core::load_cost_table(path.string()));
      } catch (const util::KrakError&) {
        ++refused;
        continue;
      }
      ++loaded;
      std::istringstream reread(text);
      ASSERT_EQ(cost_table_text(core::read_cost_table(reread)), text)
          << "mutant " << i << " of seed " << rng_seed << ":\n"
          << mutant;
    }
  }
  // Both outcomes occur, so the check is not vacuous.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

TEST_F(FormatMutation, BenchReportValidatesOrIsRefused) {
  const std::string written = read_file(KRAK_BENCH_BASELINE);
  ASSERT_TRUE(obs::validate_bench_report(obs::Json::parse(written)).empty());

  std::size_t valid = 0;
  std::size_t refused = 0;
  for (const std::uint64_t rng_seed : {909u, 1010u}) {
    util::Rng rng(rng_seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(written, rng);
      try {
        const std::vector<std::string> violations =
            obs::validate_bench_report(obs::Json::parse(mutant));
        ++(violations.empty() ? valid : refused);
      } catch (const util::KrakError&) {
        ++refused;
      }
    }
  }
  // Both outcomes occur, so the check is not vacuous.
  EXPECT_GT(valid, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace krak::analyze
