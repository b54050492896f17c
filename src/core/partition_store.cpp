#include "core/partition_store.hpp"

#include <charconv>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace krak::core {

namespace {

void bump_store_counter(const char* name) {
  obs::global_registry().counter(name).add();
}

void append_value(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

/// Parses the fixed header lines into `entry`. Stops at the first bad
/// line, since everything after the header is sized by pes and cells.
bool parse_header(LineReader& lines, PartitionEntry& entry) {
  std::string_view value;
  const auto field = [&](const char* key) {
    if (!lines.next()) {
      entry.violations.push_back({rules::kPartitionStoreFormat, 0,
                                  "missing '" + std::string(key) + "' line"});
      return false;
    }
    Tokens tokens(lines.line());
    std::string_view word;
    std::string_view extra;
    if (tokens.next(word) && word == key && tokens.next(value) &&
        !tokens.next(extra)) {
      return true;
    }
    entry.violations.push_back(
        {rules::kPartitionStoreFormat, lines.number(),
         "expected '" + std::string(key) + " <value>', got " +
             quoted(lines.line())});
    return false;
  };
  const auto malformed = [&](const char* expected) {
    entry.violations.push_back({rules::kPartitionStoreFormat, lines.number(),
                                "expected " + std::string(expected) +
                                    ", got " + quoted(lines.line())});
    return false;
  };

  if (!field("krakpart")) return false;
  if (value != "1") return malformed("'krakpart 1'");
  if (!field("fingerprint")) return false;
  if (!parse_hex16(value, entry.fingerprint)) {
    return malformed("'fingerprint <16 hex digits>'");
  }
  if (!field("pes")) return false;
  if (!parse_value(value, entry.pes) || entry.pes <= 0) {
    return malformed("'pes <positive 32-bit integer>'");
  }
  if (!field("method")) return false;
  try {
    entry.method = partition::parse_partition_method(value);
  } catch (const util::InvalidArgument&) {
    return malformed("'method strip|rcb|multilevel|material-aware'");
  }
  if (!field("seed")) return false;
  if (!parse_value(value, entry.seed)) return malformed("'seed <integer>'");
  if (!field("cells")) return false;
  if (!parse_value(value, entry.cells) || entry.cells <= 0) {
    return malformed("'cells <positive integer>'");
  }
  if (!field("checksum")) return false;
  if (!parse_hex16(value, entry.checksum)) {
    return malformed("'checksum <16 hex digits>'");
  }
  // Each offset and each cell takes at least a digit and a separator, so
  // a count the rest of the file cannot hold is corrupt — rejected here,
  // before anything is sized by it.
  const std::size_t room = lines.remaining() / 2;
  if (static_cast<std::uint64_t>(entry.pes) > room ||
      static_cast<std::uint64_t>(entry.cells) > room) {
    entry.violations.push_back(
        {rules::kPartitionStoreFormat, lines.number(),
         "pes " + std::to_string(entry.pes) + " and cells " +
             std::to_string(entry.cells) + " cannot fit in the remaining " +
             std::to_string(lines.remaining()) + " byte(s)"});
    return false;
  }
  return true;
}

/// Parses the `offsets` line into `entry`; true when the offsets are
/// consistent, so each part's count can be checked against its line.
bool parse_offsets(LineReader& lines, PartitionEntry& entry) {
  const auto violate = [&](const char* rule, std::string message) {
    entry.violations.push_back({rule, lines.number(), std::move(message)});
    return false;
  };
  if (!lines.next()) {
    entry.violations.push_back(
        {rules::kPartitionStoreFormat, 0, "missing 'offsets' line"});
    return false;
  }
  const auto expected = static_cast<std::size_t>(entry.pes) + 1;
  Tokens tokens(lines.line());
  std::string_view token;
  if (!tokens.next(token) || token != "offsets") {
    return violate(rules::kPartitionStoreFormat,
                   "expected 'offsets <" + std::to_string(expected) +
                       " values>', got " + quoted(lines.line()));
  }
  entry.offsets.reserve(expected);
  while (tokens.next(token)) {
    std::int64_t offset = 0;
    if (!parse_value(token, offset)) {
      return violate(rules::kPartitionStoreFormat,
                     "offset " + quoted(token) + " is not an integer");
    }
    entry.offsets.push_back(offset);
  }
  const std::vector<std::int64_t>& offsets = entry.offsets;
  if (offsets.size() != expected) {
    return violate(rules::kPartitionStoreOffsets,
                   "expected " + std::to_string(expected) + " offsets, got " +
                       std::to_string(offsets.size()));
  }
  bool consistent = true;
  if (offsets.front() != 0) {
    consistent = violate(
        rules::kPartitionStoreOffsets,
        "offsets must start at 0, got " + std::to_string(offsets.front()));
  }
  if (offsets.back() != entry.cells) {
    consistent = violate(rules::kPartitionStoreOffsets,
                         "offsets must end at the cell count " +
                             std::to_string(entry.cells) + ", got " +
                             std::to_string(offsets.back()));
  }
  for (std::size_t p = 0; p + 1 < offsets.size(); ++p) {
    if (offsets[p] > offsets[p + 1]) {
      return violate(rules::kPartitionStoreOffsets,
                     "offsets not monotone: offsets[" + std::to_string(p) +
                         "]=" + std::to_string(offsets[p]) + " > offsets[" +
                         std::to_string(p + 1) +
                         "]=" + std::to_string(offsets[p + 1]));
    }
  }
  return consistent;
}

}  // namespace

// Entry files hold millions of integers, so values go through
// from_chars over the one file buffer, with no iostream extraction and
// no per-token strings: that is what keeps a warm store load cheap
// relative to repartitioning.
PartitionEntry parse_partition_entry(std::string_view text) {
  PartitionEntry entry;
  LineReader lines(text);
  if (!parse_header(lines, entry)) return entry;
  const bool offsets_consistent = parse_offsets(lines, entry);
  const auto violate = [&](const char* rule, std::string message) {
    entry.violations.push_back({rule, lines.number(), std::move(message)});
  };

  // Part lines, `part <p> <cells...>`, one per part in label order. Each
  // line carries its own cells, so parsing never depends on (possibly
  // corrupt) offsets; the offsets are checked against the per-line
  // counts instead. Bad cells are reported once per line and kind, so
  // the violation list stays proportional to the line count.
  entry.assignment.assign(static_cast<std::size_t>(entry.cells), -1);
  std::int64_t labels = 0;
  std::int64_t assigned = 0;
  bool saw_end = false;
  while (lines.next()) {
    Tokens tokens(lines.line());
    std::string_view token;
    (void)tokens.next(token);  // a content line has a first token
    if (saw_end) {
      violate(rules::kPartitionStoreFormat,
              "content after 'end': " + quoted(lines.line()));
      continue;
    }
    if (token == "end") {
      saw_end = true;
      if (tokens.next(token)) {
        violate(rules::kPartitionStoreFormat,
                "content after 'end': " + quoted(lines.line()));
      }
      continue;
    }
    std::int64_t label = -1;
    if (token != "part" || !tokens.next(token) || !parse_value(token, label)) {
      violate(rules::kPartitionStoreFormat,
              "expected 'part <p> <cells...>' or 'end', got " +
                  quoted(lines.line()));
      continue;
    }
    if (label != labels) {
      violate(rules::kPartitionStoreBounds,
              "part labels must be sequential: expected " +
                  std::to_string(labels) + ", got " + std::to_string(label));
    }
    ++labels;
    const bool owned = label >= 0 && label < entry.pes;
    std::int64_t listed = 0;
    std::string_view bad_token;
    std::int64_t outside = 0;
    std::int64_t first_outside = 0;
    std::int64_t repeated = 0;
    std::int64_t first_repeated = 0;
    while (tokens.next(token)) {
      std::int64_t cell = -1;
      if (!parse_value(token, cell)) {
        if (bad_token.empty()) bad_token = token;
        continue;
      }
      ++listed;
      if (cell < 0 || cell >= entry.cells) {
        if (outside++ == 0) first_outside = cell;
        continue;
      }
      partition::PeId& owner = entry.assignment[static_cast<std::size_t>(cell)];
      if (owner != -1) {
        if (repeated++ == 0) first_repeated = cell;
      } else if (owned) {
        ++assigned;
      }
      if (owned) owner = static_cast<partition::PeId>(label);
    }
    const auto and_more = [](std::int64_t count) {
      return count > 1 ? " (and " + std::to_string(count - 1) + " more)"
                       : std::string();
    };
    if (!bad_token.empty()) {
      violate(rules::kPartitionStoreFormat,
              "cell " + quoted(bad_token) + " is not an integer");
    }
    if (outside > 0) {
      violate(rules::kPartitionStoreBounds,
              "cell " + std::to_string(first_outside) + " outside [0, " +
                  std::to_string(entry.cells) + ")" + and_more(outside));
    }
    if (repeated > 0) {
      violate(rules::kPartitionStoreBounds,
              "cell " + std::to_string(first_repeated) +
                  " already listed by an earlier part" + and_more(repeated));
    }
    if (offsets_consistent && owned) {
      const auto p = static_cast<std::size_t>(label);
      const std::int64_t declared = entry.offsets[p + 1] - entry.offsets[p];
      if (declared != listed) {
        violate(rules::kPartitionStoreOffsets,
                "part " + std::to_string(label) + " lists " +
                    std::to_string(listed) +
                    " cell(s) but the offsets imply " +
                    std::to_string(declared));
      }
    }
  }

  const auto violate_file = [&](const char* rule, std::string message) {
    entry.violations.push_back({rule, 0, std::move(message)});
  };
  if (!saw_end) {
    violate_file(rules::kPartitionStoreFormat,
                 "missing 'end' (file truncated?)");
  }
  if (labels != entry.pes) {
    violate_file(rules::kPartitionStoreBounds,
                 "expected " + std::to_string(entry.pes) +
                     " part line(s), got " + std::to_string(labels));
  }
  if (assigned != entry.cells) {
    violate_file(rules::kPartitionStoreBounds,
                 std::to_string(entry.cells - assigned) +
                     " cell(s) owned by no part");
  } else if (const std::uint64_t actual = partition_checksum(entry.assignment);
             actual != entry.checksum) {
    // Only a complete assignment has a meaningful checksum; coverage
    // errors above already explain an incomplete one.
    violate_file(rules::kPartitionStoreChecksum,
                 "declared checksum " + hex16(entry.checksum) +
                     " does not match assignment checksum " + hex16(actual));
  }
  return entry;
}

std::uint64_t deck_fingerprint(const mesh::InputDeck& deck) {
  Fnv1a64 hash;
  hash.add(deck.name());
  const std::int32_t nx = deck.grid().nx();
  const std::int32_t ny = deck.grid().ny();
  hash.add(&nx, sizeof(nx));
  hash.add(&ny, sizeof(ny));
  hash.add(deck.materials().data(),
           deck.materials().size() * sizeof(mesh::Material));
  const mesh::Point detonator = deck.detonator();
  hash.add(&detonator.x, sizeof(detonator.x));
  hash.add(&detonator.y, sizeof(detonator.y));
  return hash.value();
}

std::uint64_t partition_checksum(
    const std::vector<partition::PeId>& assignment) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const partition::PeId pe : assignment) {
    hash ^= static_cast<std::uint32_t>(pe);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

PartitionStore::PartitionStore(std::filesystem::path directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
  // A crash between temp-file write and rename leaves an orphan `.tmp`
  // that no load ever consults; sweep them on open so an interrupted
  // run cannot accumulate dead files in the store directory.
  const std::size_t orphans = util::remove_orphan_temp_files(directory_);
  if (orphans > 0) {
    obs::global_registry()
        .counter("partition_store.orphans_removed")
        .add(static_cast<std::int64_t>(orphans));
  }
}

std::filesystem::path PartitionStore::entry_path(const Key& key) const {
  std::string name = hex16(key.fingerprint);
  name += '-';
  append_value(name, static_cast<std::uint64_t>(key.pes));
  name += '-';
  name += partition::partition_method_name(key.method);
  name += '-';
  append_value(name, key.seed);
  name += ".krakpart";
  return directory_ / name;
}

std::optional<partition::Partition> PartitionStore::load(const Key& key) {
  const std::filesystem::path path = entry_path(key);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.misses;
      bump_store_counter("partition_store.misses");
      return std::nullopt;
    }
    in.seekg(0, std::ios::end);
    text.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
  }
  PartitionEntry entry = parse_partition_entry(text);
  if (!entry.violations.empty() || entry.fingerprint != key.fingerprint ||
      entry.pes != key.pes || entry.method != key.method ||
      entry.seed != key.seed) {
    // Evict: a failed check means the file is corrupt or stale, and a
    // deleted entry is simply recomputed on the next run.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rejects;
    bump_store_counter("partition_store.rejects");
    return std::nullopt;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.hits;
    bump_store_counter("partition_store.hits");
  }
  return partition::Partition(entry.pes, std::move(entry.assignment));
}

void PartitionStore::save(const Key& key, const partition::Partition& part) {
  KRAK_REQUIRE(part.parts() == key.pes,
               "PartitionStore::save key/partition PE count mismatch");
  const std::vector<partition::PeId>& assignment = part.assignment();
  std::string text;
  text.reserve(assignment.size() * 8 + 64 * static_cast<std::size_t>(key.pes));
  text += "krakpart 1\nfingerprint ";
  text += hex16(key.fingerprint);
  text += "\npes ";
  append_value(text, static_cast<std::uint64_t>(key.pes));
  text += "\nmethod ";
  text += partition::partition_method_name(key.method);
  text += "\nseed ";
  append_value(text, key.seed);
  text += "\ncells ";
  append_value(text, static_cast<std::uint64_t>(assignment.size()));
  text += "\nchecksum ";
  text += hex16(partition_checksum(assignment));

  const std::vector<std::int64_t> counts = part.cell_counts();
  text += "\noffsets 0";
  std::int64_t offset = 0;
  for (const std::int64_t count : counts) {
    offset += count;
    text += ' ';
    append_value(text, static_cast<std::uint64_t>(offset));
  }
  // Cells grouped by part in ascending order: one bucket-fill pass over
  // the CSR offsets instead of one assignment scan per part.
  std::vector<std::int64_t> grouped(assignment.size());
  {
    std::vector<std::int64_t> cursor(counts.size(), 0);
    std::int64_t base = 0;
    for (std::size_t p = 0; p < counts.size(); ++p) {
      cursor[p] = base;
      base += counts[p];
    }
    for (std::size_t cell = 0; cell < assignment.size(); ++cell) {
      grouped[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(assignment[cell])]++)] =
          static_cast<std::int64_t>(cell);
    }
  }
  std::int64_t next = 0;
  for (std::int32_t p = 0; p < key.pes; ++p) {
    text += "\npart ";
    append_value(text, static_cast<std::uint64_t>(p));
    for (std::int64_t k = 0; k < counts[static_cast<std::size_t>(p)]; ++k) {
      text += ' ';
      append_value(text,
                   static_cast<std::uint64_t>(grouped[static_cast<std::size_t>(
                       next++)]));
    }
  }
  text += "\nend\n";

  // Temp-file-plus-flush-plus-rename (util::atomic_write_file) keeps a
  // crash from leaving a truncated file under a valid entry name, and
  // syncs the bytes before publishing the name so the rename can never
  // expose unsynced content. The temp name is per-entry, so concurrent
  // saves of different keys never collide; concurrent saves of the same
  // key write identical bytes.
  util::atomic_write_file(entry_path(key), text);
}

PartitionStore::Counters PartitionStore::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace krak::core
