#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/text_format.hpp"
#include "mesh/deck.hpp"
#include "partition/partition.hpp"

namespace krak::core {

/// FNV-1a over a deck's full content (name, grid, material layout,
/// detonator), so stored partitions and cache entries can never alias
/// two decks that merely share a name.
[[nodiscard]] std::uint64_t deck_fingerprint(const mesh::InputDeck& deck);

/// FNV-1a over a partition assignment; the integrity checksum embedded
/// in `krakpart` files and checked by `krak_analyze --partition-store`.
[[nodiscard]] std::uint64_t partition_checksum(
    const std::vector<partition::PeId>& assignment);

namespace rules {

/// Rule ids of `krakpart` violations, as `krak_analyze
/// --partition-store` reports them (docs/ANALYSIS.md).
///
/// Structure: the `krakpart 1` header, the fixed header fields in order
/// with well-formed values, a known method, pes and cells the remaining
/// bytes can hold, one `part` line per part, a terminating `end` and
/// nothing after it.
inline constexpr const char* kPartitionStoreFormat = "partition-store-format";
/// CSR offsets start at 0, end at the cell count, never decrease, and
/// agree with each part line's cell count.
inline constexpr const char* kPartitionStoreOffsets = "partition-store-offsets";
/// Part labels run 0..pes-1 and every cell id lies in [0, cells), is
/// listed exactly once, and no cell is left unowned.
inline constexpr const char* kPartitionStoreBounds = "partition-store-bounds";
/// The declared checksum equals partition_checksum of the assignment.
inline constexpr const char* kPartitionStoreChecksum =
    "partition-store-checksum";

}  // namespace rules

/// A `krakpart 1` entry as parse_partition_entry read it. Fields after
/// the first header line that fails to parse keep their defaults.
struct PartitionEntry {
  std::uint64_t fingerprint = 0;
  std::int32_t pes = 0;
  partition::PartitionMethod method = partition::PartitionMethod::kMultilevel;
  std::uint64_t seed = 0;
  std::int64_t cells = 0;
  std::uint64_t checksum = 0;
  std::vector<std::int64_t> offsets;
  /// `assignment[cell]` is the part that listed the cell, -1 if none.
  std::vector<partition::PeId> assignment;
  /// Every rule the text breaks, in line order; empty exactly when the
  /// entry is valid.
  std::vector<FormatViolation> violations;
};

/// The krakpart parser. PartitionStore::load serves an entry only when
/// it reports no violation; `krak_analyze --partition-store` prints the
/// violations. The one check it cannot make is the store's own: that
/// the header matches the key the entry was loaded under.
[[nodiscard]] PartitionEntry parse_partition_entry(std::string_view text);

/// Versioned on-disk store of partition assignments.
///
/// Campaigns repartition the same decks at the same PE counts on every
/// invocation; the store persists each result so a rerun skips the
/// partitioner entirely (docs/PERFORMANCE.md, "Partitioner"). One file
/// per configuration, named
/// `<fingerprint>-<pes>-<method>-<seed>.krakpart`, in the `krakpart 1`
/// text format:
///
///     krakpart 1
///     fingerprint <16 hex digits>
///     pes <P>
///     method <method name>
///     seed <decimal>
///     cells <N>
///     checksum <16 hex digits of partition_checksum>
///     offsets <P+1 monotone values; offsets[0]=0, offsets[P]=N>
///     part <p> <cells of part p, ascending>     (P lines)
///     end
///
/// Blank lines and `#` comment lines are skipped. Every load parses the
/// file with parse_partition_entry and checks that its header matches
/// the key; a file with any violation or a mismatched header is deleted
/// and reported as a reject, so a corrupt or stale store heals itself
/// instead of poisoning runs. Counters are mirrored into the
/// observability registry as `partition_store.{hits,misses,rejects}`.
///
/// Thread-safe; writes go through a temp file plus rename so a crashed
/// run never leaves a half-written entry under a valid name.
class PartitionStore {
 public:
  /// Uses (and creates if needed) `directory` for the entry files.
  explicit PartitionStore(std::filesystem::path directory);

  struct Key {
    std::uint64_t fingerprint = 0;
    std::int32_t pes = 0;
    partition::PartitionMethod method = partition::PartitionMethod::kMultilevel;
    std::uint64_t seed = 1;
  };

  /// Load the stored partition of `key`; nullopt when absent or when
  /// the file fails validation (the file is then evicted).
  [[nodiscard]] std::optional<partition::Partition> load(const Key& key);

  /// Persist an assignment under `key`, replacing any existing entry.
  void save(const Key& key, const partition::Partition& partition);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejects = 0;
  };
  [[nodiscard]] Counters counters() const;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

  /// File an entry of `key` lives at (exposed for tests and tooling).
  [[nodiscard]] std::filesystem::path entry_path(const Key& key) const;

 private:
  std::filesystem::path directory_;
  mutable std::mutex mutex_;
  Counters counters_;
};

}  // namespace krak::core
