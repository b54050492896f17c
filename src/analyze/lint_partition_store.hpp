#pragma once

#include <iosfwd>
#include <string>

#include "analyze/diagnostic.hpp"
#include "core/partition_store.hpp"

namespace krak::analyze {

/// Lint a `krakpart 1` entry from `in` with the store's own parser,
/// core::parse_partition_entry, reporting each violation as an error:
/// structure (rules::kPartitionStoreFormat), CSR offsets
/// (rules::kPartitionStoreOffsets), part labels and exactly-once cell
/// coverage (rules::kPartitionStoreBounds), and the assignment checksum
/// (rules::kPartitionStoreChecksum). An entry lints clean exactly when
/// PartitionStore::load serves it under the key its header declares;
/// the loader alone also checks that the header matches the key it was
/// asked for. Returns the parsed entry.
core::PartitionEntry lint_partition_store(std::istream& in,
                                          DiagnosticReport& report);

/// Open `path` and lint it; a file that cannot be opened is a
/// rules::kPartitionStoreFormat error naming the path and the OS cause.
[[nodiscard]] DiagnosticReport lint_partition_store_file(
    const std::string& path);

/// A deliberately corrupted entry exercising every partition-store rule
/// at least once (the analyze fixture idiom).
[[nodiscard]] std::string corrupted_partition_store_text();

}  // namespace krak::analyze
