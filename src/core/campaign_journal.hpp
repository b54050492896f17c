#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/text_format.hpp"
#include "core/validation.hpp"

namespace krak::core {

namespace rules {

/// Rule ids of `krakjournal` violations, as `krak_analyze --journal`
/// reports them (docs/ANALYSIS.md).
///
/// Structure: the `krakjournal 1` header, known record kinds, token
/// counts, 16-hex-digit fingerprints, checksums and measured/predicted
/// bit patterns, positive attempts and pes, well-formed escaping.
inline constexpr const char* kJournalFormat = "journal-format";
/// A record's trailing checksum equals journal_checksum of the line
/// body before it.
inline constexpr const char* kJournalChecksum = "journal-checksum";

}  // namespace rules

/// One `krakjournal 1` record: a scenario state change.
struct JournalRecord {
  enum class Kind { kRunning, kDone, kFailed, kQuarantined };

  Kind kind = Kind::kRunning;
  std::uint64_t fingerprint = 0;
  std::uint32_t attempt = 0;
  bool transient = false;  ///< failed records: the failure class
  std::string error;       ///< failed / quarantined records
  ValidationPoint point;   ///< done records
  std::size_t line = 0;    ///< line parse_journal read it from
};

/// A journal as parse_journal read it.
struct ParsedJournal {
  bool has_header = false;  ///< the first content line is the magic
  /// Every record without a violation, in file order.
  std::vector<JournalRecord> records;
  /// Every rule the text breaks, in line order.
  std::vector<FormatViolation> violations;
  /// Records before the first violation: what recovery replays.
  std::size_t replayable = 0;
  /// Bytes before the first violating line or the torn tail: what
  /// recovery keeps.
  std::size_t intact_bytes = 0;
  /// Length of a partial last line without a newline: a torn append,
  /// never parsed and never a violation.
  std::size_t torn_bytes = 0;
};

/// The krakjournal parser. CampaignJournal recovery replays the records
/// before its first violation and refuses a text without the header;
/// `krak_analyze --journal` prints every violation and judges the
/// records' order (its linter-only journal-state-machine rule).
[[nodiscard]] ParsedJournal parse_journal(std::string_view text);

/// Versioned write-ahead journal of a validation campaign
/// (docs/RESILIENCE.md, "Resumable campaigns").
///
/// One checksummed record per scenario state change, appended (and
/// synced) before the campaign acts on it, in the `krakjournal 1` text
/// format — one record per line:
///
///     krakjournal 1
///     running <fingerprint> <attempt> <checksum>
///     done <fingerprint> <attempt> <problem> <pes> <measured>
///         <predicted> <checksum>
///     failed <fingerprint> <attempt> <transient|deterministic>
///         <error> <checksum>
///     quarantined <fingerprint> <attempt> <error> <checksum>
///
/// `<fingerprint>` is the 16-hex-digit scenario fingerprint
/// (core::scenario_fingerprint); `<measured>` / `<predicted>` are the
/// IEEE-754 bit patterns of the doubles in 16 hex digits, so a replayed
/// ValidationPoint is bit-identical to the one originally measured;
/// `<error>` and `<problem>` are percent-escaped single tokens;
/// `<checksum>` is FNV-1a over everything before it on the line. Blank
/// lines and `#` comment lines are skipped.
///
/// Loading parses the file with parse_journal, replays every record
/// before the first violation into per-scenario histories, and
/// truncates the file there (torn-tail recovery): a crash mid-append —
/// SIGKILL, power loss, full disk — costs at most the record being
/// written, never the journal. A new journal is created with its header
/// in one atomic write, and appends go through one O_APPEND write plus
/// fsync per record, so the write-ahead contract survives the same
/// crashes it protects against.
///
/// Thread-safe: campaign workers append concurrently from the pool.
/// Counters are mirrored into the observability registry as
/// `journal.appends`, `journal.recovered_records`, and
/// `journal.recovered_torn_tail` (docs/OBSERVABILITY.md).
class CampaignJournal {
 public:
  /// Everything the journal knows about one scenario fingerprint.
  struct History {
    std::uint32_t attempts = 0;  ///< highest attempt number recorded
    std::uint32_t deterministic_failures = 0;
    std::uint32_t transient_failures = 0;
    /// A `running` record with no outcome yet — an attempt that was
    /// in flight when a previous process died. Not counted as a
    /// failure: the resumed campaign simply tries again.
    bool interrupted = false;
    bool done = false;
    bool quarantined = false;
    ValidationPoint point;   ///< valid when `done`
    std::string last_error;  ///< last failed/quarantined error text
    bool last_transient = false;  ///< class of the last failed record

    /// failures that count against a retry budget
    [[nodiscard]] std::uint32_t failures() const {
      return deterministic_failures + transient_failures;
    }
  };

  /// What loading an existing journal found.
  struct Recovery {
    std::size_t records = 0;    ///< valid records replayed
    std::size_t scenarios = 0;  ///< distinct fingerprints seen
    std::size_t completed = 0;  ///< scenarios in `done` state
    std::size_t quarantined = 0;
    bool torn_tail = false;          ///< file ended in an invalid record
    std::size_t dropped_bytes = 0;  ///< truncated by torn-tail recovery
  };

  /// Open (creating if absent) and recover the journal at `path`.
  /// Throws util::KrakError when the file exists but does not lead with
  /// the `krakjournal 1` header — a wrong path must not be truncated
  /// into a journal — or when it cannot be read or opened for appending.
  explicit CampaignJournal(std::filesystem::path path);
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] const Recovery& recovery() const { return recovery_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Write-ahead marks, each appended and synced before returning.
  void record_running(std::uint64_t fingerprint, std::uint32_t attempt);
  void record_done(std::uint64_t fingerprint, std::uint32_t attempt,
                   const ValidationPoint& point);
  void record_failed(std::uint64_t fingerprint, std::uint32_t attempt,
                     bool transient, std::string_view error);
  void record_quarantined(std::uint64_t fingerprint, std::uint32_t attempt,
                          std::string_view error);

  /// The recovered-plus-appended history of `fingerprint`
  /// (default-constructed when the journal has never seen it).
  [[nodiscard]] History history(std::uint64_t fingerprint) const;

 private:
  void write_raw(std::string_view data);
  void append(const JournalRecord& record);
  void apply(const JournalRecord& record);

  std::filesystem::path path_;
  Recovery recovery_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, History> histories_;
  int fd_ = -1;  ///< POSIX append descriptor (-1 on the fallback path)
};

/// Percent-escape `text` into a single whitespace-free journal token
/// ("" encodes as "%").
[[nodiscard]] std::string journal_escape(std::string_view text);

/// Inverse of journal_escape; nullopt on malformed input.
[[nodiscard]] std::optional<std::string> journal_unescape(
    std::string_view token);

/// FNV-1a-64 over `text`, the per-record integrity checksum embedded in
/// `krakjournal` files and checked by `krak_analyze --journal`.
[[nodiscard]] std::uint64_t journal_checksum(std::string_view text);

}  // namespace krak::core
