#pragma once

#include <iosfwd>
#include <string>

#include "analyze/diagnostic.hpp"
#include "core/campaign_journal.hpp"

namespace krak::analyze {

/// Lint a `krakjournal 1` campaign journal from `in` with the journal's
/// own parser, core::parse_journal, reporting each violation as an
/// error: header and record structure (rules::kJournalFormat) and the
/// per-record checksum (rules::kJournalChecksum). Two rules judge the
/// sequence of valid records rather than bytes, so only the linter has
/// them: the writer's per-scenario state machine
/// (rules::kJournalStateMachine) and a torn trailing append
/// (rules::kJournalTornTail, a warning — recovery truncates it cleanly).
///
/// Where recovery stops at the first violation, the linter names every
/// one, so a human can see what `--resume` would drop. Returns the
/// Recovery that opening the journal would report (default-constructed
/// when the header is missing, which recovery refuses).
core::CampaignJournal::Recovery lint_journal(std::istream& in,
                                             DiagnosticReport& report);

/// Open `path` and lint it; a file that cannot be opened is a
/// rules::kJournalFormat error naming the path and the OS cause.
[[nodiscard]] DiagnosticReport lint_journal_file(const std::string& path);

/// A deliberately corrupted journal exercising every journal rule at
/// least once (the analyze fixture idiom).
[[nodiscard]] std::string corrupted_journal_text();

}  // namespace krak::analyze
