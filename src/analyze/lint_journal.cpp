#include "analyze/lint_journal.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

#include "analyze/rules.hpp"
#include "util/error.hpp"

namespace krak::analyze {

namespace {

std::string line_component(std::size_t line) {
  return "journal/line " + std::to_string(line);
}

/// Per-fingerprint writer state the linter replays
/// (core/campaign.cpp run_one): each attempt opens with `running` and
/// closes with `done`/`failed`; `quarantined` follows a `failed` (or a
/// resumed quarantine transition) without its own `running`; `done` and
/// `quarantined` are terminal.
struct ScenarioState {
  std::uint32_t max_attempt = 0;
  std::uint32_t open_attempt = 0;  ///< valid when `open`
  bool open = false;               ///< a `running` record awaits its outcome
  bool done = false;
  bool quarantined = false;
};

}  // namespace

core::CampaignJournal::Recovery lint_journal(std::istream& in,
                                             DiagnosticReport& report) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const core::ParsedJournal journal = core::parse_journal(text);
  report_violations(journal.violations, "journal", report);
  if (journal.torn_bytes > 0) {
    const auto line =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    report.warning(rules::kJournalTornTail, line_component(line + 1),
                   "trailing partial record without a newline (" +
                       std::to_string(journal.torn_bytes) +
                       " byte(s)): a torn append that recovery truncates");
  }

  core::CampaignJournal::Recovery recovery;
  if (!journal.has_header) return recovery;
  recovery.records = journal.replayable;
  recovery.torn_tail = journal.intact_bytes < text.size();
  recovery.dropped_bytes = text.size() - journal.intact_bytes;

  // Writer state machine (core/campaign.cpp run_one), over every valid
  // record; the recovery summary covers the replayable prefix.
  std::map<std::uint64_t, ScenarioState> scenarios;
  const auto summarize = [&] {
    recovery.scenarios = scenarios.size();
    for (const auto& [fingerprint, state] : scenarios) {
      (void)fingerprint;
      if (state.done) ++recovery.completed;
      if (state.quarantined) ++recovery.quarantined;
    }
  };
  using Kind = core::JournalRecord::Kind;
  for (std::size_t i = 0; i < journal.records.size(); ++i) {
    if (i == journal.replayable) summarize();
    const core::JournalRecord& record = journal.records[i];
    const std::string component = line_component(record.line);
    ScenarioState& state = scenarios[record.fingerprint];
    if (state.done || state.quarantined) {
      report.error(rules::kJournalStateMachine, component,
                   "record for scenario " + core::hex16(record.fingerprint) +
                       " after its terminal '" +
                       (state.done ? "done" : "quarantined") + "' state");
    }
    switch (record.kind) {
      case Kind::kRunning:
        if (record.attempt <= state.max_attempt) {
          report.error(rules::kJournalStateMachine, component,
                       "attempt numbers must strictly increase: attempt " +
                           std::to_string(record.attempt) + " after attempt " +
                           std::to_string(state.max_attempt));
        }
        state.open = true;
        state.open_attempt = record.attempt;
        break;
      case Kind::kDone:
      case Kind::kFailed:
        if (!state.open || state.open_attempt != record.attempt) {
          report.error(
              rules::kJournalStateMachine, component,
              std::string(record.kind == Kind::kDone ? "'done'" : "'failed'") +
                  " for attempt " + std::to_string(record.attempt) +
                  (state.open ? " does not close the open attempt " +
                                    std::to_string(state.open_attempt)
                              : " has no open 'running' record"));
        }
        state.open = false;
        if (record.kind == Kind::kDone) state.done = true;
        break;
      case Kind::kQuarantined:
        // Follows a `failed` record (or a resumed quarantine
        // transition) — no `running` of its own.
        state.open = false;
        state.quarantined = true;
        break;
    }
    state.max_attempt = std::max(state.max_attempt, record.attempt);
  }
  if (journal.replayable == journal.records.size()) summarize();
  return recovery;
}

DiagnosticReport lint_journal_file(const std::string& path) {
  DiagnosticReport report;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    report.error(rules::kJournalFormat, "journal",
                 "cannot open " + path + ": " + util::errno_message());
    return report;
  }
  (void)lint_journal(in, report);
  return report;
}

std::string corrupted_journal_text() {
  // One violation per rule; the inline notes name the rule each line
  // trips. Checksums are computed here so only the zeroed one fails.
  const auto sealed = [](std::string body) {
    body += ' ';
    body += core::hex16(core::journal_checksum(
        std::string_view(body).substr(0, body.size() - 1)));
    body += '\n';
    return body;
  };
  const std::string measured =
      core::hex16(std::bit_cast<std::uint64_t>(119.4));
  const std::string predicted =
      core::hex16(std::bit_cast<std::uint64_t>(121.9));

  std::string text = "krakjournal 1\n";
  text += sealed("running 00000000000000aa 1");
  text += sealed("done 00000000000000aa 1 table5/medium/64 64 " + measured +
                 " " + predicted);
  text += "# the scenario above already completed   -> journal-state-machine\n";
  text += sealed("running 00000000000000aa 2");
  text += "# zeroed seal cannot match the body      -> journal-checksum\n";
  text += "failed 00000000000000ab 1 transient boom 0000000000000000\n";
  text += "# not a record kind the writer emits     -> journal-format\n";
  text += sealed("paused 00000000000000ac 1");
  text += "# outcome with no open running attempt   -> journal-state-machine\n";
  text += sealed("failed 00000000000000ad 1 deterministic nan%20cells");
  text += "# no trailing newline: a torn append     -> journal-torn-tail\n";
  text += "running 00000000000000ae";
  return text;
}

}  // namespace krak::analyze
