#include "core/campaign_journal.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>
#include <optional>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace krak::core {

namespace {

constexpr std::string_view kMagic = "krakjournal 1";

void bump_journal_counter(const char* name, std::int64_t count = 1) {
  if (count == 0) return;
  obs::global_registry().counter(name).add(count);
}

}  // namespace

std::uint64_t journal_checksum(std::string_view text) {
  return Fnv1a64().add(text).value();
}

std::string journal_escape(std::string_view text) {
  if (text.empty()) return "%";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '%' || c == ' ' || byte < 0x20 || byte == 0x7f) {
      out += '%';
      out += kDigits[byte >> 4];
      out += kDigits[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::optional<std::string> journal_unescape(std::string_view token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) return std::nullopt;
    std::uint32_t byte = 0;
    if (!parse_value(token.substr(i + 1, 2), byte, 16)) return std::nullopt;
    out += static_cast<char>(byte);
    i += 2;
  }
  return out;
}

namespace {

using Kind = JournalRecord::Kind;

/// The line body (checksum excluded) exactly as serialized.
std::string record_body(const JournalRecord& record) {
  std::string out;
  switch (record.kind) {
    case Kind::kRunning:
      out = "running";
      break;
    case Kind::kDone:
      out = "done";
      break;
    case Kind::kFailed:
      out = "failed";
      break;
    case Kind::kQuarantined:
      out = "quarantined";
      break;
  }
  out += ' ';
  out += hex16(record.fingerprint);
  out += ' ';
  out += std::to_string(record.attempt);
  switch (record.kind) {
    case Kind::kRunning:
      break;
    case Kind::kDone:
      out += ' ';
      out += journal_escape(record.point.problem);
      out += ' ';
      out += std::to_string(record.point.pes);
      out += ' ';
      out += hex16(std::bit_cast<std::uint64_t>(record.point.measured));
      out += ' ';
      out += hex16(std::bit_cast<std::uint64_t>(record.point.predicted));
      break;
    case Kind::kFailed:
      out += record.transient ? " transient " : " deterministic ";
      out += journal_escape(record.error);
      break;
    case Kind::kQuarantined:
      out += ' ';
      out += journal_escape(record.error);
      break;
  }
  return out;
}

/// Parse one record line; on any violation, appends it to `violations`
/// and returns nullopt.
std::optional<JournalRecord> parse_record(
    std::string_view line, std::size_t number,
    std::vector<FormatViolation>& violations) {
  const auto violate = [&](const char* rule, std::string message) {
    violations.push_back({rule, number, std::move(message)});
    return std::nullopt;
  };
  // journal_escape leaves no blank inside a token, so splitting at
  // blanks recovers exactly the fields the writer joined with spaces.
  std::vector<std::string_view> tokens;
  Tokens reader(line);
  for (std::string_view token; reader.next(token);) tokens.push_back(token);
  if (tokens.size() < 2) {
    return violate(rules::kJournalFormat,
                   "record needs at least a kind and a checksum, got " +
                       quoted(line));
  }
  std::uint64_t declared = 0;
  if (!parse_hex16(tokens.back(), declared)) {
    return violate(rules::kJournalFormat,
                   "last token must be the 16-hex-digit checksum, got " +
                       quoted(tokens.back()));
  }
  const std::uint64_t actual =
      journal_checksum(line.substr(0, line.rfind(' ')));
  if (actual != declared) {
    // The fields below the seal cannot be trusted.
    return violate(rules::kJournalChecksum,
                   "declared checksum " + std::string(tokens.back()) +
                       " does not match record checksum " + hex16(actual) +
                       "; recovery truncates the journal here");
  }

  JournalRecord record;
  record.line = number;
  std::size_t expected = 0;
  if (tokens[0] == "running") {
    record.kind = Kind::kRunning;
    expected = 4;
  } else if (tokens[0] == "done") {
    record.kind = Kind::kDone;
    expected = 8;
  } else if (tokens[0] == "failed") {
    record.kind = Kind::kFailed;
    expected = 6;
  } else if (tokens[0] == "quarantined") {
    record.kind = Kind::kQuarantined;
    expected = 5;
  } else {
    return violate(rules::kJournalFormat,
                   "unknown record kind " + quoted(tokens[0]));
  }
  if (tokens.size() != expected) {
    return violate(rules::kJournalFormat,
                   "'" + std::string(tokens[0]) + "' record needs " +
                       std::to_string(expected) + " token(s), got " +
                       std::to_string(tokens.size()));
  }
  if (!parse_hex16(tokens[1], record.fingerprint)) {
    return violate(rules::kJournalFormat,
                   "fingerprint must be 16 hex digits, got " +
                       quoted(tokens[1]));
  }
  if (!parse_value(tokens[2], record.attempt) || record.attempt == 0) {
    return violate(rules::kJournalFormat,
                   "attempt must be a positive integer, got " +
                       quoted(tokens[2]));
  }
  // Field checks below report every bad field of the record.
  const std::size_t before = violations.size();
  const auto unescape = [&](std::string_view token, const char* what,
                            std::string& out) {
    std::optional<std::string> text = journal_unescape(token);
    if (text.has_value()) {
      out = std::move(*text);
    } else {
      violations.push_back({rules::kJournalFormat, number,
                            "malformed percent-escaping in " +
                                std::string(what) + " token " +
                                quoted(token)});
    }
  };
  switch (record.kind) {
    case Kind::kRunning:
      break;
    case Kind::kDone: {
      unescape(tokens[3], "problem", record.point.problem);
      if (!parse_value(tokens[4], record.point.pes) ||
          record.point.pes <= 0) {
        violations.push_back({rules::kJournalFormat, number,
                              "pes must be a positive integer, got " +
                                  quoted(tokens[4])});
      }
      const auto bit_pattern = [&](std::string_view token, double& value) {
        std::uint64_t bits = 0;
        if (parse_hex16(token, bits)) {
          value = std::bit_cast<double>(bits);
        } else {
          violations.push_back({rules::kJournalFormat, number,
                                "measured/predicted must be 16-hex IEEE-754 "
                                "bit patterns, got " +
                                    quoted(token)});
        }
      };
      bit_pattern(tokens[5], record.point.measured);
      bit_pattern(tokens[6], record.point.predicted);
      break;
    }
    case Kind::kFailed:
      if (tokens[3] == "transient" || tokens[3] == "deterministic") {
        record.transient = tokens[3] == "transient";
      } else {
        violations.push_back({rules::kJournalFormat, number,
                              "failure class must be 'transient' or "
                              "'deterministic', got " +
                                  quoted(tokens[3])});
      }
      unescape(tokens[4], "error", record.error);
      break;
    case Kind::kQuarantined:
      unescape(tokens[3], "error", record.error);
      break;
  }
  if (violations.size() > before) return std::nullopt;
  return record;
}

}  // namespace

ParsedJournal parse_journal(std::string_view text) {
  ParsedJournal journal;
  // Only newline-terminated lines are parsed: a partial last line is a
  // torn append, dropped by recovery whatever it holds.
  const std::size_t last_newline = text.rfind('\n');
  const std::size_t complete =
      last_newline == std::string_view::npos ? 0 : last_newline + 1;
  journal.torn_bytes = text.size() - complete;
  journal.intact_bytes = complete;

  LineReader lines(text.substr(0, complete));
  if (!lines.next()) {
    journal.violations.push_back(
        {rules::kJournalFormat, 0,
         "empty input, missing '" + std::string(kMagic) + "' header"});
    return journal;
  }
  if (lines.line() != kMagic) {
    journal.violations.push_back(
        {rules::kJournalFormat, lines.number(),
         "expected header '" + std::string(kMagic) + "', got " +
             quoted(lines.line())});
    return journal;
  }
  journal.has_header = true;
  while (lines.next()) {
    const bool clean = journal.violations.empty();
    std::optional<JournalRecord> record =
        parse_record(lines.line(), lines.number(), journal.violations);
    if (clean && !journal.violations.empty()) {
      journal.replayable = journal.records.size();
      journal.intact_bytes = lines.begin();
    }
    if (record.has_value()) journal.records.push_back(std::move(*record));
  }
  if (journal.violations.empty()) journal.replayable = journal.records.size();
  return journal;
}

CampaignJournal::CampaignJournal(std::filesystem::path path)
    : path_(std::move(path)) {
  const std::filesystem::path parent = path_.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);

  if (!std::filesystem::exists(path_)) {
    // One atomic write, so no crash can leave a journal without its
    // header — a file recovery would refuse.
    std::string header(kMagic);
    header += '\n';
    util::atomic_write_file(path_, header);
  } else {
    std::string text;
    {
      std::ifstream in(path_, std::ios::binary);
      if (!in) {
        throw util::KrakError("cannot read journal " + path_.string() + ": " +
                              util::errno_message());
      }
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    const ParsedJournal parsed = parse_journal(text);
    // Truncating an arbitrary file the user mistyped into a journal
    // would destroy it.
    if (!parsed.has_header) {
      throw util::KrakError("not a krakjournal 1 file: " + path_.string());
    }
    // Replay records until the first violation, then truncate there: a
    // torn append (crash mid-write) costs exactly the torn record.
    for (std::size_t i = 0; i < parsed.replayable; ++i) {
      apply(parsed.records[i]);
    }
    recovery_.records = parsed.replayable;
    if (parsed.intact_bytes < text.size()) {
      recovery_.torn_tail = true;
      recovery_.dropped_bytes = text.size() - parsed.intact_bytes;
      std::error_code ec;
      std::filesystem::resize_file(path_, parsed.intact_bytes, ec);
      if (ec) {
        throw util::KrakError("cannot truncate torn journal tail of " +
                              path_.string() + ": " + ec.message());
      }
    }
    recovery_.scenarios = histories_.size();
    for (const auto& [fingerprint, history] : histories_) {
      (void)fingerprint;
      if (history.done) ++recovery_.completed;
      if (history.quarantined) ++recovery_.quarantined;
    }
  }

  bump_journal_counter("journal.recovered_records",
                       static_cast<std::int64_t>(recovery_.records));
  if (recovery_.torn_tail) bump_journal_counter("journal.recovered_torn_tail");

#if !defined(_WIN32)
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    throw util::KrakError("cannot open journal " + path_.string() +
                          " for appending: " + util::errno_message());
  }
#endif
}

CampaignJournal::~CampaignJournal() {
#if !defined(_WIN32)
  if (fd_ >= 0) ::close(fd_);
#endif
}

void CampaignJournal::write_raw(std::string_view data) {
#if defined(_WIN32)
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) {
    throw util::KrakError("cannot append to journal " + path_.string());
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    throw util::KrakError("short journal append to " + path_.string());
  }
#else
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::KrakError("short journal append to " + path_.string() +
                            ": " + util::errno_message());
    }
    written += static_cast<std::size_t>(n);
  }
  // The "write-ahead" half of the contract: the record must be durable
  // before the campaign acts on the state it describes, or a crash
  // could replay work the journal claims is done.
  if (::fsync(fd_) != 0) {
    throw util::KrakError("cannot sync journal " + path_.string() + ": " +
                          util::errno_message());
  }
#endif
}

void CampaignJournal::append(const JournalRecord& record) {
  std::string line = record_body(record);
  line += ' ';
  line += hex16(journal_checksum(line.substr(0, line.size() - 1)));
  line += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  write_raw(line);
  apply(record);
  bump_journal_counter("journal.appends");
}

void CampaignJournal::apply(const JournalRecord& record) {
  History& history = histories_[record.fingerprint];
  history.attempts = std::max(history.attempts, record.attempt);
  switch (record.kind) {
    case Kind::kRunning:
      history.interrupted = true;  // cleared by the attempt's outcome
      break;
    case Kind::kDone:
      history.interrupted = false;
      history.done = true;
      history.point = record.point;
      break;
    case Kind::kFailed:
      history.interrupted = false;
      if (record.transient) {
        ++history.transient_failures;
      } else {
        ++history.deterministic_failures;
      }
      history.last_error = record.error;
      history.last_transient = record.transient;
      break;
    case Kind::kQuarantined:
      history.interrupted = false;
      history.quarantined = true;
      if (!record.error.empty()) history.last_error = record.error;
      break;
  }
}

void CampaignJournal::record_running(std::uint64_t fingerprint,
                                     std::uint32_t attempt) {
  JournalRecord record;
  record.kind = Kind::kRunning;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  append(record);
}

void CampaignJournal::record_done(std::uint64_t fingerprint,
                                  std::uint32_t attempt,
                                  const ValidationPoint& point) {
  JournalRecord record;
  record.kind = Kind::kDone;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  record.point = point;
  append(record);
}

void CampaignJournal::record_failed(std::uint64_t fingerprint,
                                    std::uint32_t attempt, bool transient,
                                    std::string_view error) {
  JournalRecord record;
  record.kind = Kind::kFailed;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  record.transient = transient;
  record.error = std::string(error);
  append(record);
}

void CampaignJournal::record_quarantined(std::uint64_t fingerprint,
                                         std::uint32_t attempt,
                                         std::string_view error) {
  JournalRecord record;
  record.kind = Kind::kQuarantined;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  record.error = std::string(error);
  append(record);
}

CampaignJournal::History CampaignJournal::history(
    std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histories_.find(fingerprint);
  if (it == histories_.end()) return History{};
  return it->second;
}

}  // namespace krak::core
