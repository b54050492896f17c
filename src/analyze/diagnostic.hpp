#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/text_format.hpp"

namespace krak::analyze {

/// Severity of a linter finding, ordered from most to least severe.
enum class Severity {
  /// The model inputs are inconsistent; predictions from them are
  /// meaningless and a run should not proceed.
  kError = 0,
  /// The inputs are usable but suspicious (e.g. a degenerate subdomain
  /// or a non-power-of-two collective tree the paper's model only
  /// approximates).
  kWarning = 1,
  /// Informational context attached to the report.
  kInfo = 2,
};

[[nodiscard]] std::string_view severity_name(Severity severity);

/// One linter finding.
///
/// `rule` is the stable machine-readable rule id (see rules.hpp),
/// `component` names the model input the finding is about
/// ("cost-table/phase 3/Foam", "partition/pe 12 -> pe 13"), and
/// `message` explains the violation with the observed values.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string rule;
  std::string component;
  std::string message;
};

/// A severity-ranked collection of linter findings.
///
/// Findings accumulate in lint order; `sorted()` ranks them most-severe
/// first (stable within a severity, so related findings stay adjacent).
class DiagnosticReport {
 public:
  void add(Severity severity, std::string rule, std::string component,
           std::string message);
  void error(std::string rule, std::string component, std::string message);
  void warning(std::string rule, std::string component, std::string message);
  void info(std::string rule, std::string component, std::string message);

  /// Append every finding of `other`.
  void merge(const DiagnosticReport& other);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  [[nodiscard]] std::size_t size() const { return diagnostics_.size(); }
  [[nodiscard]] bool empty() const { return diagnostics_.empty(); }

  [[nodiscard]] std::size_t count(Severity severity) const;
  [[nodiscard]] std::size_t error_count() const {
    return count(Severity::kError);
  }
  [[nodiscard]] std::size_t warning_count() const {
    return count(Severity::kWarning);
  }
  [[nodiscard]] bool has_errors() const { return error_count() > 0; }

  /// Number of distinct rule ids appearing at `severity` or worse.
  [[nodiscard]] std::size_t distinct_rule_count(
      Severity at_least = Severity::kInfo) const;

  /// True if any finding carries the rule id.
  [[nodiscard]] bool has_rule(std::string_view rule) const;

  /// Findings ranked by severity (errors first), stable within a rank.
  [[nodiscard]] std::vector<Diagnostic> sorted() const;

  /// Human-readable report: one line per finding, severity-ranked, with
  /// a trailing summary line.
  [[nodiscard]] std::string to_text() const;

  /// RFC-4180 CSV with header severity,rule,component,message,
  /// severity-ranked like to_text().
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

std::ostream& operator<<(std::ostream& os, const DiagnosticReport& report);

/// Report each violation a core format parser found as an error on
/// "<file>/line N", or on "<file>" when it concerns the whole file.
void report_violations(const std::vector<core::FormatViolation>& violations,
                       std::string_view file, DiagnosticReport& report);

}  // namespace krak::analyze
