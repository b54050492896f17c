#include "analyze/diagnostic.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

#include "util/csv.hpp"

namespace krak::analyze {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "unknown";
}

void DiagnosticReport::add(Severity severity, std::string rule,
                           std::string component, std::string message) {
  diagnostics_.push_back(Diagnostic{severity, std::move(rule),
                                    std::move(component), std::move(message)});
}

void DiagnosticReport::error(std::string rule, std::string component,
                             std::string message) {
  add(Severity::kError, std::move(rule), std::move(component),
      std::move(message));
}

void DiagnosticReport::warning(std::string rule, std::string component,
                               std::string message) {
  add(Severity::kWarning, std::move(rule), std::move(component),
      std::move(message));
}

void DiagnosticReport::info(std::string rule, std::string component,
                            std::string message) {
  add(Severity::kInfo, std::move(rule), std::move(component),
      std::move(message));
}

void DiagnosticReport::merge(const DiagnosticReport& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

std::size_t DiagnosticReport::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

std::size_t DiagnosticReport::distinct_rule_count(Severity at_least) const {
  std::set<std::string_view> rules;
  for (const Diagnostic& d : diagnostics_) {
    if (static_cast<int>(d.severity) <= static_cast<int>(at_least)) {
      rules.insert(d.rule);
    }
  }
  return rules.size();
}

bool DiagnosticReport::has_rule(std::string_view rule) const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [rule](const Diagnostic& d) { return d.rule == rule; });
}

std::vector<Diagnostic> DiagnosticReport::sorted() const {
  std::vector<Diagnostic> ranked = diagnostics_;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) <
                            static_cast<int>(b.severity);
                   });
  return ranked;
}

std::string DiagnosticReport::to_text() const {
  std::ostringstream os;
  for (const Diagnostic& d : sorted()) {
    os << severity_name(d.severity) << " [" << d.rule << "] " << d.component
       << ": " << d.message << "\n";
  }
  os << "model lint: " << error_count() << " error(s), " << warning_count()
     << " warning(s), " << count(Severity::kInfo) << " note(s)\n";
  return os.str();
}

std::string DiagnosticReport::to_csv() const {
  std::ostringstream os;
  os << "severity,rule,component,message\n";
  for (const Diagnostic& d : sorted()) {
    os << util::csv_escape(std::string(severity_name(d.severity))) << ","
       << util::csv_escape(d.rule) << "," << util::csv_escape(d.component)
       << "," << util::csv_escape(d.message) << "\n";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const DiagnosticReport& report) {
  return os << report.to_text();
}

void report_violations(const std::vector<core::FormatViolation>& violations,
                       std::string_view file, DiagnosticReport& report) {
  for (const core::FormatViolation& violation : violations) {
    std::string component(file);
    if (violation.line > 0) {
      component += "/line " + std::to_string(violation.line);
    }
    report.error(violation.rule, std::move(component), violation.message);
  }
}

}  // namespace krak::analyze
