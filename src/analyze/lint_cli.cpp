#include "analyze/lint_cli.hpp"

#include <ostream>

#include "util/error.hpp"

namespace krak::analyze {

int lint_exit_code(LintGateOutcome outcome) {
  return outcome == LintGateOutcome::kExitError ? 1 : 0;
}

LintGateOutcome run_lint_gate(const util::ArgParser& args,
                              const LintInput& input, std::ostream& out) {
  const bool lint_only = args.has("lint-only");
  if (!lint_only && !args.has("lint")) return LintGateOutcome::kProceed;

  const std::string format = args.get_string("lint-format", "text");
  if (format != "text" && format != "csv") {
    throw util::InvalidArgument("unknown --lint-format '" + format + "'");
  }

  const DiagnosticReport report = lint_model(input);
  out << (format == "csv" ? report.to_csv() : report.to_text());

  if (report.has_errors()) return LintGateOutcome::kExitError;
  return lint_only ? LintGateOutcome::kExitClean : LintGateOutcome::kProceed;
}

std::vector<std::string> lint_gate_options(std::vector<std::string> options) {
  options.insert(options.end(),
                 {"--lint", "--lint-only", "--lint-format text|csv"});
  return options;
}

}  // namespace krak::analyze
