#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/linter.hpp"
#include "util/cli.hpp"

namespace krak::analyze {

/// What a driver should do after consulting the lint gate.
enum class LintGateOutcome {
  /// No lint requested, or lint passed under --lint: run the workload.
  kProceed,
  /// --lint-only passed cleanly: exit 0 without running the workload.
  kExitClean,
  /// Lint found errors: exit non-zero without running the workload.
  kExitError,
};

/// Exit code a driver should return for an outcome (0 clean, 1 errors).
[[nodiscard]] int lint_exit_code(LintGateOutcome outcome);

/// Shared `--lint` / `--lint-only` handling for the example drivers and
/// simkrak entry points:
///
///   --lint         lint the inputs, print the report, and proceed only
///                  when no errors were found;
///   --lint-only    lint, print, and exit without running the workload;
///   --lint-format  `text` (default) or `csv`.
///
/// Without either flag this is a no-op returning kProceed, so wiring the
/// gate into a driver costs nothing on normal runs. `args` must declare
/// the gate's options (lint_gate_options).
[[nodiscard]] LintGateOutcome run_lint_gate(const util::ArgParser& args,
                                            const LintInput& input,
                                            std::ostream& out);

/// A driver's `options` followed by the gate's three, declared for
/// util::run_main.
[[nodiscard]] std::vector<std::string> lint_gate_options(
    std::vector<std::string> options = {});

}  // namespace krak::analyze
