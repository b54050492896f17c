#pragma once

#include <cstdint>
#include <string>

#include "analyze/diagnostic.hpp"
#include "fault/plan.hpp"

namespace krak::analyze {

/// Lint a fault-injection plan (fault/plan.hpp): every violation of
/// fault::check_fault_plan, the check fault::InjectionEngine throws on,
/// as an error, so a driver can show every problem at once. `ranks`
/// bounds the rank targets and `phases_per_iteration` the phase
/// targets; pass 0 for either to skip those bound checks (e.g. when
/// linting a spec file with no run context).
[[nodiscard]] DiagnosticReport lint_faults(const fault::FaultPlan& plan,
                                           std::int32_t ranks = 0,
                                           std::int32_t phases_per_iteration = 0);

/// Load `path` as a `krakfaults 1` spec and lint it. A file that cannot
/// be opened or parsed is a rules::kFaultSpecFormat error naming the
/// path and cause.
[[nodiscard]] DiagnosticReport lint_fault_file(const std::string& path,
                                               std::int32_t ranks = 0,
                                               std::int32_t phases_per_iteration = 0);

/// A deliberately corrupted (but parseable) fault spec exercising the
/// range and target rules.
[[nodiscard]] std::string corrupted_fault_spec_text();

}  // namespace krak::analyze
