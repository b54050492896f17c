#include "analyze/lint_faults.hpp"

#include <utility>

#include "analyze/rules.hpp"
#include "util/error.hpp"

namespace krak::analyze {

DiagnosticReport lint_faults(const fault::FaultPlan& plan, std::int32_t ranks,
                             std::int32_t phases_per_iteration) {
  DiagnosticReport report;
  for (fault::PlanViolation& violation :
       fault::check_fault_plan(plan, ranks, phases_per_iteration)) {
    report.error(violation.rule, std::move(violation.component),
                 std::move(violation.message));
  }
  if (plan.empty()) {
    report.info(rules::kFaultSpecRange, "faults",
                "plan is empty: no faults will be injected");
  }
  return report;
}

DiagnosticReport lint_fault_file(const std::string& path, std::int32_t ranks,
                                 std::int32_t phases_per_iteration) {
  fault::FaultPlan plan;
  try {
    plan = fault::load_fault_plan(path);
  } catch (const util::KrakError& error) {
    DiagnosticReport report;
    report.error(rules::kFaultSpecFormat, "faults", error.what());
    return report;
  }
  return lint_faults(plan, ranks, phases_per_iteration);
}

std::string corrupted_fault_spec_text() {
  // Parses cleanly, but every directive violates a range or target rule.
  return "krakfaults 1\n"
         "seed 7\n"
         "# a slowdown below 1 would speed the rank up  -> fault-spec-range\n"
         "slowdown rank=0 factor=0.5\n"
         "# certain drop is not a probability in [0,1)  -> fault-spec-range\n"
         "messages rank=* drop=1.5\n"
         "# bandwidth factors cannot exceed 1           -> fault-spec-range\n"
         "degrade rank=0 bandwidth=2.0\n"
         "# every number must be finite                 -> fault-spec-range\n"
         "noise rank=* period=1e-3 duration=inf\n"
         "# the Krak iteration has 15 phases            -> fault-spec-target\n"
         "delay rank=0 phase=99 iter=0 seconds=0.01\n"
         "# crashes need one concrete rank              -> fault-spec-target\n"
         "crash rank=* phase=1 iter=0 restart=1.0\n"
         "end\n";
}

}  // namespace krak::analyze
