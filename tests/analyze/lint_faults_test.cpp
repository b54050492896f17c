#include "analyze/lint_faults.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "analyze/rules.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "util/error.hpp"

namespace krak::analyze {
namespace {

TEST(LintFaults, EmptyPlanIsInformationalOnly) {
  const DiagnosticReport report = lint_faults(fault::FaultPlan{});
  EXPECT_FALSE(report.has_errors()) << report.to_text();
}

TEST(LintFaults, ValidPlanPassesWithRunContext) {
  fault::FaultPlan plan;
  plan.slowdowns.push_back({2, 1.5});
  fault::OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.01;
  plan.delays.push_back(delay);
  const DiagnosticReport report =
      lint_faults(plan, /*ranks=*/8, /*phases_per_iteration=*/15);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
}

TEST(LintFaults, RangeViolationsAreReported) {
  fault::FaultPlan plan;
  plan.slowdowns.push_back({0, 0.5});               // factor < 1
  fault::MessageFaultModel model;
  model.drop_probability = 1.5;                     // outside [0, 1)
  plan.message_faults.push_back(model);
  plan.degrades.push_back({0, 2.0});                // bandwidth > 1
  const DiagnosticReport report = lint_faults(plan);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange)) << report.to_text();
  EXPECT_GE(report.error_count(), 3u);
}

TEST(LintFaults, TargetBoundsCheckedOnlyWithRunContext) {
  fault::FaultPlan plan;
  fault::OneOffDelay delay;
  delay.rank = 12;
  delay.phase = 99;
  plan.delays.push_back(delay);
  // Without a run context the rank/phase bound checks are skipped...
  EXPECT_FALSE(
      lint_faults(plan).has_rule(rules::kFaultSpecTarget));
  // ...with one, a 12th rank or a 99th phase does not exist.
  const DiagnosticReport report = lint_faults(plan, 8, 15);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecTarget)) << report.to_text();
}

TEST(LintFaults, WildcardRankRejectedForDelaysAndCrashes) {
  fault::FaultPlan plan;
  fault::RankCrash crash;
  crash.rank = fault::kAllRanks;
  plan.crashes.push_back(crash);
  const DiagnosticReport report = lint_faults(plan);
  EXPECT_TRUE(report.has_errors());
  bool explained = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find("rank=*") != std::string::npos) {
      explained = true;
    }
  }
  EXPECT_TRUE(explained) << report.to_text();
}

TEST(LintFaults, CorruptedFixtureTriggersRangeAndTargetRules) {
  std::istringstream in(corrupted_fault_spec_text());
  const fault::FaultPlan plan = fault::parse_fault_plan(in);
  const DiagnosticReport report =
      lint_faults(plan, /*ranks=*/8, /*phases_per_iteration=*/15);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecTarget)) << report.to_text();
  bool non_finite = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find("must be finite") != std::string::npos) {
      non_finite = true;
    }
  }
  EXPECT_TRUE(non_finite) << report.to_text();
}

TEST(LintFaults, LintErrorsExactlyWhenTheEngineThrows) {
  // Plans the linter and InjectionEngine once judged differently: a nan
  // field linted clean and made the engine throw, a negative interval or
  // watchdog bound linted as an error and ran, and an infinite slowdown
  // passed both. Both sides must reject every one.
  const char* const directives[] = {
      "slowdown rank=0 factor=nan",
      "noise rank=0 period=nan duration=0",
      "messages rank=0 drop=nan",
      "degrade rank=0 bandwidth=nan",
      "delay rank=0 phase=1 iter=0 seconds=nan",
      "crash rank=0 phase=1 iter=0 restart=nan",
      "crash rank=0 phase=1 iter=0 restart=0 interval=-1",
      "watchdog max_seconds=-1",
      "slowdown rank=0 factor=inf",
  };
  for (const char* directive : directives) {
    std::istringstream in(std::string("krakfaults 1\n") + directive +
                          "\nend\n");
    const fault::FaultPlan plan = fault::parse_fault_plan(in);
    const DiagnosticReport report = lint_faults(plan, 8, 15);
    bool engine_threw = false;
    try {
      const fault::InjectionEngine engine(plan, 8, 15);
    } catch (const util::KrakError&) {
      engine_threw = true;
    }
    EXPECT_EQ(report.has_errors(), engine_threw)
        << directive << "\n" << report.to_text();
    EXPECT_TRUE(engine_threw) << directive;
    EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange))
        << directive << "\n" << report.to_text();
  }
}

TEST(LintFaults, UnreadableFileIsFormatError) {
  const std::string path = "/nonexistent/plan.krakfaults";
  const DiagnosticReport report = lint_fault_file(path);
  ASSERT_TRUE(report.has_rule(rules::kFaultSpecFormat)) << report.to_text();
  bool named = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find(path) != std::string::npos ||
        diagnostic.component.find(path) != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << report.to_text();
}

TEST(LintFaults, MalformedSpecFileIsFormatError) {
  const std::string path = ::testing::TempDir() + "/malformed.krakfaults";
  {
    std::ofstream out(path);
    out << "krakfaults 1\nteleport rank=0\nend\n";
  }
  const DiagnosticReport report = lint_fault_file(path);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecFormat)) << report.to_text();
}

}  // namespace
}  // namespace krak::analyze
