#include "lint/repo.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "lint/rules.hpp"
#include "util/error.hpp"

namespace krak::lint {
namespace {

namespace fs = std::filesystem;

/// A scratch tree under the test temp dir, wiped per fixture.
class TreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "krak_lint_tree" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& relative, const std::string& content) const {
    const fs::path path = root_ / relative;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << path;
    out << content;
  }

  [[nodiscard]] std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

const std::string kClockSnippet =
    "void f() { auto t = std::chrono::steady_clock::now(); (void)t; }\n";

TEST_F(TreeTest, PolicyFileAppliesToItsSubtreeOnly) {
  write("src/.kraklint", "clock-exempt true\n");
  write("src/timer.cpp", kClockSnippet);
  write("tests/timer.cpp", kClockSnippet);
  const LintReport report = lint_tree(root());
  EXPECT_EQ(report.files_scanned, 2U);
  ASSERT_EQ(report.findings.size(), 1U);
  EXPECT_EQ(report.findings[0].rule, rules::kNoWallClock);
  EXPECT_EQ(report.findings[0].path, "tests/timer.cpp");
}

TEST_F(TreeTest, NestedPolicyOverlaysParent) {
  write("src/.kraklint", "deterministic true\n");
  write("src/inner/.kraklint", "disable no-unordered-iteration\n");
  const std::string snippet =
      "std::unordered_set<int> seen;\n"
      "auto first() { return seen.begin(); }\n";
  write("src/walk.cpp", snippet);
  write("src/inner/walk.cpp", snippet);
  const LintReport report = lint_tree(root());
  ASSERT_EQ(report.findings.size(), 1U);
  EXPECT_EQ(report.findings[0].path, "src/walk.cpp");
}

TEST_F(TreeTest, TodoBudgetFiresAtTreeLevel) {
  write(".kraklint", "todo-budget 1\n");
  write("src/a.cpp", "// TODO(alice): one\n// TODO(bob): two\nint x = 0;\n");
  const LintReport report = lint_tree(root());
  ASSERT_EQ(report.findings.size(), 1U);
  EXPECT_EQ(report.findings[0].rule, rules::kTodoBudget);
  EXPECT_EQ(report.findings[0].line, 0U);
  EXPECT_EQ(report.findings[0].path, report.root);
}

TEST_F(TreeTest, TodoBudgetWithinLimitIsClean) {
  write(".kraklint", "todo-budget 2\n");
  write("src/a.cpp", "// TODO(alice): one\n// TODO(bob): two\nint x = 0;\n");
  EXPECT_TRUE(lint_tree(root()).clean());
}

TEST_F(TreeTest, SkipsBuildAndDotDirectoriesAndForeignExtensions) {
  write("src/ok.cpp", "int x = 0;\n");
  write("src/build/bad.cpp", "void f() { std::abort(); }\n");
  write("src/.cache/bad.cpp", "void f() { std::abort(); }\n");
  write("src/notes.md", "not C++\n");
  const LintReport report = lint_tree(root());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_scanned, 1U);
}

TEST_F(TreeTest, ReportIsByteStable) {
  write("src/a.cpp", "void f() { std::abort(); }\n");
  write("src/b.cpp", "int g() { return rand(); }\n");
  const std::string first = lint_tree(root()).to_json().dump();
  const std::string second = lint_tree(root()).to_json().dump();
  EXPECT_EQ(first, second);
}

TEST_F(TreeTest, MalformedPolicyFileThrows) {
  write("src/.kraklint", "frobnicate yes\n");
  write("src/a.cpp", "int x = 0;\n");
  EXPECT_THROW(lint_tree(root()), util::KrakError);
}

TEST_F(TreeTest, MissingRootThrows) {
  EXPECT_THROW(lint_tree(root() + "/no-such-dir"), util::KrakError);
}

TEST_F(TreeTest, EmptyRootThrows) {
  // A root with sources only outside the scanned subtrees, or none at
  // all, would otherwise report "0 files, 0 findings" and pass.
  write("src/notes.md", "not C++\n");
  write("other/a.cpp", "int x = 0;\n");
  EXPECT_THROW(lint_tree(root()), util::KrakError);
}

}  // namespace
}  // namespace krak::lint
