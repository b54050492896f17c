#include "lint/repo.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "lint/checks.hpp"
#include "lint/rules.hpp"
#include "lint/scanner.hpp"
#include "util/error.hpp"

namespace krak::lint {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPolicyFileName = ".kraklint";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw util::KrakError("cannot read '" + path.string() + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool has_extension(const fs::path& path,
                   const std::vector<std::string>& extensions) {
  const std::string ext = path.extension().string();
  return std::find(extensions.begin(), extensions.end(), ext) !=
         extensions.end();
}

/// Overlay the directory's policy file onto `base` when one exists.
Policy directory_policy(const Policy& base, const fs::path& dir) {
  const fs::path policy_path = dir / kPolicyFileName;
  if (!fs::exists(policy_path)) return base;
  return apply_policy_file(base, policy_path.string());
}

struct TreeWalker {
  const TreeLintOptions& options;
  const fs::path root;
  LintReport report;
  std::int64_t todo_count = 0;

  void walk(const fs::path& dir, const Policy& inherited) {
    const Policy policy = directory_policy(inherited, dir);
    // Sorted traversal keeps the report byte-stable across platforms
    // (directory_iterator order is unspecified).
    std::vector<fs::path> entries;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      entries.push_back(entry.path());
    }
    std::sort(entries.begin(), entries.end());
    for (const fs::path& path : entries) {
      const std::string name = path.filename().string();
      if (!name.empty() && name.front() == '.') continue;
      if (fs::is_directory(path)) {
        if (name == "build") continue;
        walk(path, policy);
      } else if (has_extension(path, options.extensions)) {
        lint_one(path, policy);
      }
    }
  }

  void lint_one(const fs::path& path, const Policy& policy) {
    const std::string display =
        fs::relative(path, root).generic_string();
    const ScannedFile scanned = scan_source(display, read_file(path));
    FileLintResult result = lint_source_file(scanned, policy);
    todo_count += result.todo_count;
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(result.findings.begin()),
                           std::make_move_iterator(result.findings.end()));
    ++report.files_scanned;
  }
};

}  // namespace

LintReport lint_tree(const std::string& root, const TreeLintOptions& options) {
  const fs::path root_path(root);
  if (!fs::is_directory(root_path)) {
    throw util::KrakError("lint root '" + root + "' is not a directory");
  }
  const Policy root_policy = directory_policy(Policy{}, root_path);

  TreeWalker walker{options, root_path, {}, 0};
  walker.report.root = root_path.generic_string();
  for (const std::string& subdir : options.subdirs) {
    const fs::path tree = root_path / subdir;
    if (!fs::is_directory(tree)) continue;
    walker.walk(tree, root_policy);
  }
  // A wrong root must not pass the gate by linting nothing.
  if (walker.report.files_scanned == 0) {
    throw util::KrakError("lint root '" + root + "' holds no source file");
  }

  if (root_policy.rule_enabled(rules::kTodoBudget) &&
      root_policy.todo_budget >= 0 &&
      walker.todo_count > root_policy.todo_budget) {
    walker.report.findings.push_back(Finding{
        std::string(rules::kTodoBudget), walker.report.root, 0,
        "tree carries " + std::to_string(walker.todo_count) +
            " TODO/FIXME comments, over the budget of " +
            std::to_string(root_policy.todo_budget) +
            " (raise todo-budget in the root policy or burn some down)"});
  }
  return walker.report;
}

}  // namespace krak::lint
