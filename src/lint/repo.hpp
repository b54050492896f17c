#pragma once

#include <string>
#include <vector>

#include "lint/finding.hpp"
#include "lint/policy.hpp"

namespace krak::lint {

/// What lint_tree scans. Defaults mirror the project layout: every
/// C++ source under the four source trees, skipping build output and
/// dot-directories.
struct TreeLintOptions {
  /// Subtrees of the root to scan; entries that do not exist are
  /// skipped so the analyzer works in partial checkouts.
  std::vector<std::string> subdirs = {"src", "tests", "bench", "examples"};
  /// File extensions considered C++ sources.
  std::vector<std::string> extensions = {".hpp", ".cpp", ".h", ".hxx"};
};

/// Scan one tree: walk `root`'s configured subtrees in lexicographic
/// order (the report is byte-stable for a given tree), stack `.kraklint`
/// policies directory by directory, lint every source file, and apply
/// the tree-level todo-budget rule from the root policy. Findings
/// arrive in scan order (subtree, then lexicographic path, then line).
/// Throws util::KrakError when the root is no directory or holds no
/// source file to lint, and on unreadable files or malformed policy
/// files.
[[nodiscard]] LintReport lint_tree(const std::string& root,
                                   const TreeLintOptions& options = {});

}  // namespace krak::lint
