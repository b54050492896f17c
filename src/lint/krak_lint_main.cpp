// krak_lint: project-invariant static analyzer (docs/STATIC_ANALYSIS.md).
//
// Scans src/, tests/, bench/, and examples/ under the repository root
// and enforces the project rules no generic tool checks: banned
// nondeterminism sources, contract-macro hygiene, ThreadPool task
// exception safety, header hygiene, obs probes on hot paths, and the
// task-marker budget. Policy comes from per-directory .kraklint files.
// The root defaults to the current directory; `krak_lint --help` lists
// the options.
//
//   krak_lint --root /path/to/repo --json report.json
//
// Exit status: 0 when the tree is clean, 1 on findings, 2 on usage or
// I/O errors, a root that is no directory or holds no source file
// among them.

#include <fstream>
#include <iostream>
#include <string>

#include "lint/finding.hpp"
#include "lint/repo.hpp"
#include "lint/rules.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace krak;

int run(const util::ArgParser& args) {
  if (args.has("list-rules")) {
    for (const lint::RuleInfo& info : lint::rule_catalog()) {
      std::cout << info.id << ": " << info.summary << "\n";
    }
    return 0;
  }

  const std::string format = args.get_string("format", "text");
  if (format != "text" && format != "json") {
    throw util::InvalidArgument("unknown --format '" + format + "'");
  }

  lint::LintReport report;
  try {
    report = lint::lint_tree(args.get_string("root", "."));
  } catch (const util::KrakError& error) {
    std::cerr << "krak_lint: " << error.what() << "\n";
    return 2;
  }

  if (args.has("json")) {
    const std::string path = args.get_string("json", "");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "krak_lint: cannot write '" << path << "'\n";
      return 2;
    }
    out << report.to_json().dump(2) << "\n";
  }
  if (format == "json") {
    std::cout << report.to_json().dump(2) << "\n";
  } else {
    std::cout << report.to_text();
  }
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv,
                        {"--root DIR", "--format text|json", "--json FILE",
                         "--list-rules"},
                        run);
}
