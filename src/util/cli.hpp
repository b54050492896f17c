#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace krak::util {

/// Minimal command-line option parser for the example and benchmark
/// drivers: `--name value`, `--name=value`, and bare `--flag` forms.
///
/// Unknown options are collected rather than rejected so drivers can
/// report them together; positional arguments are preserved in order.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value lookups with defaults. Throw InvalidArgument when the option
  /// is present but its value does not parse; get_double also refuses
  /// `nan` and `inf`.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Program name (argv[0], or empty when argc == 0).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Entry point shared by the example drivers: parse the command line and
/// run `body`. A malformed option (InvalidArgument, thrown by ArgParser
/// or by `body`) prints "<program>: <message>" to stderr and returns 2
/// instead of ending in std::terminate.
int run_main(int argc, const char* const* argv,
             const std::function<int(const ArgParser&)>& body);

}  // namespace krak::util
