#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace krak::util {

/// Command-line parser for the example, analyzer and benchmark drivers.
///
/// A driver declares every option it reads, each written as its usage
/// line shows it: "--out FILE" takes a value (`--out FILE` or
/// `--out=FILE`), "--quick" is a flag. `--help` is always accepted.
/// Construction throws InvalidArgument for an undeclared option, a
/// positional token, a flag given a value and a valued option given
/// none, so no driver runs a configuration other than the one typed.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv,
            const std::vector<std::string>& options);

  /// True if `--name` appeared.
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value lookups with defaults. Throw InvalidArgument when the option
  /// is present but its value does not parse; get_double also refuses
  /// `nan` and `inf`. Reading an undeclared name is a driver bug and
  /// throws InternalError.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

 private:
  /// The option's value ("" for a flag), or nullptr when it is absent.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, bool> takes_value_;  // declared name -> valued
  std::map<std::string, std::string> values_;
};

/// "usage: <program> [--out FILE] [--quick]" for the declared options.
[[nodiscard]] std::string usage_line(const std::string& program,
                                     const std::vector<std::string>& options);

/// The entry point of every driver: parse the command line against
/// `options` and run `body`, returning its exit status. `--help` prints
/// the usage line to stdout and returns 0. InvalidArgument, from a
/// refused command line or a bad value `body` finds, prints
/// "<program>: <message>" to stderr and the usage line to stdout and
/// returns 2. Any other exception prints "<program>: <message>" and
/// returns 1, so no driver ends in std::terminate.
int run_main(int argc, const char* const* argv,
             const std::vector<std::string>& options,
             const std::function<int(const ArgParser&)>& body);

}  // namespace krak::util
