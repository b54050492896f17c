#include "util/cli.hpp"

#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "util/error.hpp"

namespace krak::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    check(!body.empty(), "empty option name '--'");
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself an option;
    // otherwise a bare flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.contains(name);
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(it->second, &consumed);
    check(consumed == it->second.size(),
          "trailing characters in integer option --" + name);
    return value;
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("option --" + name + " expects an integer, got '" +
                          it->second + "'");
  } catch (const std::out_of_range&) {
    throw InvalidArgument("option --" + name + " value out of range");
  }
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    check(consumed == it->second.size(),
          "trailing characters in numeric option --" + name);
    check(std::isfinite(value),
          "option --" + name + " expects a finite number, got '" +
              it->second + "'");
    return value;
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("option --" + name + " expects a number, got '" +
                          it->second + "'");
  } catch (const std::out_of_range&) {
    throw InvalidArgument("option --" + name + " value out of range");
  }
}

int run_main(int argc, const char* const* argv,
             const std::function<int(const ArgParser&)>& body) {
  try {
    return body(ArgParser(argc, argv));
  } catch (const InvalidArgument& error) {
    const std::string program =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "";
    std::cerr << program << ": " << error.what() << '\n';
    return 2;
  }
}

}  // namespace krak::util
