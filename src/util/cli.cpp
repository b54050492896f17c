#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string_view>

#include "util/error.hpp"

namespace krak::util {

ArgParser::ArgParser(int argc, const char* const* argv,
                     const std::vector<std::string>& options) {
  takes_value_["help"] = false;
  for (const std::string& option : options) {
    const std::size_t space = option.find(' ');
    takes_value_[option.substr(2, space - 2)] = space != std::string::npos;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      throw InvalidArgument("unexpected argument '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const auto declared = takes_value_.find(name);
    if (declared == takes_value_.end()) {
      throw InvalidArgument("unknown option --" + name);
    }
    if (!declared->second) {
      if (eq != std::string::npos) {
        throw InvalidArgument("option --" + name + " takes no value");
      }
      values_[name] = "";
    } else if (eq != std::string::npos) {
      values_[name] = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      values_[name] = argv[++i];
    } else {
      throw InvalidArgument("option --" + name + " expects a value");
    }
  }
}

const std::string* ArgParser::find(const std::string& name) const {
  KRAK_ASSERT(takes_value_.contains(name),
              "option --" + name + " is read but not declared");
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool ArgParser::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  std::int64_t value = 0;
  const char* end = text->data() + text->size();
  const auto [stop, error] = std::from_chars(text->data(), end, value);
  if (error != std::errc() || stop != end) {
    throw InvalidArgument("option --" + name + " expects an integer, got '" +
                          *text + "'");
  }
  return value;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  double value = 0.0;
  const char* end = text->data() + text->size();
  const auto [stop, error] = std::from_chars(text->data(), end, value);
  if (error != std::errc() || stop != end) {
    throw InvalidArgument("option --" + name + " expects a number, got '" +
                          *text + "'");
  }
  // A run length or a seconds bound of inf never ends, and nan compares
  // false against every limit.
  if (!std::isfinite(value)) {
    throw InvalidArgument("option --" + name +
                          " expects a finite number, got '" + *text + "'");
  }
  return value;
}

std::string usage_line(const std::string& program,
                       const std::vector<std::string>& options) {
  std::string line = "usage: " + program;
  for (const std::string& option : options) line += " [" + option + "]";
  return line;
}

int run_main(int argc, const char* const* argv,
             const std::vector<std::string>& options,
             const std::function<int(const ArgParser&)>& body) {
  const std::string program =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "";
  try {
    const ArgParser args(argc, argv, options);
    if (args.has("help")) {
      std::cout << usage_line(program, options) << '\n';
      return 0;
    }
    return body(args);
  } catch (const InvalidArgument& error) {
    std::cerr << program << ": " << error.what() << '\n';
    std::cout << usage_line(program, options) << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << program << ": " << error.what() << '\n';
    return 1;
  }
}

}  // namespace krak::util
