#pragma once

#include <string>

namespace krak::util {

/// Quote a single CSV field if needed: fields containing commas, quotes,
/// or newlines are quoted per RFC 4180.
[[nodiscard]] std::string csv_escape(const std::string& field);

}  // namespace krak::util
