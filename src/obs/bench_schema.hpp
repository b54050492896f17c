#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace krak::obs {

/// Schema identifier stamped into every bench report; bump only with a
/// migration note in docs/OBSERVABILITY.md.
inline constexpr std::string_view kBenchSchemaId = "krak-bench-v2";

/// Validate a BENCH_*.json document against the krak-bench-v2 schema
/// (docs/OBSERVABILITY.md). Returns one human-readable violation per
/// problem, empty when the document conforms. Validation is structural
/// and range-based (required keys, kinds, sign constraints); it does not
/// compare timing values across reports.
[[nodiscard]] std::vector<std::string> validate_bench_report(
    const Json& report);

}  // namespace krak::obs
